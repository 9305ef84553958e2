package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"oak/internal/seglog"
	"oak/internal/wire"
)

// spillTestProfile is a persisted profile exercising every field: multiple
// violation counters, two activations (one synthesized), a fractional
// trigger distance and sub-second timestamps.
func spillTestProfile() persistedProfile {
	base := time.Date(2026, 3, 14, 9, 26, 53, 589793000, time.UTC)
	return persistedProfile{
		UserID:     "user-α-42",
		LastReport: base,
		Violations: map[string]int{"ip-s1.com": 3, "ip-cdn.example": 1},
		Active: []persistedActivation{
			{
				RuleID:          "jquery",
				AltIndex:        1,
				ActivatedAt:     base.Add(-time.Hour),
				ExpiresAt:       base.Add(time.Hour),
				TriggerServer:   "ip-s1.com",
				TriggerDistance: 3.25,
				Activations:     7,
			},
			{
				RuleID:          "synth-cdn",
				ActivatedAt:     base.Add(-time.Minute),
				TriggerServer:   "ip-cdn.example",
				TriggerDistance: 1.0,
				Activations:     1,
				Synthesized:     true,
			},
		},
	}
}

func TestSpillRecordRoundTrip(t *testing.T) {
	pp := spillTestProfile()
	payload := encodeSpillRecord(nil, &pp)
	got, err := decodeSpillRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, pp) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", *got, pp)
	}
	// The spill tier's core invariant: the decoded record JSON-marshals
	// byte-identically to the original, so an export never depends on which
	// side of the residency cap a profile sits.
	a, _ := json.Marshal(pp)
	b, _ := json.Marshal(*got)
	if string(a) != string(b) {
		t.Errorf("JSON drift through spill codec:\n was %s\n now %s", a, b)
	}
}

func TestSpillRecordRoundTripPreservesZoneOffset(t *testing.T) {
	// encoding/json writes RFC3339Nano with the time's own offset; a codec
	// that collapsed to unix nanos would silently rewrite +05:30 as Z and
	// break export byte-identity.
	loc := time.FixedZone("IST", 5*3600+1800)
	pp := persistedProfile{
		UserID:     "u-tz",
		LastReport: time.Date(2026, 7, 1, 12, 0, 0, 0, loc),
		Violations: map[string]int{},
	}
	got, err := decodeSpillRecord(encodeSpillRecord(nil, &pp))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(pp.LastReport)
	b, _ := json.Marshal(got.LastReport)
	if string(a) != string(b) {
		t.Errorf("zone offset lost: was %s, now %s", a, b)
	}
}

func TestSpillFrameRoundTrip(t *testing.T) {
	pp := spillTestProfile()
	payload := encodeSpillRecord(nil, &pp)
	frame := wire.AppendFrame(nil, payload)
	got, n, err := seglog.Wire.NextFrame(frame, seglog.MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(frame) {
		t.Errorf("frame length = %d, want %d", n, len(frame))
	}
	if string(got) != string(payload) {
		t.Error("payload mutated by framing")
	}
	// Two frames back to back: the first parse must consume exactly one.
	double := wire.AppendFrame(append([]byte(nil), frame...), payload)
	if _, n2, err := seglog.Wire.NextFrame(double, seglog.MaxFrame); err != nil || n2 != len(frame) {
		t.Errorf("first of two frames: n=%d err=%v, want n=%d", n2, err, len(frame))
	}
}

func TestSpillFrameRejectsDamage(t *testing.T) {
	pp := spillTestProfile()
	payload := encodeSpillRecord(nil, &pp)
	frame := wire.AppendFrame(nil, payload)

	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty input", nil, seglog.ErrTruncated},
		{"torn mid-payload", frame[:len(frame)/2], seglog.ErrTruncated},
		{"torn in checksum", frame[:len(frame)-2], seglog.ErrTruncated},
		{"zero-length frame", []byte{0x00, 0x00, 0x00, 0x00, 0x00}, seglog.ErrCorrupt},
		{"oversized length", binary.AppendUvarint(nil, seglog.MaxFrame+1), seglog.ErrOversized},
		{"flipped payload byte", func() []byte {
			b := append([]byte(nil), frame...)
			b[len(b)/2] ^= 0x40
			return b
		}(), seglog.ErrCorrupt},
		{"flipped checksum byte", func() []byte {
			b := append([]byte(nil), frame...)
			b[len(b)-1] ^= 0x01
			return b
		}(), seglog.ErrCorrupt},
	}
	for _, tc := range cases {
		if _, _, err := seglog.Wire.NextFrame(tc.b, seglog.MaxFrame); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		} else if !seglog.IsDamage(err) {
			t.Errorf("%s: %v not classified as spill damage", tc.name, err)
		}
	}
}

func TestSpillDecodeRejectsHostileRecords(t *testing.T) {
	pp := spillTestProfile()
	good := encodeSpillRecord(nil, &pp)

	cases := []struct {
		name string
		b    []byte
	}{
		{"empty payload", []byte{}},
		{"empty user id", encodeSpillRecord(nil, &persistedProfile{})},
		{"trailing bytes", append(append([]byte(nil), good...), 0xFF)},
		{"truncated record", good[:len(good)-3]},
		{"violation count beyond payload", func() []byte {
			b := wire.AppendString(nil, "u")
			b = appendSpillTime(b, time.Time{})
			return binary.AppendUvarint(b, 1<<40) // claims a trillion violations
		}()},
		{"activation count beyond payload", func() []byte {
			b := wire.AppendString(nil, "u")
			b = appendSpillTime(b, time.Time{})
			b = binary.AppendUvarint(b, 0)
			return binary.AppendUvarint(b, 1<<40)
		}()},
		{"oversized string", func() []byte {
			return binary.AppendUvarint(nil, maxSpillStringLen+1)
		}()},
		{"bad timestamp", func() []byte {
			b := wire.AppendString(nil, "u")
			return wire.AppendString(b, "not-a-time")
		}()},
	}
	for _, tc := range cases {
		rec, err := decodeSpillRecord(tc.b)
		if err == nil {
			t.Errorf("%s: decoded %+v, want error", tc.name, rec)
			continue
		}
		if !seglog.IsDamage(err) {
			t.Errorf("%s: %v not classified as spill damage", tc.name, err)
		}
	}
}

// TestRecordEpochsReadsWhatTheDecodeReads: recordEpochs gives the rule,
// alternative and epoch of each activation with a nonzero epoch that
// decodeSpillRecord decodes, and errs on every cut of a record on which the
// decode errs.
func TestRecordEpochsReadsWhatTheDecodeReads(t *testing.T) {
	type epoch struct {
		rule  string
		alt   int
		epoch uint64
	}
	pp := spillTestProfile()
	pp.Active[0].Epoch, pp.Version = 3, 9
	versioned := encodeSpillRecord(nil, &pp)
	pp.Active[0].Epoch, pp.Active[1].Epoch, pp.Version = 0, 1<<40, 0
	for _, rec := range [][]byte{versioned, encodeSpillRecord(nil, &pp)} {
		for n := range len(rec) + 1 {
			var got, want []epoch
			err := recordEpochs(rec[:n], func(rule []byte, alt int, e uint64) { got = append(got, epoch{string(rule), alt, e}) })
			dec, derr := decodeSpillRecord(rec[:n])
			if (err == nil) != (derr == nil) {
				t.Fatalf("the first %d of %d bytes: recordEpochs says %v, the decode %v", n, len(rec), err, derr)
			}
			if derr != nil {
				continue
			}
			for _, pa := range dec.Active {
				if pa.Epoch > 0 {
					want = append(want, epoch{pa.RuleID, pa.AltIndex, pa.Epoch})
				}
			}
			if !reflect.DeepEqual(got, want) || len(want) == 0 {
				t.Errorf("the first %d of %d bytes: epochs %v, the decode's %v", n, len(rec), got, want)
			}
		}
	}
}

// TestSpillRecordVersionEncoding: the version is a trailing canonical uvarint
// present only when non-zero, so a profile has exactly one encoding and every
// record written before the field existed is a valid version-0 record.
func TestSpillRecordVersionEncoding(t *testing.T) {
	pp := spillTestProfile()
	unversioned := encodeSpillRecord(nil, &pp)
	if got, err := decodeSpillRecord(unversioned); err != nil || got.Version != 0 {
		t.Fatalf("record with no trailing bytes: version %d, %v; want 0", got.Version, err)
	}
	with := func(tail ...byte) []byte { return append(append([]byte(nil), unversioned...), tail...) }
	for _, v := range []uint64{1, 127, 128, 1 << 40, 1<<64 - 1} {
		pp.Version = v
		b := encodeSpillRecord(nil, &pp)
		if want := with(binary.AppendUvarint(nil, v)...); !bytes.Equal(b, want) {
			t.Errorf("version %d: encoding is not the unversioned record plus one uvarint", v)
		}
		got, err := decodeSpillRecord(b)
		if err != nil || !reflect.DeepEqual(*got, pp) {
			t.Errorf("version %d: round trip gave %+v, %v", v, got, err)
		}
	}
	for _, tc := range []struct {
		name string
		b    []byte
		want error
	}{
		{"explicit zero", with(0x00), seglog.ErrCorrupt},
		{"non-canonical version", with(0x85, 0x00), seglog.ErrCorrupt},
		{"overflowing version", with(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f), seglog.ErrCorrupt},
		{"garbage after the version", with(0x05, 0x01), seglog.ErrCorrupt},
		{"version cut short", with(0x85), seglog.ErrTruncated},
	} {
		if rec, err := decodeSpillRecord(tc.b); !errors.Is(err, tc.want) {
			t.Errorf("%s: decoded %+v, %v; want %v", tc.name, rec, err, tc.want)
		}
	}
}

func TestSpillUvarintRejectsNonMinimal(t *testing.T) {
	// 0x80 0x00 encodes zero in two bytes; canonical encoders never emit it,
	// so it can only appear via corruption.
	if _, _, err := seglog.Wire.Uvarint([]byte{0x80, 0x00}); !errors.Is(err, seglog.ErrCorrupt) {
		t.Errorf("non-minimal uvarint: err = %v, want seglog.ErrCorrupt", err)
	}
}

func TestSpillSegmentMagicIsOneLine(t *testing.T) {
	// Recovery scans line-structured headers; the magic must stay a single
	// newline-terminated token (file(1)-friendly, like OAKSNAP2).
	if !strings.HasSuffix(seglog.Magic, "\n") || strings.Count(seglog.Magic, "\n") != 1 {
		t.Errorf("seglog.Magic = %q, want one newline-terminated line", seglog.Magic)
	}
}

// TestUTCTimeReadsWhatParseReads: the spill decoder's reading of a UTC time
// is time.Parse's, for every form appendSpillTime writes and for text near
// it, which utcTime leaves to time.Parse.
func TestUTCTimeReadsWhatParseReads(t *testing.T) {
	var texts []string
	for _, at := range []time.Time{
		{}, time.Unix(0, 0).UTC(), time.Date(2026, 2, 28, 23, 59, 59, 999999999, time.UTC),
		time.Date(2024, 2, 29, 1, 2, 3, 500000000, time.UTC), time.Date(9999, 12, 31, 0, 0, 0, 10, time.UTC),
	} {
		texts = append(texts, at.Format(time.RFC3339Nano))
		if _, ok := utcTime([]byte(texts[len(texts)-1])); !ok {
			t.Errorf("utcTime leaves %q, a UTC time appendSpillTime writes, to time.Parse", texts[len(texts)-1])
		}
	}
	texts = append(texts, "2026-01-01T00:00:00+01:00",
		"2026-02-29T00:00:00Z", "2026-13-01T00:00:00Z", "2026-00-10T00:00:00Z", "2026-01-00T00:00:00Z",
		"2026-01-01T24:00:00Z", "2026-01-01T00:60:00Z", "2026-01-01T00:00:60Z", "2026-01-01T00:00:00.Z",
		"2026-01-01T00:00:00.1234567891Z", "2026-01-01T00:00:00.120Z", "2026-01-01T00:00:00,5Z",
		"2026-01-01t00:00:00Z", "2026-01-01T00:00:00z", "+026-01-01T00:00:00Z", "2026-1-01T00:00:00Z", "Z", "")
	for _, s := range texts {
		want, werr := time.Parse(time.RFC3339Nano, s)
		got, ok := utcTime([]byte(s))
		if ok && (werr != nil || got != want) {
			t.Errorf("utcTime(%q) = %v, time.Parse: %v, %v", s, got, want, werr)
		}
		got, _, err := spillTime(wire.AppendString(nil, s))
		if (err == nil) != (werr == nil) || got != want {
			t.Errorf("spillTime(%q) = %v, %v; time.Parse: %v, %v", s, got, err, want, werr)
		}
	}
}
