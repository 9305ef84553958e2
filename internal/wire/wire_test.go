package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

var (
	errTruncated = errors.New("test: truncated")
	errOversized = errors.New("test: oversized")
	errCorrupt   = errors.New("test: corrupt")
	dialect      = Errors{Truncated: errTruncated, Oversized: errOversized, Corrupt: errCorrupt}
)

const (
	testMaxString = 1 << 10
	testMaxFrame  = 1 << 12
)

func TestReadersRejectWithTheDialectsOwnSentinels(t *testing.T) {
	frame := AppendFrame(nil, []byte("payload"))
	flipped := append([]byte(nil), frame...)
	flipped[3] ^= 0x40
	for _, tc := range []struct {
		name string
		read func() error
		want error
	}{
		{"uvarint: empty", func() error { _, _, err := dialect.Uvarint(nil); return err }, errTruncated},
		{"uvarint: cut short", func() error { _, _, err := dialect.Uvarint([]byte{0x80}); return err }, errTruncated},
		{"uvarint: non-minimal", func() error { _, _, err := dialect.Uvarint([]byte{0x80, 0x00}); return err }, errCorrupt},
		{"uvarint: overflow", func() error {
			_, _, err := dialect.Uvarint(bytes.Repeat([]byte{0xFF}, 11))
			return err
		}, errCorrupt},
		{"varint: empty", func() error { _, _, err := dialect.Varint(nil); return err }, errTruncated},
		{"varint: non-minimal", func() error { _, _, err := dialect.Varint([]byte{0x81, 0x00}); return err }, errCorrupt},
		{"string: over the bound, however short the input", func() error {
			_, _, err := dialect.String(binary.AppendUvarint(nil, testMaxString+1), testMaxString)
			return err
		}, errOversized},
		{"string: cut short", func() error { _, _, err := dialect.String([]byte{3, 'a', 'b'}, testMaxString); return err }, errTruncated},
		{"frame: empty input", func() error { _, _, err := dialect.NextFrame(nil, testMaxFrame); return err }, errTruncated},
		{"frame: torn in payload", func() error { _, _, err := dialect.NextFrame(frame[:4], testMaxFrame); return err }, errTruncated},
		{"frame: torn in checksum", func() error {
			_, _, err := dialect.NextFrame(frame[:len(frame)-1], testMaxFrame)
			return err
		}, errTruncated},
		{"frame: zero-filled", func() error { _, _, err := dialect.NextFrame(make([]byte, 5), testMaxFrame); return err }, errCorrupt},
		{"frame: over the bound", func() error {
			_, _, err := dialect.NextFrame(binary.AppendUvarint(nil, testMaxFrame+1), testMaxFrame)
			return err
		}, errOversized},
		{"frame: flipped payload bit", func() error { _, _, err := dialect.NextFrame(flipped, testMaxFrame); return err }, errCorrupt},
	} {
		// Identity, not errors.Is: the readers hand back the dialect's value
		// itself, which is what keeps a format's exported sentinels intact.
		if err := tc.read(); err != tc.want {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestNextFrameConsumesExactlyOneFrame(t *testing.T) {
	one := AppendFrame(nil, []byte("first"))
	two := AppendFrame(append([]byte(nil), one...), []byte("second"))
	payload, n, err := dialect.NextFrame(two, testMaxFrame)
	if err != nil || string(payload) != "first" || n != len(one) {
		t.Fatalf("first frame: payload %q n %d err %v, want \"first\" %d nil", payload, n, err, len(one))
	}
	payload, n, err = dialect.NextFrame(two[n:], testMaxFrame)
	if err != nil || string(payload) != "second" || n != len(two)-len(one) {
		t.Fatalf("second frame: payload %q n %d err %v", payload, n, err)
	}
}

// FuzzPrimitivesRoundTrip pins the three properties every dialect over this
// package inherits: decode(encode(x)) = x; whatever decodes re-encodes to the
// bytes it was read from, so no two inputs mean the same value; and hostile
// input is rejected with one of the dialect's three sentinels — never a
// panic, never another error.
func FuzzPrimitivesRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint64(0), int64(0), []byte{})
	f.Add([]byte{0x80, 0x00}, uint64(1<<63), int64(-1<<63), []byte("u1"))
	f.Add(AppendFrame(nil, []byte("payload")), uint64(300), int64(-300), bytes.Repeat([]byte{0}, 200))
	f.Add(AppendString(nil, "cdn-a.example"), uint64(1<<32), int64(1<<40), []byte("x"))
	f.Fuzz(func(t *testing.T, data []byte, u uint64, i int64, s []byte) {
		if len(s) > testMaxString {
			s = s[:testMaxString]
		}

		// decode(encode(x)) = x, consuming exactly what was written.
		enc := binary.AppendUvarint(nil, u)
		enc = binary.AppendVarint(enc, i)
		enc = AppendString(enc, string(s))
		if len(s) > 0 {
			enc = AppendFrame(enc, s)
		}
		gu, rest, err := dialect.Uvarint(enc)
		if err != nil || gu != u {
			t.Fatalf("Uvarint(%d) = %d, %v", u, gu, err)
		}
		gi, rest, err := dialect.Varint(rest)
		if err != nil || gi != i {
			t.Fatalf("Varint(%d) = %d, %v", i, gi, err)
		}
		gs, rest, err := dialect.String(rest, testMaxString)
		if err != nil || !bytes.Equal(gs, s) {
			t.Fatalf("String(%q) = %q, %v", s, gs, err)
		}
		if len(s) > 0 {
			payload, n, err := dialect.NextFrame(rest, testMaxFrame)
			if err != nil || !bytes.Equal(payload, s) || n != len(rest) {
				t.Fatalf("NextFrame(%q) = %q, %d of %d, %v", s, payload, n, len(rest), err)
			}
		} else if len(rest) != 0 {
			t.Fatalf("%d bytes left over", len(rest))
		}

		// Arbitrary input: a typed rejection, or bytes these encoders wrote.
		typed := func(what string, err error) bool {
			if err == nil {
				return false
			}
			if err != errTruncated && err != errOversized && err != errCorrupt {
				t.Fatalf("%s: untyped error %v", what, err)
			}
			return true
		}
		if v, rest, err := dialect.Uvarint(data); !typed("Uvarint", err) {
			if re := binary.AppendUvarint(nil, v); !bytes.Equal(re, data[:len(data)-len(rest)]) {
				t.Fatalf("Uvarint: %x decoded to %d, which encodes as %x", data[:len(data)-len(rest)], v, re)
			}
		}
		if v, rest, err := dialect.Varint(data); !typed("Varint", err) {
			if re := binary.AppendVarint(nil, v); !bytes.Equal(re, data[:len(data)-len(rest)]) {
				t.Fatalf("Varint: %x decoded to %d, which encodes as %x", data[:len(data)-len(rest)], v, re)
			}
		}
		if tok, rest, err := dialect.String(data, testMaxString); !typed("String", err) {
			if re := AppendString(nil, string(tok)); !bytes.Equal(re, data[:len(data)-len(rest)]) {
				t.Fatalf("String: %x decoded to %q, which encodes as %x", data[:len(data)-len(rest)], tok, re)
			}
		}
		if payload, n, err := dialect.NextFrame(data, testMaxFrame); !typed("NextFrame", err) {
			if re := AppendFrame(nil, payload); !bytes.Equal(re, data[:n]) {
				t.Fatalf("NextFrame: %x decoded to %q, which encodes as %x", data[:n], payload, re)
			}
		}
	})
}
