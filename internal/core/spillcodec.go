package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"oak/internal/wire"
)

// OAKPROF1 is the spill tier's binary profile encoding, in the spirit of the
// OAKRPT1 report wire format: length-prefixed strings and counts as uvarints,
// float64s as raw IEEE-754 bits, and every record carried in a
// length-prefixed frame closed by a CRC-32C of the payload, so a damaged
// record is detected before a single field of it is trusted.
//
// Timestamps are encoded as RFC3339Nano strings rather than unix
// nanoseconds: a profile's persisted JSON form carries the wall clock *and*
// the UTC offset, and export byte-identity across resident and spilled
// layouts (the spill tier's core invariant) requires the round trip through
// a segment file to preserve exactly what encoding/json would have written.
//
// A segment file is the magic line followed by frames back to back:
//
//	OAKPROF1\n
//	uvarint(len(payload)) | payload | crc32c(payload) LE
//	uvarint(len(payload)) | payload | crc32c(payload) LE
//	...
//
// Appends are fsynced before the in-memory profile is forgotten, so the tail
// of a segment after a crash is at worst torn — recovery truncates it. Each
// payload is one profile:
//
//	userID      string
//	lastReport  time string
//	violations  uvarint count, then per server (sorted): addr string, count uvarint
//	actives     uvarint count, then per rule (sorted by ID):
//	            ruleID string, altIndex uvarint, activatedAt time string,
//	            expiresAt time string, triggerServer string,
//	            triggerDistance float64 bits LE, activations uvarint,
//	            flags byte (bit 0 = synthesized)
//	version     uvarint, present only when non-zero: the reports ever applied
//	            to the profile. A record that ends after its activations is
//	            version 0 — every record written before the field existed —
//	            and an explicit 0 is corrupt, so a profile has one encoding.

// spillSegMagic is the first line of every segment file.
const spillSegMagic = "OAKPROF1\n"

const (
	// maxSpillStringLen bounds any one string field, so a corrupted length
	// prefix cannot demand a gigabyte allocation.
	maxSpillStringLen = 1 << 20
	// maxSpillRecordLen bounds a whole record frame.
	maxSpillRecordLen = 1 << 24
)

// Typed spill-codec failures, mirroring the OAKRPT1 error taxonomy.
// ErrSpillTruncated specifically means "the bytes end mid-frame" — at the
// tail of a segment that is a torn write and recovery truncates to the last
// whole frame; anywhere else it is corruption.
var (
	ErrSpillMagic     = errors.New("core: spill segment magic mismatch")
	ErrSpillTruncated = errors.New("core: spill record truncated")
	ErrSpillOversized = errors.New("core: spill record oversized")
	ErrSpillCorrupt   = errors.New("core: spill record corrupt")
)

// isSpillDamage reports whether err is a codec-level rejection (as opposed
// to an I/O failure): the segment's bytes are wrong, not the disk's
// plumbing. Damage quarantines the segment; I/O failures degrade the store
// to memory-only mode.
func isSpillDamage(err error) bool {
	return errors.Is(err, ErrSpillCorrupt) || errors.Is(err, ErrSpillTruncated) ||
		errors.Is(err, ErrSpillOversized) || errors.Is(err, ErrSpillMagic)
}

// spillWire reads the wire primitives under the spill-codec taxonomy. The
// helpers below bind OAKPROF1's bounds to them; they are the whole dialect.
var spillWire = wire.Errors{Truncated: ErrSpillTruncated, Oversized: ErrSpillOversized, Corrupt: ErrSpillCorrupt}

// appendSpillUvarint appends v as a uvarint.
func appendSpillUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// appendSpillString appends s as uvarint length + bytes.
func appendSpillString(b []byte, s string) []byte {
	return wire.AppendString(b, s)
}

// appendSpillTime appends t in the RFC3339Nano form encoding/json uses, as a
// spill string. The zero time round-trips through "0001-01-01T00:00:00Z".
func appendSpillTime(b []byte, t time.Time) []byte {
	b = binary.AppendUvarint(b, uint64(len(t.AppendFormat(nil, time.RFC3339Nano))))
	return t.AppendFormat(b, time.RFC3339Nano)
}

// spillUvarint decodes a canonical (minimal-length) uvarint from b.
func spillUvarint(b []byte) (uint64, []byte, error) {
	return spillWire.Uvarint(b)
}

// spillString decodes a length-prefixed string from b.
func spillString(b []byte) (string, []byte, error) {
	tok, rest, err := spillWire.String(b, maxSpillStringLen)
	return string(tok), rest, err
}

// spillTime decodes a spill time string.
func spillTime(b []byte) (time.Time, []byte, error) {
	s, rest, err := spillString(b)
	if err != nil {
		return time.Time{}, nil, err
	}
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return time.Time{}, nil, fmt.Errorf("%w: bad timestamp %q", ErrSpillCorrupt, s)
	}
	return t, rest, nil
}

// encodeSpillRecord appends the OAKPROF1 payload for one persisted profile.
func encodeSpillRecord(b []byte, pp *persistedProfile) []byte {
	b = appendSpillString(b, pp.UserID)
	b = appendSpillTime(b, pp.LastReport)

	b = appendSpillUvarint(b, uint64(len(pp.Violations)))
	srvs := make([]string, 0, len(pp.Violations))
	for srv := range pp.Violations {
		srvs = append(srvs, srv)
	}
	sort.Strings(srvs)
	for _, srv := range srvs {
		b = appendSpillString(b, srv)
		b = appendSpillUvarint(b, uint64(pp.Violations[srv]))
	}

	b = appendSpillUvarint(b, uint64(len(pp.Active)))
	for i := range pp.Active {
		pa := &pp.Active[i]
		b = appendSpillString(b, pa.RuleID)
		b = appendSpillUvarint(b, uint64(pa.AltIndex))
		b = appendSpillTime(b, pa.ActivatedAt)
		b = appendSpillTime(b, pa.ExpiresAt)
		b = appendSpillString(b, pa.TriggerServer)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(pa.TriggerDistance))
		b = appendSpillUvarint(b, uint64(pa.Activations))
		var flags byte
		if pa.Synthesized {
			flags |= 1
		}
		b = append(b, flags)
	}
	if pp.Version != 0 {
		b = appendSpillUvarint(b, pp.Version)
	}
	return b
}

// decodeSpillRecord decodes one OAKPROF1 payload. The persisted form is the
// same neutral shape ExportState emits and ImportState consumes, so export
// uses the decoded record directly and rehydration resolves it against the
// live rule set exactly like an import would.
func decodeSpillRecord(payload []byte) (*persistedProfile, error) {
	pp := &persistedProfile{}
	if err := decodeSpillRecordInto(pp, payload); err != nil {
		return nil, err
	}
	return pp, nil
}

// decodeSpillRecordInto is decodeSpillRecord into a record the caller owns
// and may hand back for the next payload: every field is overwritten, the
// violations map and the activations' backing array are reused. (An empty
// activation list leaves a reused slice empty, a fresh one nil.) On an error
// *pp is part old, part new.
func decodeSpillRecordInto(pp *persistedProfile, payload []byte) error {
	b := payload
	var err error

	if pp.UserID, b, err = spillString(b); err != nil {
		return fmt.Errorf("user id: %w", err)
	}
	if pp.UserID == "" {
		return fmt.Errorf("%w: empty user id", ErrSpillCorrupt)
	}
	if pp.LastReport, b, err = spillTime(b); err != nil {
		return fmt.Errorf("last report: %w", err)
	}

	nv, b, err := spillUvarint(b)
	if err != nil {
		return fmt.Errorf("violation count: %w", err)
	}
	if nv > uint64(len(b)) {
		return fmt.Errorf("%w: %d violations in %d bytes", ErrSpillCorrupt, nv, len(b))
	}
	if pp.Violations == nil {
		pp.Violations = make(map[string]int, nv)
	} else {
		clear(pp.Violations)
	}
	for i := uint64(0); i < nv; i++ {
		var srv string
		var cnt uint64
		if srv, b, err = spillString(b); err != nil {
			return fmt.Errorf("violation server: %w", err)
		}
		if cnt, b, err = spillUvarint(b); err != nil {
			return fmt.Errorf("violation count for %q: %w", srv, err)
		}
		pp.Violations[srv] = int(cnt)
	}

	na, b, err := spillUvarint(b)
	if err != nil {
		return fmt.Errorf("activation count: %w", err)
	}
	if na > uint64(len(b)) {
		return fmt.Errorf("%w: %d activations in %d bytes", ErrSpillCorrupt, na, len(b))
	}
	if na > uint64(cap(pp.Active)) {
		pp.Active = make([]persistedActivation, 0, na)
	}
	pp.Active = pp.Active[:0]
	for i := uint64(0); i < na; i++ {
		var pa persistedActivation
		var alt, acts uint64
		if pa.RuleID, b, err = spillString(b); err != nil {
			return fmt.Errorf("rule id: %w", err)
		}
		if alt, b, err = spillUvarint(b); err != nil {
			return fmt.Errorf("alt index: %w", err)
		}
		pa.AltIndex = int(alt)
		if pa.ActivatedAt, b, err = spillTime(b); err != nil {
			return fmt.Errorf("activated at: %w", err)
		}
		if pa.ExpiresAt, b, err = spillTime(b); err != nil {
			return fmt.Errorf("expires at: %w", err)
		}
		if pa.TriggerServer, b, err = spillString(b); err != nil {
			return fmt.Errorf("trigger server: %w", err)
		}
		if len(b) < 8 {
			return fmt.Errorf("%w: trigger distance cut short", ErrSpillTruncated)
		}
		pa.TriggerDistance = math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
		if acts, b, err = spillUvarint(b); err != nil {
			return fmt.Errorf("activation counter: %w", err)
		}
		pa.Activations = int(acts)
		if len(b) < 1 {
			return fmt.Errorf("%w: flags cut short", ErrSpillTruncated)
		}
		pa.Synthesized = b[0]&1 != 0
		b = b[1:]
		pp.Active = append(pp.Active, pa)
	}
	pp.Version = 0
	if len(b) != 0 {
		if pp.Version, b, err = spillUvarint(b); err != nil {
			return fmt.Errorf("version: %w", err)
		}
		if pp.Version == 0 {
			return fmt.Errorf("%w: explicit version 0", ErrSpillCorrupt)
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after record", ErrSpillCorrupt, len(b))
	}
	return nil
}

// appendSpillFrame wraps a record payload in the segment frame: uvarint
// length, payload, CRC-32C.
func appendSpillFrame(dst, payload []byte) []byte {
	return wire.AppendFrame(dst, payload)
}

// nextSpillFrame parses one frame from the head of b, returning the payload
// and the total frame length consumed. ErrSpillTruncated means b ends
// mid-frame (a torn tail when b runs to the segment's end); a checksum
// mismatch, an empty frame or an impossible length is
// ErrSpillCorrupt/ErrSpillOversized.
func nextSpillFrame(b []byte) (payload []byte, frameLen int, err error) {
	return spillWire.NextFrame(b, maxSpillRecordLen)
}
