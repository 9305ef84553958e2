package report

import (
	"encoding/binary"
	"errors"
	"math"
	"mime"

	"oak/internal/wire"
)

// OAKRPT1: a compact length-prefixed binary report encoding for
// instrumented clients. JSON spends most of a report's wire bytes on
// punctuation and repeated key names; the paper's reports are a restricted
// HAR subset (median < 10 KB) uploaded from clients where bytes and battery
// matter, so the binary format drops the keys entirely: the schema is fixed,
// fields appear in a fixed order, strings are uvarint-length-prefixed,
// integers are zigzag varints and durations are raw float64 bits.
//
// Layout (single report, Content-Type application/x-oak-report):
//
//	"OAKRPT1"                          7-byte magic
//	userID    uvarint len + bytes      first so routing can sniff it cheaply
//	page      uvarint len + bytes
//	generatedAtUnixMs zigzag varint
//	count     uvarint
//	entries   count ×:
//	  url           uvarint len + bytes
//	  serverAddr    uvarint len + bytes
//	  sizeBytes     zigzag varint
//	  durationMillis float64 bits, little-endian
//	  initiatorUrl  uvarint len + bytes
//	  kind          uvarint len + bytes
//	  flags         1 byte (bit0 = failed; other bits reserved, must be 0)
//
// A batch (Content-Type application/x-oak-report-batch) is a concatenation
// of frames, each a uvarint byte length followed by one single-report
// payload. Frames are self-describing, so the gateway slices a mixed-user
// batch into per-owner sub-batches without decoding entries.

// Content types for report submission. The JSON and NDJSON types predate the
// binary format; origin negotiates by Content-Type.
const (
	ContentTypeJSON        = "application/json"
	ContentTypeNDJSON      = "application/x-ndjson"
	ContentTypeBinary      = "application/x-oak-report"
	ContentTypeBinaryBatch = "application/x-oak-report-batch"
)

// Format is how a report submission body is encoded.
type Format int

const (
	// FormatJSON is one JSON report. It is also what a missing, malformed
	// or unrecognised Content-Type is taken to mean.
	FormatJSON Format = iota
	// FormatNDJSON is a batch of JSON reports, one per line.
	FormatNDJSON
	// FormatBinary is one OAKRPT1 payload.
	FormatBinary
	// FormatBinaryBatch is a batch of length-prefixed OAKRPT1 frames.
	FormatBinaryBatch
)

// ClassifyContentType maps a request's Content-Type header to the body
// format it declares. Only the media type counts (parameters are ignored,
// case is folded); application/ndjson and application/jsonl are accepted
// as aliases of ContentTypeNDJSON. Origin and gateway both decide with this
// function, so a body is split as a batch at the edge exactly when the
// backend will read it as one.
func ClassifyContentType(ct string) Format {
	if f, ok := classifyExact(ct); ok {
		return f
	}
	return classifyParsed(ct)
}

// classifyExact answers the spellings this repository's own senders put on
// the wire, which is nearly every report, by comparison; any other spelling
// is classifyParsed's, whose answer for these five it returns.
func classifyExact(ct string) (Format, bool) {
	switch ct {
	case "", ContentTypeJSON:
		return FormatJSON, true
	case ContentTypeNDJSON:
		return FormatNDJSON, true
	case ContentTypeBinary:
		return FormatBinary, true
	case ContentTypeBinaryBatch:
		return FormatBinaryBatch, true
	}
	return 0, false
}

func classifyParsed(ct string) Format {
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return FormatJSON
	}
	switch mt {
	case ContentTypeNDJSON, "application/ndjson", "application/jsonl":
		return FormatNDJSON
	case ContentTypeBinary:
		return FormatBinary
	case ContentTypeBinaryBatch:
		return FormatBinaryBatch
	}
	return FormatJSON
}

// binaryMagic identifies an OAKRPT1 payload.
const binaryMagic = "OAKRPT1"

// MaxBinaryStringLen bounds any single length-prefixed string, so a hostile
// length prefix cannot demand a huge allocation.
const MaxBinaryStringLen = 1 << 20

// binMinEntrySize is the smallest possible encoded entry (four empty
// strings, one-byte varints, 8 float bytes, flags): used to reject entry
// counts the remaining payload cannot possibly hold.
const binMinEntrySize = 13

// Typed decode errors. Hostile input maps to exactly these; callers gate
// status codes on them.
var (
	// ErrBinaryMagic means the payload does not start with OAKRPT1.
	ErrBinaryMagic = errors.New("report: not an OAKRPT1 payload")
	// ErrBinaryTruncated means the payload ended before a declared length.
	ErrBinaryTruncated = errors.New("report: truncated OAKRPT1 payload")
	// ErrBinaryOversized means a declared length exceeds the format limits
	// or the bytes actually present.
	ErrBinaryOversized = errors.New("report: OAKRPT1 length exceeds limit")
	// ErrBinaryCorrupt means a malformed varint, reserved flag bits, or
	// trailing bytes after the payload.
	ErrBinaryCorrupt = errors.New("report: corrupt OAKRPT1 payload")
)

// binWire reads the wire primitives under the OAKRPT1 taxonomy: non-minimal
// varints are Corrupt, so every decodable payload re-encodes byte-identically
// — the property FuzzBinaryRoundTrip pins.
var binWire = wire.Errors{Truncated: ErrBinaryTruncated, Oversized: ErrBinaryOversized, Corrupt: ErrBinaryCorrupt}

// IsBinary reports whether data starts with the OAKRPT1 magic.
func IsBinary(data []byte) bool {
	return len(data) >= len(binaryMagic) && string(data[:len(binaryMagic)]) == binaryMagic
}

// AppendBinary appends the OAKRPT1 encoding of r to dst.
func (r *Report) AppendBinary(dst []byte) []byte {
	dst = append(dst, binaryMagic...)
	dst = wire.AppendString(dst, r.UserID)
	dst = wire.AppendString(dst, r.Page)
	dst = binary.AppendVarint(dst, r.GeneratedAtUnixMs)
	dst = binary.AppendUvarint(dst, uint64(len(r.Entries)))
	for i := range r.Entries {
		e := &r.Entries[i]
		dst = wire.AppendString(dst, e.URL)
		dst = wire.AppendString(dst, e.ServerAddr)
		dst = binary.AppendVarint(dst, e.SizeBytes)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.DurationMillis))
		dst = wire.AppendString(dst, e.InitiatorURL)
		dst = wire.AppendString(dst, string(e.Kind))
		var flags byte
		if e.Failed {
			flags |= 1
		}
		dst = append(dst, flags)
	}
	return dst
}

// MarshalBinary encodes r as a single OAKRPT1 payload. It fails only when a
// string field exceeds MaxBinaryStringLen (such a payload could never be
// decoded back).
func (r *Report) MarshalBinary() ([]byte, error) {
	if !r.fits() {
		return nil, ErrBinaryOversized
	}
	return r.AppendBinary(nil), nil
}

// fits reports whether every string of r is at most MaxBinaryStringLen bytes.
func (r *Report) fits() bool {
	if len(r.UserID) > MaxBinaryStringLen || len(r.Page) > MaxBinaryStringLen {
		return false
	}
	for i := range r.Entries {
		e := &r.Entries[i]
		if len(e.URL) > MaxBinaryStringLen || len(e.ServerAddr) > MaxBinaryStringLen ||
			len(e.InitiatorURL) > MaxBinaryStringLen || len(e.Kind) > MaxBinaryStringLen {
			return false
		}
	}
	return true
}

// UnmarshalBinary decodes a single OAKRPT1 payload into a fresh report.
func UnmarshalBinary(data []byte) (*Report, error) {
	r := &Report{}
	if err := decodeBinaryInto(data, r); err != nil {
		return nil, err
	}
	return r, nil
}

// DecodeBinaryPooled decodes a single OAKRPT1 payload into a pooled report
// (same ownership contract as DecodePooled).
func DecodeBinaryPooled(data []byte) (*Report, error) {
	r := acquireReport()
	if err := decodeBinaryInto(data, r); err != nil {
		r.Release()
		return nil, err
	}
	return r, nil
}

// decodeBinaryInto decodes data into r, taking strings and entry hosts from
// the intern table (intern.go), exactly like the JSON fast path.
func decodeBinaryInto(data []byte, r *Report) error {
	if !IsBinary(data) {
		return ErrBinaryMagic
	}
	b := data[len(binaryMagic):]
	tok, b, err := binWire.String(b, MaxBinaryStringLen)
	if err != nil {
		return err
	}
	r.UserID = string(tok)
	tok, b, err = binWire.String(b, MaxBinaryStringLen)
	if err != nil {
		return err
	}
	r.Page = internString(nil, tok)
	gen, b, err := binWire.Varint(b)
	if err != nil {
		return err
	}
	r.GeneratedAtUnixMs = gen
	count, b, err := binWire.Uvarint(b)
	if err != nil {
		return err
	}
	if count > uint64(len(b))/binMinEntrySize {
		return ErrBinaryOversized
	}
	if r.Entries == nil {
		r.Entries = make([]Entry, 0, count)
	} else {
		r.Entries = r.Entries[:0]
	}
	for n := 0; n < int(count); n++ {
		if n < cap(r.Entries) {
			r.Entries = r.Entries[:n+1]
		} else {
			r.Entries = append(r.Entries, Entry{})
		}
		e := &r.Entries[n]
		if tok, b, err = binWire.String(b, MaxBinaryStringLen); err != nil {
			return err
		}
		e.URL, e.host, _ = internURL(nil, tok)
		e.hostKnown = true
		if tok, b, err = binWire.String(b, MaxBinaryStringLen); err != nil {
			return err
		}
		e.ServerAddr = internString(nil, tok)
		if e.SizeBytes, b, err = binWire.Varint(b); err != nil {
			return err
		}
		if len(b) < 8 {
			return ErrBinaryTruncated
		}
		e.DurationMillis = math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
		if tok, b, err = binWire.String(b, MaxBinaryStringLen); err != nil {
			return err
		}
		e.InitiatorURL = internString(nil, tok)
		if tok, b, err = binWire.String(b, MaxBinaryStringLen); err != nil {
			return err
		}
		e.Kind = internKind(nil, tok)
		if len(b) < 1 {
			return ErrBinaryTruncated
		}
		flags := b[0]
		b = b[1:]
		if flags&^1 != 0 {
			return ErrBinaryCorrupt
		}
		e.Failed = flags&1 != 0
	}
	if len(b) != 0 {
		return ErrBinaryCorrupt
	}
	return nil
}

// SniffBinaryUser returns the userID of a single OAKRPT1 payload (or batch
// frame payload) without decoding the rest, for gateway routing. Malformed
// payloads yield "" — they still route deterministically and the owner
// backend rejects them properly.
func SniffBinaryUser(data []byte) string {
	if !IsBinary(data) {
		return ""
	}
	tok, _, err := binWire.String(data[len(binaryMagic):], MaxBinaryStringLen)
	if err != nil {
		return ""
	}
	return string(tok)
}

// AppendBinaryFrame appends one batch frame (uvarint length + payload) to
// dst. scratch, if non-nil, is reused for the intermediate encoding; pass
// the previous call's second return to amortise it.
func AppendBinaryFrame(dst, scratch []byte, r *Report) (frame, scratch2 []byte) {
	scratch = r.AppendBinary(scratch[:0])
	dst = binary.AppendUvarint(dst, uint64(len(scratch)))
	return append(dst, scratch...), scratch
}

// NextBinaryFrame splits the first frame off a batch body. frame is the
// payload (decodable by UnmarshalBinary and sniffable by SniffBinaryUser),
// rest is the remaining batch. An empty body returns (nil, nil, nil). The
// length prefix is read under the OAKRPT1 taxonomy like every other varint:
// a prefix cut short, or a frame longer than the body, is ErrBinaryTruncated;
// a non-minimal or overflowing prefix is ErrBinaryCorrupt.
func NextBinaryFrame(body []byte) (frame, rest []byte, err error) {
	if len(body) == 0 {
		return nil, nil, nil
	}
	n, body, err := binWire.Uvarint(body)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(body)) {
		return nil, nil, ErrBinaryTruncated
	}
	return body[:n], body[n:], nil
}
