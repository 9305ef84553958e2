// Package wire holds the byte-level primitives Oak's two binary dialects are
// schemas over — OAKRPT1 reports (internal/report) and OAKPROF1 spill records
// (internal/core): canonical uvarints and zigzag varints, length-prefixed
// strings under a caller-supplied bound, and len | payload | crc32c frames.
//
// Every decodable input re-encodes byte-identically: a varint longer than it
// needs to be is rejected, so bytes that decode could only have come from
// these encoders (FuzzPrimitivesRoundTrip pins it). Field readers advance a
// cursor (they return the rest of the input); NextFrame returns the frame's
// extent instead, because its callers address frames by offset and length.
package wire

import (
	"encoding/binary"
	"hash/crc32"
)

// Errors is a dialect's failure taxonomy. The readers return exactly these
// values, unwrapped, so a dialect's exported sentinels keep their identity,
// their text and their errors.Is behaviour, and rejecting hostile input
// allocates nothing.
type Errors struct {
	Truncated error // the input ends before a declared length does
	Oversized error // a declared length exceeds the caller's bound
	Corrupt   error // non-minimal or overflowing varint, empty frame, checksum mismatch
}

// castagnoli is the CRC-32C table frames are closed with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Uvarint reads a canonical uvarint off the head of b.
func (e *Errors) Uvarint(b []byte) (v uint64, rest []byte, err error) {
	v, n := binary.Uvarint(b)
	if n == 0 {
		return 0, nil, e.Truncated
	}
	if n < 0 || (n > 1 && b[n-1] == 0) {
		return 0, nil, e.Corrupt
	}
	return v, b[n:], nil
}

// Varint reads a canonical zigzag varint off the head of b.
func (e *Errors) Varint(b []byte) (v int64, rest []byte, err error) {
	v, n := binary.Varint(b)
	if n == 0 {
		return 0, nil, e.Truncated
	}
	if n < 0 || (n > 1 && b[n-1] == 0) {
		return 0, nil, e.Corrupt
	}
	return v, b[n:], nil
}

// AppendString appends s as uvarint length + bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// String reads a length-prefixed string of at most max bytes. tok aliases b.
// The bound is checked before the bytes present, so a hostile prefix is
// Oversized however short the input.
func (e *Errors) String(b []byte, max uint64) (tok, rest []byte, err error) {
	n, rest, err := e.Uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > max {
		return nil, nil, e.Oversized
	}
	if n > uint64(len(rest)) {
		return nil, nil, e.Truncated
	}
	return rest[:n], rest[n:], nil
}

// AppendFrame appends payload as uvarint length | payload | CRC-32C LE.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
}

// NextFrame parses the frame at the head of b, whose payload may be at most
// max bytes, and returns the payload (aliasing b) and the n bytes the whole
// frame occupies. Truncated means b ends inside the frame — a torn write when
// b runs to the end of a log. An empty payload is Corrupt: no record is
// empty, and five zero bytes, which would otherwise check out, are what a
// zero-filled hole looks like.
func (e *Errors) NextFrame(b []byte, max uint64) (payload []byte, n int, err error) {
	l, rest, err := e.Uvarint(b)
	if err != nil {
		return nil, 0, err
	}
	if l == 0 {
		return nil, 0, e.Corrupt
	}
	if l > max {
		return nil, 0, e.Oversized
	}
	if uint64(len(rest)) < l || len(rest)-int(l) < crc32.Size {
		return nil, 0, e.Truncated
	}
	payload = rest[:l]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[l:]) {
		return nil, 0, e.Corrupt
	}
	return payload, len(b) - len(rest) + int(l) + crc32.Size, nil
}
