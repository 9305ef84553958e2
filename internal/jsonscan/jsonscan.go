// Package jsonscan holds the JSON scanning primitives Oak's one hand-written
// JSON schema, the report, is read with (internal/report's decoder), as
// internal/wire holds the primitives of the binary dialects. A schema reader
// walks the bytes with these and never builds a token stream, a map or a
// reflect.Value.
//
// The promise, and to whom. The value scanners (ScanString, ScanInt64,
// ScanFloat64, ScanBool) answer true only for a token they read exactly as
// encoding/json would read it into a Go string, int64, float64 or bool, and
// false — "not proven", never "invalid" — for everything else: a surrogate
// escape, a byte that is not ASCII, a number near overflow, a literal that is
// not a number at all. A caller treats false as "hand the whole document to
// encoding/json", so encoding/json stays the reference for what is accepted
// and produces every error; the report schema's differential fuzzer
// (report:FuzzDecodeEquivalence) pins the two readings to each other, and
// FuzzScannersAgreeWithJSON here pins the bare primitives.
package jsonscan

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"unicode/utf8"
)

// Scanner is a cursor over one JSON document. Data and I are the caller's to
// set and read: a schema reader peeks at Data[I:] for its own literals and
// checks I == len(Data) for trailing bytes. The zero value is ready; reusing
// one Scanner across documents reuses its unescape scratch.
type Scanner struct {
	Data []byte
	I    int
	buf  []byte // unescape scratch, reused across strings and documents
}

// SkipWS advances past JSON whitespace.
func (d *Scanner) SkipWS() {
	for d.I < len(d.Data) {
		// One compare settles every byte a compact body has here.
		if c := d.Data[d.I]; c > ' ' || (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
			return
		}
		d.I++
	}
}

// Consume advances past c if it is the next byte.
func (d *Scanner) Consume(c byte) bool {
	if d.I < len(d.Data) && d.Data[d.I] == c {
		d.I++
		return true
	}
	return false
}

// ScanString scans a JSON string. The returned token aliases either the
// input or the scanner's scratch buffer — callers must consume it before the
// next scan. Non-ASCII bytes, control characters, surrogate escapes and
// invalid escapes all answer false.
func (d *Scanner) ScanString() ([]byte, bool) {
	if tok, ok := d.scanPlainString(); ok {
		return tok, true
	}
	return d.scanEscapedString()
}

// scanPlainString scans a JSON string that is its own content: from the
// opening quote to the next one with nothing in between that needs
// decoding or is not allowed. On false nothing was consumed.
func (d *Scanner) scanPlainString() ([]byte, bool) {
	if d.I >= len(d.Data) || d.Data[d.I] != '"' {
		return nil, false
	}
	start := d.I + 1
	n := bytes.IndexByte(d.Data[start:], '"')
	if n < 0 || !isPlain(d.Data[start:start+n]) {
		return nil, false
	}
	d.I = start + n + 1
	return d.Data[start : start+n], true
}

// isPlain reports whether b holds only bytes a JSON string may carry as they
// are and that mean themselves: ASCII, no control character, no backslash.
// Eight bytes at a time: in each byte of a word, bit 7 is set by the byte
// itself when it is not ASCII, by (w-0x20..)&^w when it is below 0x20, and by
// the same zero-byte test on w^0x5c.. when it is a backslash. (A borrow can
// set the bit for a byte above a true hit, never without one.)
func isPlain(b []byte) bool {
	const (
		lo01 = 0x0101010101010101
		hi80 = 0x8080808080808080
	)
	for len(b) >= 8 {
		w := binary.LittleEndian.Uint64(b)
		x := w ^ (lo01 * '\\')
		if (w|(w-lo01*0x20)&^w|(x-lo01)&^x)&hi80 != 0 {
			return false
		}
		b = b[8:]
	}
	for _, c := range b {
		if c == '\\' || c < 0x20 || c >= 0x80 {
			return false
		}
	}
	return true
}

// scanEscapedString is ScanString for a string that is not plain: the byte
// loop that decodes escapes into the scratch buffer.
func (d *Scanner) scanEscapedString() ([]byte, bool) {
	if d.I >= len(d.Data) || d.Data[d.I] != '"' {
		return nil, false
	}
	d.I++
	d.buf = d.buf[:0]
	for d.I < len(d.Data) {
		c := d.Data[d.I]
		switch {
		case c == '"':
			d.I++
			return d.buf, true
		case c == '\\':
			d.I++
			if d.I >= len(d.Data) {
				return nil, false
			}
			e := d.Data[d.I]
			d.I++
			switch e {
			case '"', '\\', '/':
				d.buf = append(d.buf, e)
			case 'b':
				d.buf = append(d.buf, '\b')
			case 'f':
				d.buf = append(d.buf, '\f')
			case 'n':
				d.buf = append(d.buf, '\n')
			case 'r':
				d.buf = append(d.buf, '\r')
			case 't':
				d.buf = append(d.buf, '\t')
			case 'u':
				if d.I+4 > len(d.Data) {
					return nil, false
				}
				v, ok := hex4(d.Data[d.I : d.I+4])
				if !ok {
					return nil, false
				}
				d.I += 4
				if v >= 0xD800 && v <= 0xDFFF {
					return nil, false // surrogate handling: slow path
				}
				d.buf = utf8.AppendRune(d.buf, rune(v))
			default:
				return nil, false
			}
		case c < 0x20 || c >= 0x80:
			return nil, false
		default:
			j := d.I + 1
			for j < len(d.Data) {
				if c = d.Data[j]; c == '"' || c == '\\' || c < 0x20 || c >= 0x80 {
					break
				}
				j++
			}
			d.buf = append(d.buf, d.Data[d.I:j]...)
			d.I = j
		}
	}
	return nil, false
}

func hex4(b []byte) (uint32, bool) {
	var v uint32
	for _, c := range b {
		v <<= 4
		switch {
		case c >= '0' && c <= '9':
			v |= uint32(c - '0')
		case c >= 'a' && c <= 'f':
			v |= uint32(c-'a') + 10
		case c >= 'A' && c <= 'F':
			v |= uint32(c-'A') + 10
		default:
			return 0, false
		}
	}
	return v, true
}

// ScanInt64 scans a JSON integer. Fractions, exponents, leading zeros and
// anything near overflow answer false.
func (d *Scanner) ScanInt64() (int64, bool) {
	neg := false
	if d.I < len(d.Data) && d.Data[d.I] == '-' {
		neg = true
		d.I++
	}
	start := d.I
	var m uint64
	for d.I < len(d.Data) {
		c := d.Data[d.I]
		if c < '0' || c > '9' {
			break
		}
		if m > (1<<63-10)/10 {
			return 0, false
		}
		m = m*10 + uint64(c-'0')
		d.I++
	}
	n := d.I - start
	if n == 0 || (n > 1 && d.Data[start] == '0') {
		return 0, false
	}
	if d.I < len(d.Data) {
		if c := d.Data[d.I]; c == '.' || c == 'e' || c == 'E' {
			return 0, false
		}
	}
	if neg {
		return -int64(m), true
	}
	return int64(m), true
}

// pow10 holds the exactly-representable powers of ten (10^0 .. 10^22).
var pow10 = [23]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// ScanFloat64 scans a JSON number. A mantissa below 2^53 with at most 22
// fractional digits and no exponent is float64(m)/10^frac, which is exactly
// strconv.ParseFloat's own fast path. Anything else that is a well-formed
// JSON number — the 16- and 17-digit doubles a browser's Resource Timing
// prints, an exponent — goes to strconv.ParseFloat itself, the call
// encoding/json makes, so results are bit-identical either way; what
// ParseFloat rejects (1e999) answers false, for encoding/json's error.
func (d *Scanner) ScanFloat64() (float64, bool) {
	tokStart := d.I
	neg := false
	if d.I < len(d.Data) && d.Data[d.I] == '-' {
		neg = true
		d.I++
	}
	// m wraps past 19 digits; it is only used when there are fewer.
	var m uint64
	start := d.I
	for d.I < len(d.Data) {
		c := d.Data[d.I] - '0'
		if c > 9 {
			break
		}
		m = m*10 + uint64(c)
		d.I++
	}
	digits := d.I - start
	if digits == 0 || (digits > 1 && d.Data[start] == '0') {
		return 0, false
	}
	frac := 0
	if d.I < len(d.Data) && d.Data[d.I] == '.' {
		d.I++
		start = d.I
		for d.I < len(d.Data) {
			c := d.Data[d.I] - '0'
			if c > 9 {
				break
			}
			m = m*10 + uint64(c)
			d.I++
		}
		if frac = d.I - start; frac == 0 {
			return 0, false
		}
		digits += frac
	}
	exp := d.I < len(d.Data) && (d.Data[d.I] == 'e' || d.Data[d.I] == 'E')
	if exp {
		d.I++
		if d.I < len(d.Data) && (d.Data[d.I] == '+' || d.Data[d.I] == '-') {
			d.I++
		}
		start = d.I
		for d.I < len(d.Data) && d.Data[d.I]-'0' <= 9 {
			d.I++
		}
		if d.I == start {
			return 0, false
		}
	}
	if exp || digits > 19 || m >= 1<<53 || frac > 22 {
		f, err := strconv.ParseFloat(string(d.Data[tokStart:d.I]), 64)
		return f, err == nil
	}
	f := float64(m)
	if frac > 0 {
		f /= pow10[frac]
	}
	if neg {
		f = -f
	}
	return f, true
}

// ScanBool scans true or false.
func (d *Scanner) ScanBool() (bool, bool) {
	if d.I+4 <= len(d.Data) && string(d.Data[d.I:d.I+4]) == "true" {
		d.I += 4
		return true, true
	}
	if d.I+5 <= len(d.Data) && string(d.Data[d.I:d.I+5]) == "false" {
		d.I += 5
		return false, true
	}
	return false, false
}
