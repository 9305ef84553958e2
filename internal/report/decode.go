package report

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The JSON fast path. Reports have a fixed, tiny schema, yet encoding/json
// pays for full generality: reflection, field matching, interface boxing.
// decodeFastInto scans the byte slice directly into a *Report — no token
// stream, no intermediate maps — and bails out to encoding/json on ANY
// construct it cannot prove it handles identically: unknown or duplicate
// keys, case-insensitive key matches, null, non-ASCII string bytes,
// surrogate escapes, numbers strconv.ParseFloat rejects, integer overflow,
// trailing garbage. The fallback, not the fast path, produces every error,
// so error text and acceptance are encoding/json's own.
// FuzzDecodeEquivalence pins the two paths to byte-identical results.
//
// Three things keep the common report cheap. A string is delimited with
// bytes.IndexByte and proven plain (no escape, control or non-ASCII byte)
// eight bytes at a time; only a string that is not plain is walked byte by
// byte. An entry's keys are first tried as the literals `"url":`,
// `"serverAddr":`, ... at or after the one that matched last — the order
// every encoder of Entry emits them in — and only a key that is not where
// that order puts it is scanned as a string. And every string value but the
// userId comes out of the intern table (intern.go), so a report written in
// the site's usual vocabulary allocates almost nothing.

// Decode parses a JSON report body, trying the fast path first. It is a
// drop-in replacement for Unmarshal (identical results and errors).
func Decode(data []byte) (*Report, error) {
	r := &Report{}
	if decodeFastInto(data, r) {
		return r, nil
	}
	*r = Report{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("report: decode: %w", err)
	}
	return r, nil
}

// DecodePooled is Decode into a pooled report. On success the caller owns
// the report and must arrange exactly one Release (submitting to the engine
// transfers that obligation); on error nothing is retained.
func DecodePooled(data []byte) (*Report, error) {
	r := acquireReport()
	if decodeFastInto(data, r) {
		return r, nil
	}
	*r = Report{pooled: true}
	if err := json.Unmarshal(data, r); err != nil {
		r.Release()
		return nil, fmt.Errorf("report: decode: %w", err)
	}
	return r, nil
}

var fastDecPool = sync.Pool{New: func() any { return new(fastDecoder) }}

type fastDecoder struct {
	data []byte
	i    int
	buf  []byte // unescape scratch, reused across strings and decodes
}

// decodeFastInto scans data into r. false means "outside the fast-path
// subset": r may be partially overwritten and the caller must reset it and
// run the encoding/json fallback.
func decodeFastInto(data []byte, r *Report) bool {
	d := fastDecPool.Get().(*fastDecoder)
	d.data, d.i = data, 0
	ok := d.decodeReport(r)
	d.data = nil
	fastDecPool.Put(d)
	return ok
}

// Seen-field masks: duplicates punt to the fallback, unseen fields are
// zeroed afterwards so a decode into a pooled report's stale contents
// matches a decode into zero memory.
const (
	seenUserID = 1 << iota
	seenPage
	seenGenerated
	seenEntries
)

func (d *fastDecoder) decodeReport(r *Report) bool {
	d.skipWS()
	if !d.consume('{') {
		return false
	}
	seen := 0
	d.skipWS()
	if !d.consume('}') {
		for {
			key, ok := d.scanString()
			if !ok {
				return false
			}
			d.skipWS()
			if !d.consume(':') {
				return false
			}
			d.skipWS()
			switch string(key) {
			case "userId":
				if seen&seenUserID != 0 {
					return false
				}
				seen |= seenUserID
				tok, ok := d.scanString()
				if !ok {
					return false
				}
				r.UserID = string(tok)
			case "page":
				if seen&seenPage != 0 {
					return false
				}
				seen |= seenPage
				tok, ok := d.scanString()
				if !ok {
					return false
				}
				r.Page = internString(tok)
			case "generatedAtUnixMs":
				if seen&seenGenerated != 0 {
					return false
				}
				seen |= seenGenerated
				v, ok := d.scanInt64()
				if !ok {
					return false
				}
				r.GeneratedAtUnixMs = v
			case "entries":
				if seen&seenEntries != 0 {
					return false
				}
				seen |= seenEntries
				if !d.decodeEntries(r) {
					return false
				}
			default:
				return false
			}
			d.skipWS()
			if d.consume(',') {
				d.skipWS()
				continue
			}
			if d.consume('}') {
				break
			}
			return false
		}
	}
	d.skipWS()
	if d.i != len(d.data) {
		return false
	}
	if seen&seenUserID == 0 {
		r.UserID = ""
	}
	if seen&seenPage == 0 {
		r.Page = ""
	}
	if seen&seenGenerated == 0 {
		r.GeneratedAtUnixMs = 0
	}
	if seen&seenEntries == 0 {
		r.Entries = nil
	}
	return true
}

func (d *fastDecoder) decodeEntries(r *Report) bool {
	if !d.consume('[') {
		return false
	}
	// Reuse the backing array; decodeEntry overwrites every field.
	if r.Entries == nil {
		r.Entries = make([]Entry, 0, 4)
	} else {
		r.Entries = r.Entries[:0]
	}
	d.skipWS()
	if d.consume(']') {
		return true
	}
	for {
		n := len(r.Entries)
		if n < cap(r.Entries) {
			r.Entries = r.Entries[:n+1]
		} else {
			r.Entries = append(r.Entries, Entry{})
		}
		if !d.decodeEntry(&r.Entries[n]) {
			return false
		}
		d.skipWS()
		if d.consume(',') {
			d.skipWS()
			continue
		}
		if d.consume(']') {
			return true
		}
		return false
	}
}

// Entry's fields in struct order, which is the order encoding/json, the oak
// client and every other encoder of Entry writes them in.
const (
	fURL = iota
	fServerAddr
	fSize
	fDuration
	fInitiator
	fKind
	fFailed
	numEntryFields
)

// entryKeyLits are Entry's keys as a compact encoder spells them, colon
// included.
var entryKeyLits = [numEntryFields]string{
	`"url":`, `"serverAddr":`, `"sizeBytes":`, `"durationMillis":`, `"initiatorUrl":`, `"kind":`, `"failed":`,
}

// nextEntryKey consumes an entry key, its colon and the whitespace around
// them, and returns the field the key names. next is the field after the
// one the previous key named: the literals from there on are tried first.
func (d *fastDecoder) nextEntryKey(next int) (field int, ok bool) {
	rest := d.data[d.i:]
	for f := next; f < numEntryFields; f++ {
		if lit := entryKeyLits[f]; len(rest) >= len(lit) && string(rest[:len(lit)]) == lit {
			d.i += len(lit)
			d.skipWS()
			return f, true
		}
	}
	key, ok := d.scanString()
	if !ok {
		return 0, false
	}
	d.skipWS()
	if !d.consume(':') {
		return 0, false
	}
	d.skipWS()
	for f, lit := range entryKeyLits {
		if string(key) == lit[1:len(lit)-2] { // exact case only
			return f, true
		}
	}
	return 0, false
}

func (d *fastDecoder) decodeEntry(e *Entry) bool {
	if !d.consume('{') {
		return false
	}
	// The entry may be a pooled report's stale one: a key the body does not
	// carry must read as in a decode into zero memory. The host is known
	// either way: internURL extracts it, and an absent URL has none.
	*e = Entry{hostKnown: true}
	seen := 0
	d.skipWS()
	if !d.consume('}') {
		next := 0
		for {
			field, ok := d.nextEntryKey(next)
			if !ok || seen&(1<<field) != 0 {
				return false // unknown or duplicate key: encoding/json decides
			}
			seen |= 1 << field
			next = field + 1
			switch field {
			case fSize:
				e.SizeBytes, ok = d.scanInt64()
			case fDuration:
				e.DurationMillis, ok = d.scanFloat64()
			case fFailed:
				e.Failed, ok = d.scanBool()
			default:
				var tok []byte
				if tok, ok = d.scanString(); !ok {
					break
				}
				switch field {
				case fURL:
					e.URL, e.host = internURL(tok)
				case fServerAddr:
					e.ServerAddr = internString(tok)
				case fInitiator:
					e.InitiatorURL = internString(tok)
				case fKind:
					e.Kind = ObjectKind(internString(tok))
				}
			}
			if !ok {
				return false
			}
			d.skipWS()
			if d.consume(',') {
				d.skipWS()
				continue
			}
			if d.consume('}') {
				break
			}
			return false
		}
	}
	return true
}

func (d *fastDecoder) skipWS() {
	for d.i < len(d.data) {
		// One compare settles every byte a compact body has here.
		if c := d.data[d.i]; c > ' ' || (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
			return
		}
		d.i++
	}
}

func (d *fastDecoder) consume(c byte) bool {
	if d.i < len(d.data) && d.data[d.i] == c {
		d.i++
		return true
	}
	return false
}

// scanString scans a JSON string. The returned token aliases either the
// input or the decoder's scratch buffer — callers must consume it before the
// next scan. Non-ASCII bytes, control characters, surrogate escapes and
// invalid escapes all punt to the fallback.
func (d *fastDecoder) scanString() ([]byte, bool) {
	if tok, ok := d.scanPlainString(); ok {
		return tok, true
	}
	return d.scanEscapedString()
}

// scanPlainString scans a JSON string that is its own content: from the
// opening quote to the next one with nothing in between that needs
// decoding or is not allowed. On false nothing was consumed.
func (d *fastDecoder) scanPlainString() ([]byte, bool) {
	if d.i >= len(d.data) || d.data[d.i] != '"' {
		return nil, false
	}
	start := d.i + 1
	n := bytes.IndexByte(d.data[start:], '"')
	if n < 0 || !isPlain(d.data[start:start+n]) {
		return nil, false
	}
	d.i = start + n + 1
	return d.data[start : start+n], true
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

// scanEscapedString is scanString for a string that is not plain: the byte
// loop that decodes escapes into the scratch buffer.
func (d *fastDecoder) scanEscapedString() ([]byte, bool) {
	if d.i >= len(d.data) || d.data[d.i] != '"' {
		return nil, false
	}
	d.i++
	d.buf = d.buf[:0]
	for d.i < len(d.data) {
		c := d.data[d.i]
		switch {
		case c == '"':
			d.i++
			return d.buf, true
		case c == '\\':
			d.i++
			if d.i >= len(d.data) {
				return nil, false
			}
			e := d.data[d.i]
			d.i++
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
				if d.i+4 > len(d.data) {
					return nil, false
				}
				v, ok := hex4(d.data[d.i : d.i+4])
				if !ok {
					return nil, false
				}
				d.i += 4
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
			j := d.i + 1
			for j < len(d.data) {
				if c = d.data[j]; c == '"' || c == '\\' || c < 0x20 || c >= 0x80 {
					break
				}
				j++
			}
			d.buf = append(d.buf, d.data[d.i:j]...)
			d.i = j
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

// scanInt64 scans a JSON integer. Fractions, exponents, leading zeros and
// anything near overflow punt to the fallback.
func (d *fastDecoder) scanInt64() (int64, bool) {
	neg := false
	if d.i < len(d.data) && d.data[d.i] == '-' {
		neg = true
		d.i++
	}
	start := d.i
	var m uint64
	for d.i < len(d.data) {
		c := d.data[d.i]
		if c < '0' || c > '9' {
			break
		}
		if m > (1<<63-10)/10 {
			return 0, false
		}
		m = m*10 + uint64(c-'0')
		d.i++
	}
	n := d.i - start
	if n == 0 || (n > 1 && d.data[start] == '0') {
		return 0, false
	}
	if d.i < len(d.data) {
		if c := d.data[d.i]; c == '.' || c == 'e' || c == 'E' {
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

// scanFloat64 scans a JSON number. A mantissa below 2^53 with at most 22
// fractional digits and no exponent is float64(m)/10^frac, which is exactly
// strconv.ParseFloat's own fast path. Anything else that is a well-formed
// JSON number — the 16- and 17-digit doubles a browser's Resource Timing
// prints, an exponent — goes to strconv.ParseFloat itself, the call
// encoding/json makes, so results are bit-identical either way; what
// ParseFloat rejects (1e999) punts to the fallback for its error.
func (d *fastDecoder) scanFloat64() (float64, bool) {
	tokStart := d.i
	neg := false
	if d.i < len(d.data) && d.data[d.i] == '-' {
		neg = true
		d.i++
	}
	// m wraps past 19 digits; it is only used when there are fewer.
	var m uint64
	start := d.i
	for d.i < len(d.data) {
		c := d.data[d.i] - '0'
		if c > 9 {
			break
		}
		m = m*10 + uint64(c)
		d.i++
	}
	digits := d.i - start
	if digits == 0 || (digits > 1 && d.data[start] == '0') {
		return 0, false
	}
	frac := 0
	if d.i < len(d.data) && d.data[d.i] == '.' {
		d.i++
		start = d.i
		for d.i < len(d.data) {
			c := d.data[d.i] - '0'
			if c > 9 {
				break
			}
			m = m*10 + uint64(c)
			d.i++
		}
		if frac = d.i - start; frac == 0 {
			return 0, false
		}
		digits += frac
	}
	exp := d.i < len(d.data) && (d.data[d.i] == 'e' || d.data[d.i] == 'E')
	if exp {
		d.i++
		if d.i < len(d.data) && (d.data[d.i] == '+' || d.data[d.i] == '-') {
			d.i++
		}
		start = d.i
		for d.i < len(d.data) && d.data[d.i]-'0' <= 9 {
			d.i++
		}
		if d.i == start {
			return 0, false
		}
	}
	if exp || digits > 19 || m >= 1<<53 || frac > 22 {
		f, err := strconv.ParseFloat(string(d.data[tokStart:d.i]), 64)
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

func (d *fastDecoder) scanBool() (bool, bool) {
	if d.i+4 <= len(d.data) && string(d.data[d.i:d.i+4]) == "true" {
		d.i += 4
		return true, true
	}
	if d.i+5 <= len(d.data) && string(d.data[d.i:d.i+5]) == "false" {
		d.i += 5
		return false, true
	}
	return false, false
}
