package report

import (
	"encoding/json"
	"fmt"
	"sync"

	"oak/internal/jsonscan"
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
// byte (the scanning primitives are internal/jsonscan's, shared with the
// state-file decoder in internal/core). An entry's keys are first tried as the literals `"url":`,
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

// fastDecoder is the report schema over the shared scanner, whose unescape
// scratch the pool keeps across decodes.
type fastDecoder struct {
	jsonscan.Scanner
}

// decodeFastInto scans data into r. false means "outside the fast-path
// subset": r may be partially overwritten and the caller must reset it and
// run the encoding/json fallback.
func decodeFastInto(data []byte, r *Report) bool {
	d := fastDecPool.Get().(*fastDecoder)
	d.Data, d.I = data, 0
	ok := d.decodeReport(r)
	d.Data = nil
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
	d.SkipWS()
	if !d.Consume('{') {
		return false
	}
	seen := 0
	d.SkipWS()
	if !d.Consume('}') {
		for {
			key, ok := d.ScanString()
			if !ok {
				return false
			}
			d.SkipWS()
			if !d.Consume(':') {
				return false
			}
			d.SkipWS()
			switch string(key) {
			case "userId":
				if seen&seenUserID != 0 {
					return false
				}
				seen |= seenUserID
				tok, ok := d.ScanString()
				if !ok {
					return false
				}
				r.UserID = string(tok)
			case "page":
				if seen&seenPage != 0 {
					return false
				}
				seen |= seenPage
				tok, ok := d.ScanString()
				if !ok {
					return false
				}
				r.Page = internString(tok)
			case "generatedAtUnixMs":
				if seen&seenGenerated != 0 {
					return false
				}
				seen |= seenGenerated
				v, ok := d.ScanInt64()
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
			d.SkipWS()
			if d.Consume(',') {
				d.SkipWS()
				continue
			}
			if d.Consume('}') {
				break
			}
			return false
		}
	}
	d.SkipWS()
	if d.I != len(d.Data) {
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
	if !d.Consume('[') {
		return false
	}
	// Reuse the backing array; decodeEntry overwrites every field.
	if r.Entries == nil {
		r.Entries = make([]Entry, 0, 4)
	} else {
		r.Entries = r.Entries[:0]
	}
	d.SkipWS()
	if d.Consume(']') {
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
		d.SkipWS()
		if d.Consume(',') {
			d.SkipWS()
			continue
		}
		if d.Consume(']') {
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
	rest := d.Data[d.I:]
	for f := next; f < numEntryFields; f++ {
		if lit := entryKeyLits[f]; len(rest) >= len(lit) && string(rest[:len(lit)]) == lit {
			d.I += len(lit)
			d.SkipWS()
			return f, true
		}
	}
	key, ok := d.ScanString()
	if !ok {
		return 0, false
	}
	d.SkipWS()
	if !d.Consume(':') {
		return 0, false
	}
	d.SkipWS()
	for f, lit := range entryKeyLits {
		if string(key) == lit[1:len(lit)-2] { // exact case only
			return f, true
		}
	}
	return 0, false
}

func (d *fastDecoder) decodeEntry(e *Entry) bool {
	if !d.Consume('{') {
		return false
	}
	// The entry may be a pooled report's stale one: a key the body does not
	// carry must read as in a decode into zero memory. The host is known
	// either way: internURL extracts it, and an absent URL has none.
	*e = Entry{hostKnown: true}
	seen := 0
	d.SkipWS()
	if !d.Consume('}') {
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
				e.SizeBytes, ok = d.ScanInt64()
			case fDuration:
				e.DurationMillis, ok = d.ScanFloat64()
			case fFailed:
				e.Failed, ok = d.ScanBool()
			default:
				var tok []byte
				if tok, ok = d.ScanString(); !ok {
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
			d.SkipWS()
			if d.Consume(',') {
				d.SkipWS()
				continue
			}
			if d.Consume('}') {
				break
			}
			return false
		}
	}
	return true
}
