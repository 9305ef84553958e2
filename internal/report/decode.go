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
// Four things keep the common report cheap. A string is delimited with
// bytes.IndexByte and proven plain (no escape, control or non-ASCII byte)
// eight bytes at a time; only a string that is not plain is walked byte by
// byte (the scanning primitives are internal/jsonscan's, shared with the
// gateway's userId sniff). An entry's keys are first tried as the literals
// `"url":`, `"serverAddr":`, ... at or after the one that matched last — the
// order every encoder of Entry emits them in — and only a key that is not
// where that order puts it is scanned as a string. Every string value but
// the userId comes out of the intern table (intern.go), so a report written
// in the site's usual vocabulary allocates almost nothing. And an entry that
// repeats, byte for byte, the last one recorded for its URL but for its
// durationMillis is decoded by two compares and one float parse: see
// continuation.

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
// scratch the pool keeps across decodes, with the marks of the entry being
// decoded and the scratch a continuation is assembled in.
type fastDecoder struct {
	jsonscan.Scanner
	m      entryMarks
	rec    []byte
	misses uint16 // entries of known URLs this decoder scanned
}

// decodeFastInto scans data into r. false means "outside the fast-path
// subset": r may be partially overwritten and the caller must reset it and
// run the encoding/json fallback.
func decodeFastInto(data []byte, r *Report) bool {
	d := fastDecPool.Get().(*fastDecoder)
	d.Data, d.I = data, 0
	ok := d.decodeReport(r)
	d.Data, d.m.known = nil, nil
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

// A continuation is what a URL's intern entry remembers of the last entry
// recorded after it, when the URL was that entry's first key: the raw bytes
// from the URL's closing quote to the durationMillis number (the head), the
// raw bytes from after the number through the entry's '}' (the tail), and
// what they decoded to. An entry whose head and tail both match is decoded
// by the two compares and a float parse; its sizeBytes, failed and strings
// are the recorded ones, the strings read out of the intern entry's own
// string. Any other entry is scanned from its URL on, and a scan of an entry
// whose URL the table already knew records its continuation. A URL met once
// costs nothing more than it did, and equal bytes in equal decoder state
// decode equally, so encoding/json stays the reference
// (FuzzDecodeEquivalence, with every continuation matching and with every
// one mismatching). Only an entry whose strings are plain is recorded — a
// recorded string's value is its bytes — and only when the URL, its built
// host and both runs fit in maxInternLen, so the table's bound holds.
type continuation struct {
	seen             uint8 // the entry's keys
	head             span  // in the entry's s; the tail is the rest of s
	addr, init, kind span
	failed           bool
}

// replaceEvery is how many mismatched continuations a decoder meets per one
// it replaces.
const replaceEvery = 1024

// entryMarks locate, in the body, what a continuation is recorded from: the
// URL's intern entry, set only while the entry is to be recorded, the two
// runs and the string values.
type entryMarks struct {
	known                    *internEntry
	urlEnd, numStart, numEnd int
	str                      [numEntryFields]struct{ off, len int }
	plain                    bool
}

func (d *fastDecoder) decodeEntry(e *Entry) bool {
	if !d.Consume('{') {
		return false
	}
	// The entry may be a pooled report's stale one: a key the body does not
	// carry must read as in a decode into zero memory. The host is known
	// either way: internURL extracts it, and an absent URL has none.
	*e = Entry{hostKnown: true}
	d.m.known = nil
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
				start := d.I
				e.DurationMillis, ok = d.ScanFloat64()
				if d.m.known != nil {
					d.m.numStart, d.m.numEnd = start, d.I
				}
			case fFailed:
				e.Failed, ok = d.ScanBool()
			default:
				start := d.I + 1
				var tok []byte
				if tok, ok = d.ScanString(); !ok {
					break
				}
				if field == fURL {
					var known *internEntry
					e.URL, e.host, known = internURL(tok)
					if known == nil || seen != 1<<fURL {
						break
					}
					// The URL is the first key and the table knew it: its
					// continuation decodes the entry if both runs match. A
					// head that mismatches costs the compare and no call.
					if c := &known.cont; c.seen != 0 && d.hasPrefix(c.head.of(known.s)) && d.continues(e, known) {
						return true
					}
					// Replacing a continuation costs two allocations: a URL
					// whose entries changed for good learns the new ones
					// within about replaceEvery mismatches, and one whose
					// entries never repeat does not pay that on every report.
					if d.misses++; known.cont.seen == 0 || d.misses%replaceEvery == 0 {
						d.m.known, d.m.urlEnd, d.m.plain = known, d.I, true
					}
					break
				}
				if m := &d.m; m.known != nil {
					m.str[field].off, m.str[field].len = start, len(tok)
					m.plain = m.plain && d.I-1-start == len(tok) // an escape makes the bytes longer
				}
				switch field {
				case fServerAddr:
					e.ServerAddr = internString(tok)
				case fInitiator:
					e.InitiatorURL = internString(tok)
				case fKind:
					e.Kind = internKind(tok)
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
	if d.m.known != nil {
		d.remember(e, seen)
	}
	return true
}

// continues decodes the rest of an entry whose head matched known's
// continuation, d.I at the head: the number, then the tail, which must match
// too. false leaves d.I where it was.
func (d *fastDecoder) continues(e *Entry, known *internEntry) bool {
	c, start := &known.cont, d.I
	d.I += int(c.head.len)
	dur, ok := d.ScanFloat64()
	if tail := known.s[c.head.end():]; ok && d.hasPrefix(tail) {
		d.I += len(tail)
		e.DurationMillis, e.SizeBytes, e.Failed = dur, known.size, c.failed
		e.ServerAddr, e.InitiatorURL = c.addr.of(known.s), c.init.of(known.s)
		e.Kind = ObjectKind(c.kind.of(known.s))
		return true
	}
	d.I = start
	return false
}

// hasPrefix reports whether the body at d.I starts with run.
func (d *fastDecoder) hasPrefix(run string) bool {
	rest := d.Data[d.I:]
	return len(rest) >= len(run) && string(rest[:len(run)]) == run
}

// remember publishes the entry just decoded, d.I past its '}', as its URL's
// continuation: a copy of the URL's intern entry with the new runs in its
// string, replacing it in its way.
func (d *fastDecoder) remember(e *Entry, seen int) {
	m, known := &d.m, d.m.known
	if seen&(1<<fDuration) == 0 || !m.plain {
		return
	}
	head, tail := d.Data[m.urlEnd:m.numStart], d.Data[m.numEnd:d.I]
	pre := known.prefix()
	if pre+len(head)+len(tail) > maxInternLen {
		return
	}
	// at is where a value's body bytes sit in the new string.
	at := func(field int) span {
		if seen&(1<<field) == 0 {
			return span{}
		}
		off := pre + m.str[field].off - m.urlEnd
		if m.str[field].off >= m.numEnd {
			off = pre + len(head) + m.str[field].off - m.numEnd
		}
		return span{uint8(off), uint8(m.str[field].len)}
	}
	d.rec = append(append(append(d.rec[:0], known.s[:pre]...), head...), tail...)
	known.replace(&internEntry{
		hash: known.hash, s: string(d.rec), size: e.SizeBytes,
		n: known.n, host: known.host, hostKnown: true,
		cont: continuation{
			seen: uint8(seen),
			head: span{uint8(pre), uint8(len(head))},
			addr: at(fServerAddr), init: at(fInitiator), kind: at(fKind),
			failed: e.Failed,
		},
	})
}
