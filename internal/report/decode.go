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
// Five things keep the common report cheap. A string is delimited with
// bytes.IndexByte and proven plain (no escape, control or non-ASCII byte)
// eight bytes at a time; only a string that is not plain is walked byte by
// byte (the scanning primitives are internal/jsonscan's). An entry's keys are
// first tried as the literals `"url":`, `"serverAddr":`, ... at or after the
// one that matched last — the order every encoder of Entry emits them in —
// and only a key that is not where that order puts it is scanned as a
// string. Every string value but the userId comes out of the intern table
// (intern.go), so a report written in the site's usual vocabulary allocates
// almost nothing. An entry that
// repeats, byte for byte, the last one recorded for its URL but for its
// durationMillis is decoded by two compares and one float parse: see
// continuation. And a report whose page names its entries' URLs in the order
// the page's last recorded report did finds each URL by one compare against
// that report's, not by a scan, a hash and a probe: see template.go.

// Decode parses a JSON report body, trying the fast path first. Its results
// and errors are encoding/json's own: json.Unmarshal into a Report, an error
// wrapped as "report: decode: ...".
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
// decoded, the scratch a continuation is assembled in, and the report's
// entries followed against its page's template.
type fastDecoder struct {
	jsonscan.Scanner
	m      entryMarks
	rec    []byte
	misses uint16 // entries of known URLs this decoder scanned
	tm     templateMarks
}

// decodeFastInto scans data into r. false means "outside the fast-path
// subset": r may be partially overwritten and the caller must reset it and
// run the encoding/json fallback.
func decodeFastInto(data []byte, r *Report) bool {
	d := fastDecPool.Get().(*fastDecoder)
	d.Data, d.I = data, 0
	ok := d.decodeReport(r)
	d.Data, d.m.known = nil, nil
	d.tm.reset()
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
				// A page met for the first time has no template, and
				// records none: a report under a page name never sent
				// again costs what it did before templates.
				tm, met := &d.tm, false
				if r.Page, tm.h, met = internToken(tok); met && seen&seenEntries == 0 {
					tm.page = r.Page
					tm.b, tm.t = findTemplate(r.Page, tm.h)
				}
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
	// A report its page's template did not cover is a candidate to record
	// one: the first of every templateEvery candidates does, if fit.
	if tm := &d.tm; tm.b != nil && tm.hits < min(len(r.Entries), maxTemplateLen) {
		if tm.fit {
			tm.b.publish(tm.h, tm.page, tm.urls)
		}
		tm.cands++
	}
	return true
}

// templateMarks follow a report's entries against its page's template and
// collect the URL intern entries a new one would hold.
type templateMarks struct {
	b    *templateBucket // the page's bucket: set when "page" came before "entries" and was met before
	h    uint64
	page string
	t    *template // the page's template, until an entry mismatches it
	hits int       // entries decoded from t
	// urls are the entries' URL intern entries, the first maxTemplateLen,
	// collected while fit: while the report could record a template and
	// every entry so far could be a template's (decodeEntry). An entry
	// decoded from t is added only when t is dropped.
	urls  []*internEntry
	fit   bool
	cands uint16 // reports this decoder met that could record a template
}

// reset drops what the marks hold of the last report, so a pooled decoder
// keeps no intern entry alive.
func (tm *templateMarks) reset() {
	clear(tm.urls)
	tm.urls = tm.urls[:0]
	tm.b, tm.t, tm.page, tm.fit = nil, nil, "", false
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
	tm := &d.tm
	tm.fit, tm.hits = tm.b != nil && tm.cands%templateEvery == 0, 0
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
		e := &r.Entries[n]
		if tm.t != nil && !d.fromTemplate(e, n) {
			if tm.fit {
				tm.urls = append(tm.urls, tm.t.urls[:n]...)
			}
			tm.t = nil
		}
		if tm.t != nil {
			tm.hits++
		} else if known, ok := d.decodeEntry(e); !ok {
			return false
		} else if tm.fit && n < maxTemplateLen {
			if tm.fit = known != nil; tm.fit {
				tm.urls = append(tm.urls, known)
			}
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
	exact                    bool // the entry starts as a template entry is matched
}

// decodeEntry decodes one entry. tpl is the URL's intern entry when a
// template can hold it for this entry: the entry starts with urlLit, its URL
// and the closing quote, and the continuation tpl holds is one the entry
// matched or recorded. It is nil otherwise.
func (d *fastDecoder) decodeEntry(e *Entry) (tpl *internEntry, ok bool) {
	begin := d.I
	if !d.Consume('{') {
		return nil, false
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
				return nil, false // unknown or duplicate key: encoding/json decides
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
					// exact: the entry starts as fromTemplate matches one.
					exact := start-begin == len(urlLit) && d.I-1-start == len(tok)
					if c := &known.cont; c.seen != 0 && d.hasPrefix(c.head.of(known.s)) && d.continues(e, known) {
						if exact {
							return known, true
						}
						return nil, true
					}
					// Replacing a continuation costs two allocations: a URL
					// whose entries changed for good learns the new ones
					// within about replaceEvery mismatches, and one whose
					// entries never repeat does not pay that on every report.
					if d.misses++; known.cont.seen == 0 || d.misses%replaceEvery == 0 {
						d.m.known, d.m.urlEnd, d.m.plain, d.m.exact = known, d.I, true, exact
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
				return nil, false
			}
			d.SkipWS()
			if d.Consume(',') {
				d.SkipWS()
				continue
			}
			if d.Consume('}') {
				break
			}
			return nil, false
		}
	}
	if d.m.known != nil {
		if ne := d.remember(e, seen); d.m.exact {
			return ne, true
		}
	}
	return nil, true
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
// string, replacing it in its way. It returns the copy, nil when the entry
// cannot be recorded.
func (d *fastDecoder) remember(e *Entry, seen int) *internEntry {
	m, known := &d.m, d.m.known
	if seen&(1<<fDuration) == 0 || !m.plain {
		return nil
	}
	head, tail := d.Data[m.urlEnd:m.numStart], d.Data[m.numEnd:d.I]
	pre := known.prefix()
	if pre+len(head)+len(tail) > maxInternLen {
		return nil
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
	ne := &internEntry{
		hash: known.hash, s: string(d.rec), size: e.SizeBytes,
		n: known.n, host: known.host, hostKnown: true,
		cont: continuation{
			seen: uint8(seen),
			head: span{uint8(pre), uint8(len(head))},
			addr: at(fServerAddr), init: at(fInitiator), kind: at(fKind),
			failed: e.Failed,
		},
	}
	known.replace(ne)
	return ne
}

// urlLit is how an entry a template can match starts, before its URL.
const urlLit = `{"url":"`

// fromTemplate decodes entry i from the page's template when the body at d.I
// is urlLit, the template's i-th URL and its closing quote, and then that
// URL's continuation: three compares and the float parse. false leaves d.I
// where it was.
func (d *fastDecoder) fromTemplate(e *Entry, i int) bool {
	t := d.tm.t
	if i >= len(t.urls) {
		return false
	}
	known, start := t.urls[i], d.I
	url, rest := known.token(), d.Data[start:]
	n := len(urlLit) + len(url)
	if len(rest) <= n || rest[n] != '"' || string(rest[len(urlLit):n]) != url || string(rest[:len(urlLit)]) != urlLit {
		return false
	}
	d.I += n + 1
	if !d.hasPrefix(known.cont.head.of(known.s)) || !d.continues(e, known) {
		d.I = start
		return false
	}
	e.URL, e.host, e.hostKnown = url, known.hostname(), true
	return true
}
