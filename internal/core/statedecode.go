package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"oak/internal/jsonscan"
)

// The state payload's fast reader: the persistedProfile / persistedActivation
// schema over internal/jsonscan, as internal/report's decoder is the report
// schema over it. decodeState (persist.go) states the contract; this file is
// the subset. Every `return d.punt(...)` is one construct the reader does not
// prove it reads as encoding/json would, and names it.

// stateReader is one decode's cursor and the first reason it punted.
type stateReader struct {
	jsonscan.Scanner
	why string
	// names shares one string among equal server names and rule IDs: a
	// population reports the same few providers, and the profiles built from
	// the payload keep these strings for the life of the process.
	names map[string]string
}

// decodeStateFast decodes a state payload the engine's own writers could have
// produced. A nil state means "not proven": why names the first construct the
// reader met outside its subset, and the caller runs encoding/json over the
// whole payload.
func decodeStateFast(payload []byte) (st *persistedState, why string) {
	d := stateReader{Scanner: jsonscan.Scanner{Data: payload}, names: make(map[string]string)}
	profiles, start, end, ok := d.walkPayload()
	if !ok {
		return nil, d.why
	}
	// Everything but the array is encoding/json's: the same bytes with the
	// array's span read as null, which leaves Profiles alone.
	envelope := make([]byte, 0, len(payload)-(end-start)+len("null"))
	envelope = append(envelope, payload[:start]...)
	envelope = append(envelope, "null"...)
	envelope = append(envelope, payload[end:]...)
	st = &persistedState{}
	if err := json.Unmarshal(envelope, st); err != nil {
		return nil, "malformed outside the profiles array"
	}
	st.Profiles = profiles
	return st, ""
}

func (d *stateReader) punt(at int, format string, args ...any) bool {
	if d.why == "" {
		d.why = fmt.Sprintf("%s at offset %d", fmt.Sprintf(format, args...), at)
	}
	return false
}

// puntKey punts on the member key at at: one that is not spelled exactly as
// the writer spells it (unknown, case-variant, escaped — encoding/json folds
// and unescapes keys before matching), or no key at all.
func (d *stateReader) puntKey(at int) bool {
	if s := (jsonscan.Scanner{Data: d.Data, I: at}); at < len(d.Data) && d.Data[at] == '"' && s.SkipString() {
		raw := d.Data[at:s.I]
		if len(raw) > 40 {
			raw = append(append([]byte(nil), raw[:40]...), "…"...)
		}
		return d.punt(at, "non-canonical key %s", raw)
	}
	return d.punt(at, "malformed object")
}

// puntValue punts on the value at at, which the scanner for name's type did
// not accept.
func (d *stateReader) puntValue(at int, name string) bool {
	if bytes.HasPrefix(d.Data[at:], []byte("null")) {
		return d.punt(at, "null %q", name)
	}
	return d.punt(at, "%q value outside the fast subset", name)
}

// open consumes the bracket that opens what and the whitespace after it.
func (d *stateReader) open(c byte, what string) bool {
	if !d.Consume(c) {
		return d.puntValue(d.I, what)
	}
	d.SkipWS()
	return true
}

// member scans the next member's key, its colon and the whitespace around
// them, up to the value, and returns the key's index in keys. The key must be
// one of keys as the writer spells it, and not one this object had before:
// seen is the object's set of them.
func (d *stateReader) member(keys []string, seen *int) (int, bool) {
	at := d.I
	key, ok := d.ScanPlainString()
	if !ok {
		return 0, d.puntKey(at)
	}
	for i, k := range keys {
		if string(key) != k {
			continue
		}
		if *seen&(1<<i) != 0 {
			return 0, d.punt(at, "duplicate key %q", key)
		}
		*seen |= 1 << i
		return i, d.colon()
	}
	return 0, d.puntKey(at)
}

func (d *stateReader) colon() bool {
	d.SkipWS()
	if !d.Consume(':') {
		return d.punt(d.I, "malformed object")
	}
	d.SkipWS()
	return true
}

// next is called after a member or an element: more is true past a comma,
// false past closer.
func (d *stateReader) next(closer byte) (more, ok bool) {
	d.SkipWS()
	if d.Consume(',') {
		d.SkipWS()
		return true, true
	}
	if d.Consume(closer) {
		return false, true
	}
	return false, d.punt(d.I, "malformed JSON")
}

// The keys of the three objects the reader knows, as their writer spells them
// (the json tags of persistedState, persistedProfile, persistedActivation).
var (
	payloadKeys    = []string{"version", "savedAt", "range", "profiles", "guard", "population"}
	profileKeys    = []string{"userId", "violations", "active", "lastReport", "version"}
	activationKeys = []string{"ruleId", "altIndex", "activatedAt", "expiresAt", "triggerServer", "triggerDistance", "activations", "synthesized"}
)

// walkPayload walks the payload's top-level object: it decodes the profiles
// array, whose span is [start, end), and steps over the other sections, which
// decodeStateFast leaves to encoding/json — so SkipValue's "exact on
// well-formed JSON" suffices for them.
func (d *stateReader) walkPayload() (profiles []persistedProfile, start, end int, ok bool) {
	d.SkipWS()
	if !d.open('{', "payload") {
		return nil, 0, 0, false
	}
	seen := 0
	for more := !d.Consume('}'); more; {
		f, ok := d.member(payloadKeys, &seen)
		if !ok {
			return nil, 0, 0, false
		}
		if payloadKeys[f] == "profiles" {
			start = d.I
			// The one null the reader takes: an engine with no user in the
			// exported arc writes a nil slice so, and reads it back as one.
			if bytes.HasPrefix(d.Data[d.I:], []byte("null")) {
				d.I += len("null")
			} else if profiles, ok = d.decodeProfiles(); !ok {
				return nil, 0, 0, false
			}
			end = d.I
		} else if !d.SkipValue() {
			return nil, 0, 0, d.punt(d.I, "malformed JSON")
		}
		if more, ok = d.next('}'); !ok {
			return nil, 0, 0, false
		}
	}
	d.SkipWS()
	if d.I != len(d.Data) {
		return nil, 0, 0, d.punt(d.I, "trailing bytes")
	}
	if end == 0 { // set past the array's value, so never 0 once the key came
		return nil, 0, 0, d.punt(d.I, "no profiles array")
	}
	return profiles, start, end, true
}

func (d *stateReader) decodeProfiles() ([]persistedProfile, bool) {
	if !d.open('[', "profiles") {
		return nil, false
	}
	// Profiles are much of a size: the first few say how many to expect, so
	// the slice is sized once and not grown and copied a dozen times.
	const sample = 16
	first := d.I
	profiles := make([]persistedProfile, 0, sample) // "profiles": [] is empty, not nil
	for more := !d.Consume(']'); more; {
		if len(profiles) == sample && cap(profiles) == sample {
			expect := sample * (len(d.Data) - first) / (d.I - first)
			profiles = append(make([]persistedProfile, 0, expect+expect/8), profiles...)
		}
		profiles = append(profiles, persistedProfile{})
		ok := d.decodeProfile(&profiles[len(profiles)-1])
		if !ok {
			return nil, false
		}
		if more, ok = d.next(']'); !ok {
			return nil, false
		}
	}
	return profiles, true
}

// decodeProfile fills a zero *pp, so a key the object does not carry reads as
// it does after json.Unmarshal.
func (d *stateReader) decodeProfile(pp *persistedProfile) bool {
	if !d.open('{', "profile") {
		return false
	}
	seen := 0
	for more := !d.Consume('}'); more; {
		f, ok := d.member(profileKeys, &seen)
		if !ok {
			return false
		}
		switch profileKeys[f] {
		case "userId":
			var tok []byte
			if tok, ok = d.stringValue("userId"); ok {
				pp.UserID = string(tok)
			}
		case "violations":
			ok = d.decodeViolations(pp)
		case "active":
			ok = d.decodeActive(pp)
		case "lastReport":
			ok = d.timeValue("lastReport", &pp.LastReport)
		case "version":
			pp.Version, ok = d.uint64Value("version")
		}
		if !ok {
			return false
		}
		if more, ok = d.next('}'); !ok {
			return false
		}
	}
	return true
}

func (d *stateReader) decodeViolations(pp *persistedProfile) bool {
	if !d.open('{', "violations") {
		return false
	}
	pp.Violations = make(map[string]int) // "violations": {} is empty, not nil
	for more := !d.Consume('}'); more; {
		// Any string is a server here, and a repeated one overwrites, as in
		// encoding/json's map: there is no key to be non-canonical.
		at := d.I
		tok, ok := d.ScanUTF8String()
		if !ok {
			return d.puntKey(at)
		}
		srv := d.name(tok)
		if !d.colon() {
			return false
		}
		n, ok := d.intValue("violations")
		if !ok {
			return false
		}
		pp.Violations[srv] = n
		if more, ok = d.next('}'); !ok {
			return false
		}
	}
	return true
}

func (d *stateReader) decodeActive(pp *persistedProfile) bool {
	if !d.open('[', "active") {
		return false
	}
	pp.Active = []persistedActivation{} // "active": [] is empty, not nil
	for more := !d.Consume(']'); more; {
		pp.Active = append(pp.Active, persistedActivation{})
		ok := d.decodeActivation(&pp.Active[len(pp.Active)-1])
		if !ok {
			return false
		}
		if more, ok = d.next(']'); !ok {
			return false
		}
	}
	return true
}

func (d *stateReader) decodeActivation(pa *persistedActivation) bool {
	if !d.open('{', "activation") {
		return false
	}
	seen := 0
	for more := !d.Consume('}'); more; {
		f, ok := d.member(activationKeys, &seen)
		if !ok {
			return false
		}
		at := d.I
		var tok []byte
		switch key := activationKeys[f]; key {
		case "ruleId":
			if tok, ok = d.stringValue(key); ok {
				pa.RuleID = d.name(tok)
			}
		case "altIndex":
			pa.AltIndex, ok = d.intValue(key)
		case "activatedAt":
			ok = d.timeValue(key, &pa.ActivatedAt)
		case "expiresAt":
			ok = d.timeValue(key, &pa.ExpiresAt)
		case "triggerServer":
			if tok, ok = d.stringValue(key); ok {
				pa.TriggerServer = d.name(tok)
			}
		case "triggerDistance":
			if pa.TriggerDistance, ok = d.ScanFloat64(); !ok {
				d.puntValue(at, key)
			}
		case "activations":
			pa.Activations, ok = d.intValue(key)
		case "synthesized":
			if pa.Synthesized, ok = d.ScanBool(); !ok {
				d.puntValue(at, key)
			}
		}
		if !ok {
			return false
		}
		if more, ok = d.next('}'); !ok {
			return false
		}
	}
	return true
}

// name returns tok as a string, one per distinct value within the decode.
func (d *stateReader) name(tok []byte) string {
	if s, ok := d.names[string(tok)]; ok {
		return s
	}
	s := string(tok)
	d.names[s] = s
	return s
}

func (d *stateReader) stringValue(name string) ([]byte, bool) {
	at := d.I
	tok, ok := d.ScanUTF8String()
	if !ok {
		return nil, d.puntValue(at, name)
	}
	return tok, true
}

// intValue scans a Go int: an integer literal (encoding/json rejects 1.0 and
// 1e2 for an integer field) that fits.
func (d *stateReader) intValue(name string) (int, bool) {
	at := d.I
	v, ok := d.ScanInt64()
	if !ok || int64(int(v)) != v {
		return 0, d.puntValue(at, name)
	}
	return int(v), true
}

// uint64Value scans an unsigned field. A minus sign punts even before a zero:
// ScanInt64 reads -0 as 0, strconv.ParseUint, which encoding/json calls,
// rejects it. Values from 2^63 up punt with ScanInt64's near-overflow rule.
func (d *stateReader) uint64Value(name string) (uint64, bool) {
	at := d.I
	if at < len(d.Data) && d.Data[at] == '-' {
		return 0, d.puntValue(at, name)
	}
	v, ok := d.ScanInt64()
	if !ok {
		return 0, d.puntValue(at, name)
	}
	return uint64(v), true
}

// timeValue reads a time the way encoding/json does: it hands the string
// literal, quotes included, to time.Time.UnmarshalJSON. Only a plain string
// gets that far, so the literal is the one encoding/json would have cut.
func (d *stateReader) timeValue(name string, t *time.Time) bool {
	at := d.I
	if _, ok := d.ScanPlainString(); !ok || t.UnmarshalJSON(d.Data[at:d.I]) != nil {
		return d.puntValue(at, name)
	}
	return true
}
