// Package rules implements Oak's operator-specified rule mechanism
// (Section 4.1 of the paper).
//
// A rule abstractly describes a replaceable portion of a page — a block of
// text representing a default object — together with what to do when the
// servers that block leads to under-perform: remove it (Type 1), replace it
// with the same object at an alternative source (Type 2), or replace it with
// a non-identical alternative object (Type 3). Rules carry a time-to-live, a
// scope restricting which pages they apply to, optional sub-rules that fire
// only when the parent activates, and (Section 4.2.4) an ordered list of
// alternatives the engine progresses through on repeated activations.
package rules

import (
	"errors"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"time"

	"oak/internal/htmlscan"
)

// Type is the rule type from Section 4.1.
type Type int

const (
	// TypeRemove (paper: Type 1) removes the default object text from the
	// page. No alternative is needed.
	TypeRemove Type = 1
	// TypeReplaceSame (paper: Type 2) replaces the default object text with
	// the same object served from an alternative source. Because the object
	// is identical, Oak emits a cache-hint header so browsers can reuse a
	// cached copy fetched under the old URL (Section 4.3).
	TypeReplaceSame Type = 2
	// TypeReplaceAlt (paper: Type 3) replaces the default object with a
	// non-identical alternative object.
	TypeReplaceAlt Type = 3
)

// String returns the paper's name for the type.
func (t Type) String() string {
	switch t {
	case TypeRemove:
		return "type1-remove"
	case TypeReplaceSame:
		return "type2-replace-same"
	case TypeReplaceAlt:
		return "type3-replace-alt"
	default:
		return fmt.Sprintf("type%d-unknown", int(t))
	}
}

// Valid reports whether t is one of the three paper-defined types.
func (t Type) Valid() bool {
	return t == TypeRemove || t == TypeReplaceSame || t == TypeReplaceAlt
}

// SubRule is a simple unconditional replacement applied only when its parent
// rule is active. Sub-rules let operators express larger coordinated edits
// without full-fledged trigger machinery (Section 4.1).
type SubRule struct {
	// Find is the exact text to replace.
	Find string `json:"find"`
	// Replace is its substitution (may be empty, meaning removal).
	Replace string `json:"replace"`
}

// Rule is one operator-specified rule.
type Rule struct {
	// ID identifies the rule in logs, policies, profiles and the audit.
	ID string `json:"id"`
	// Type selects remove/replace-same/replace-alt semantics.
	Type Type `json:"type"`
	// Default is the block of text representing the default object — the
	// text Oak looks for in outgoing pages and scans for server references
	// when deciding activation.
	Default string `json:"default"`
	// Alternatives are the replacement texts. Type 1 rules need none; for
	// Types 2/3 the engine selects among them per policy (linearly by
	// default). Keeping a list implements Section 4.2.4's "specification of
	// multiple alternatives in each rule".
	Alternatives []string `json:"alternatives,omitempty"`
	// TTL is how long an activation lasts before automatic deactivation.
	// Zero means never expire, matching the paper's example rule.
	TTL time.Duration `json:"-"`
	// TTLMillis carries TTL across JSON (json can't encode Duration).
	TTLMillis int64 `json:"ttlMillis"`
	// Scope is a path pattern selecting the pages the rule applies to:
	// "*" (or "") means site-wide; a leading-"/" literal matches one path;
	// "re:<expr>" is a regular expression over the path.
	Scope string `json:"scope"`
	// SubRules are applied (in order) only when this rule is active.
	SubRules []SubRule `json:"subRules,omitempty"`

	scopeRe *regexp.Regexp // compiled lazily by Compile for "re:" scopes

	// def and alts cache what scanText derives from Default and from each
	// alternative, filled by Compile: each text is scanned once, there, and
	// the linter, the engine's guard table and the matcher read the caches.
	def     textHosts
	alts    []textHosts
	scanned bool
}

// Validation errors.
var (
	ErrNoID            = errors.New("rules: rule has no id")
	ErrBadType         = errors.New("rules: invalid rule type")
	ErrNoDefault       = errors.New("rules: rule has no default object text")
	ErrNoAlternative   = errors.New("rules: replacement rule has no alternative")
	ErrUnexpectedAlt   = errors.New("rules: removal rule must not have alternatives")
	ErrNegativeTTL     = errors.New("rules: negative ttl")
	ErrBadScopePattern = errors.New("rules: invalid scope pattern")
)

// Validate checks the rule's structural invariants.
func (r *Rule) Validate() error {
	if r.ID == "" {
		return ErrNoID
	}
	if !r.Type.Valid() {
		return fmt.Errorf("%w: %d (rule %s)", ErrBadType, int(r.Type), r.ID)
	}
	if r.Default == "" {
		return fmt.Errorf("%w (rule %s)", ErrNoDefault, r.ID)
	}
	switch r.Type {
	case TypeRemove:
		if len(r.Alternatives) > 0 {
			return fmt.Errorf("%w (rule %s)", ErrUnexpectedAlt, r.ID)
		}
	case TypeReplaceSame, TypeReplaceAlt:
		if len(r.Alternatives) == 0 {
			return fmt.Errorf("%w (rule %s)", ErrNoAlternative, r.ID)
		}
	}
	if r.TTL < 0 {
		return fmt.Errorf("%w (rule %s)", ErrNegativeTTL, r.ID)
	}
	return nil
}

// Compile validates the rule, pre-compiles its scope pattern and scans the
// default text and every alternative once for their hosts (scanText).
func (r *Rule) Compile() error {
	if err := r.Validate(); err != nil {
		return err
	}
	if expr, ok := strings.CutPrefix(r.Scope, "re:"); ok {
		re, err := regexp.Compile(expr)
		if err != nil {
			return fmt.Errorf("%w: %q: %v (rule %s)", ErrBadScopePattern, expr, err, r.ID)
		}
		r.scopeRe = re
	}
	r.def = scanText(r.Default)
	r.alts = make([]textHosts, len(r.Alternatives))
	for i, alt := range r.Alternatives {
		r.alts[i] = scanText(alt)
	}
	r.scanned = true
	return nil
}

// textHosts is what one scan of a rule text derives: the hosts of its
// src/href attributes (src), those and then the hosts it mentions in free
// text (all: the paper's direct-inclusion and text-match surfaces), and the
// URLs of its external scripts (scripts).
type textHosts struct{ src, all, scripts []string }

// scanText scans a rule text once for its hosts and script srcs.
func scanText(text string) textHosts {
	refs := htmlscan.ExtractRefs(text)
	t := textHosts{src: htmlscan.SrcHosts(refs), scripts: htmlscan.ScriptRefs(refs)}
	t.all = slices.Clip(t.src)
	for _, h := range htmlscan.HostsInText(text) {
		if !slices.Contains(t.all, h) {
			t.all = append(t.all, h)
		}
	}
	return t
}

// Compiled returns a compiled copy of r and leaves r itself untouched, so any
// number of engines may be built at once from one rule set. A rule Compile
// already prepared lends the copy its caches, which nothing writes after
// Compile; any other rule is compiled once, on the copy.
func (r *Rule) Compiled() (*Rule, error) {
	c := *r
	if c.scanned {
		return &c, c.Validate()
	}
	if err := c.Compile(); err != nil {
		return nil, err
	}
	return &c, nil
}

// defaultScan is the default text's scan: Compile's, or a live one on an
// uncompiled rule.
func (r *Rule) defaultScan() textHosts {
	if r.scanned {
		return r.def
	}
	return scanText(r.Default)
}

// altScan is the i-th alternative's scan, with Alternative's clamping
// semantics (past-the-end indexes read the last).
func (r *Rule) altScan(i int) textHosts {
	if !r.scanned {
		return scanText(r.Alternative(i))
	}
	return Clamp(r.alts, i)
}

// Clamp indexes a per-alternative table the way Alternative indexes the
// alternatives: out-of-range indexes clamp, and an empty table reads as the
// zero value.
func Clamp[T any](per []T, i int) T {
	if len(per) == 0 {
		var zero T
		return zero
	}
	return per[max(0, min(i, len(per)-1))]
}

// SrcHosts returns the hostnames referenced by src/href attributes in the
// rule's default text. Compiled rules answer from cache, as every host
// accessor does; uncompiled rules scan live.
func (r *Rule) SrcHosts() []string { return r.defaultScan().src }

// AlternativeSrcHosts is SrcHosts for the i-th alternative, with
// Alternative's clamping semantics (past-the-end indexes return the last).
func (r *Rule) AlternativeSrcHosts(i int) []string { return r.altScan(i).src }

// AlternativeHosts returns the provider hostnames the i-th alternative points
// at, clamped as Alternative is: its src/href hosts, then the hosts it
// mentions in free text — the surfaces MatchesAlternate recognises.
func (r *Rule) AlternativeHosts(i int) []string { return r.altScan(i).all }

// InScope reports whether the rule applies to the given site-relative page
// path. Scope "" and "*" are site-wide; "re:<expr>" matches the path against
// a regular expression; anything else is a literal path (with a trailing "*"
// allowed as a prefix wildcard, e.g. "/blog/*").
func (r *Rule) InScope(path string) bool {
	switch {
	case r.Scope == "" || r.Scope == "*":
		return true
	case strings.HasPrefix(r.Scope, "re:"):
		if r.scopeRe == nil {
			re, err := regexp.Compile(strings.TrimPrefix(r.Scope, "re:"))
			if err != nil {
				return false
			}
			r.scopeRe = re
		}
		return r.scopeRe.MatchString(path)
	case strings.HasSuffix(r.Scope, "*"):
		return strings.HasPrefix(path, strings.TrimSuffix(r.Scope, "*"))
	default:
		return path == r.Scope
	}
}

// Alternative returns the i-th alternative with linear progression semantics:
// indexes past the end return the last alternative (the engine has run out
// of fresh providers and stays on the final one). It returns "" for Type 1
// rules, whose activation removes the default text.
func (r *Rule) Alternative(i int) string { return Clamp(r.Alternatives, i) }

// DefaultHosts returns the hostnames referenced by the rule's default object
// text — from src/href attributes and from free-text mentions (the paper's
// direct-inclusion and text-match surfaces).
func (r *Rule) DefaultHosts() []string { return r.defaultScan().all }

// ScriptSrcs returns the external script URLs referenced by the rule's
// default text; the matcher fetches these during the external-JavaScript
// expansion pass (Section 4.2.2).
func (r *Rule) ScriptSrcs() []string { return r.defaultScan().scripts }

// Expires computes the expiry instant for an activation made at now. The
// zero time means the activation never expires (TTL 0).
func (r *Rule) Expires(now time.Time) time.Time {
	if r.TTL == 0 {
		return time.Time{}
	}
	return now.Add(r.TTL)
}

// normalizeTTL syncs TTL and TTLMillis after JSON decode / before encode.
func (r *Rule) normalizeTTL() {
	if r.TTL == 0 && r.TTLMillis != 0 {
		r.TTL = time.Duration(r.TTLMillis) * time.Millisecond
	}
	if r.TTLMillis == 0 && r.TTL != 0 {
		r.TTLMillis = r.TTL.Milliseconds()
	}
}
