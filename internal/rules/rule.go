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

	// srcHosts / altSrcHosts cache the src/href hostnames of Default and of
	// each alternative, filled by Compile. Reconciliation consults the
	// alternative hosts on every report that touches an active rule, far
	// too often to re-run the attribute regexp each time.
	srcHosts    []string
	altSrcHosts [][]string
	srcHostsOK  bool
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

// Compile validates the rule, pre-compiles its scope pattern and caches the
// src/href hosts of the default text and every alternative.
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
	r.srcHosts = htmlscan.ExtractSrcHosts(r.Default)
	r.altSrcHosts = nil
	for _, alt := range r.Alternatives {
		r.altSrcHosts = append(r.altSrcHosts, htmlscan.ExtractSrcHosts(alt))
	}
	r.srcHostsOK = true
	return nil
}

// Compiled returns a compiled copy of r and leaves r itself untouched, so any
// number of engines may be built at once from one rule set. A rule Compile
// already prepared lends the copy its caches, which nothing writes after
// Compile; any other rule is compiled once, on the copy.
func (r *Rule) Compiled() (*Rule, error) {
	c := *r
	if c.srcHostsOK {
		return &c, c.Validate()
	}
	if err := c.Compile(); err != nil {
		return nil, err
	}
	return &c, nil
}

// SrcHosts returns the hostnames referenced by src/href attributes in the
// rule's default text. Compiled rules answer from cache; uncompiled rules
// scan live.
func (r *Rule) SrcHosts() []string {
	if r.srcHostsOK {
		return r.srcHosts
	}
	return htmlscan.ExtractSrcHosts(r.Default)
}

// AlternativeSrcHosts is SrcHosts for the i-th alternative, with
// Alternative's clamping semantics (past-the-end indexes return the last).
func (r *Rule) AlternativeSrcHosts(i int) []string {
	if !r.srcHostsOK {
		return htmlscan.ExtractSrcHosts(r.Alternative(i))
	}
	if len(r.altSrcHosts) == 0 {
		return nil
	}
	if i < 0 {
		i = 0
	}
	if i >= len(r.altSrcHosts) {
		i = len(r.altSrcHosts) - 1
	}
	return r.altSrcHosts[i]
}

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
func (r *Rule) Alternative(i int) string {
	if len(r.Alternatives) == 0 {
		return ""
	}
	if i < 0 {
		i = 0
	}
	if i >= len(r.Alternatives) {
		i = len(r.Alternatives) - 1
	}
	return r.Alternatives[i]
}

// DefaultHosts returns the hostnames referenced by the rule's default object
// text — from src/href attributes and from free-text mentions (the paper's
// direct-inclusion and text-match surfaces).
func (r *Rule) DefaultHosts() []string {
	seen := make(map[string]bool)
	var hosts []string
	for _, h := range r.SrcHosts() {
		if !seen[h] {
			seen[h] = true
			hosts = append(hosts, h)
		}
	}
	for _, h := range htmlscan.HostsInText(r.Default) {
		if !seen[h] {
			seen[h] = true
			hosts = append(hosts, h)
		}
	}
	return hosts
}

// ScriptSrcs returns the external script URLs referenced by the rule's
// default text; the matcher fetches these during the external-JavaScript
// expansion pass (Section 4.2.2).
func (r *Rule) ScriptSrcs() []string {
	return htmlscan.ScriptSrcs(r.Default)
}

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
