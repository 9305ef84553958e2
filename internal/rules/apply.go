package rules

import (
	"strings"

	"oak/internal/htmlscan"
)

// CacheHintHeader is the custom HTTP response header through which Oak tells
// clients which objects were moved by Type 2 rules, so a cached copy fetched
// under the old URL can still be used (Section 4.3 of the paper). Its value
// is a comma-separated list of "oldURL=newURL" pairs.
const CacheHintHeader = "X-Oak-Alternate"

// Activation pairs a rule with the alternative the engine selected for a
// particular user.
type Activation struct {
	Rule *Rule
	// AltIndex selects which alternative to apply (ignored for Type 1).
	AltIndex int
	// Synthesized marks provenance: true when the activation came from
	// population-level rule synthesis rather than the user's own violation
	// history. It does not change how the rule applies — only how the
	// decision is reported and persisted.
	Synthesized bool
}

// Applied describes the outcome of applying one activation to a page.
type Applied struct {
	RuleID string
	// Replacements is how many times the default text was found and
	// replaced (0 means the rule matched nothing on this page).
	Replacements int
	// CacheHints lists "old=new" URL pairs for Type 2 rules.
	CacheHints []string
}

// Apply rewrites page (the outgoing HTML for path) according to the user's
// activations, in order. Rules whose scope does not cover path are skipped.
// It returns the rewritten page and a record of what was applied.
//
// Result semantics: when no rule replaces anything, Apply returns the page
// unchanged and a nil slice — the no-op serve path allocates nothing. When
// at least one rule replaces text, the result additionally carries one
// zero-Replacements record per in-scope rule that matched nothing, in
// activation order, so callers that count applied rules still see every
// in-scope rule that was considered.
//
// Application is plain text replacement, exactly as the paper's server does
// ("we use regular expressions in order to apply active rules, allowing for
// straight forward and rapid replacement of text before each page is
// served") — Oak deliberately treats page segments as abstract text blocks,
// not DOM nodes.
func Apply(page, path string, acts []Activation) (string, []Applied) {
	// Pre-scan: sub-rules fire only with their parent, so if no in-scope
	// default occurs in the page nothing can change — return without the
	// results allocation the zero-record bookkeeping would otherwise force.
	anyMatch := false
	for _, act := range acts {
		r := act.Rule
		if r == nil || !r.InScope(path) {
			continue
		}
		if strings.Contains(page, r.Default) {
			anyMatch = true
			break
		}
	}
	if !anyMatch {
		return page, nil
	}

	var results []Applied
	replaced := false
	for _, act := range acts {
		r := act.Rule
		if r == nil || !r.InScope(path) {
			continue
		}
		count := strings.Count(page, r.Default)
		if count == 0 {
			results = append(results, Applied{RuleID: r.ID})
			continue
		}
		var replacement string
		switch r.Type {
		case TypeRemove:
			replacement = ""
		case TypeReplaceSame, TypeReplaceAlt:
			replacement = r.Alternative(act.AltIndex)
		default:
			continue
		}
		failpoint(r.ID)
		page = strings.ReplaceAll(page, r.Default, replacement)
		replaced = true
		applied := Applied{RuleID: r.ID, Replacements: count}
		if r.Type == TypeReplaceSame {
			applied.CacheHints = cacheHints(r.Default, replacement)
		}
		for _, sub := range r.SubRules {
			page = strings.ReplaceAll(page, sub.Find, sub.Replace)
		}
		results = append(results, applied)
	}
	if !replaced {
		// Matches existed but no rule consumed one (unknown rule types):
		// nothing changed, so honour the nil-on-no-op contract.
		return page, nil
	}
	return page, results
}

// cacheHints pairs the URLs in the default text with the URLs in the
// replacement text positionally: for a Type 2 rule the alternative serves
// identical objects, so the i-th URL of each corresponds.
func cacheHints(defaultText, altText string) []string {
	oldURLs := htmlscan.URLsInText(defaultText)
	newURLs := htmlscan.URLsInText(altText)
	n := len(oldURLs)
	if len(newURLs) < n {
		n = len(newURLs)
	}
	hints := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if oldURLs[i] != newURLs[i] {
			hints = append(hints, oldURLs[i]+"="+newURLs[i])
		}
	}
	return hints
}

// CacheHintValue joins the hints of several applications into the header
// value format.
func CacheHintValue(results []Applied) string {
	n := 0
	for _, res := range results {
		for _, h := range res.CacheHints {
			n += len(h) + 1
		}
	}
	if n == 0 {
		return ""
	}
	var b strings.Builder
	b.Grow(n - 1)
	sep := ""
	for _, res := range results {
		for _, h := range res.CacheHints {
			b.WriteString(sep)
			b.WriteString(h)
			sep = ","
		}
	}
	return b.String()
}
