package rules

import (
	"fmt"
	"strings"

	"oak/internal/htmlscan"
)

// Linting catches rule-set mistakes that compile fine but misbehave in
// production: alternatives that still point at the host being avoided,
// rules whose fragments shadow each other, and sub-rules that fight their
// parent. cmd/oakd runs the linter at startup; operators can run it in CI
// via oak.LintRules.

// LintWarning is one advisory finding. Lint never fails a rule set — these
// are judgement calls the operator may have made deliberately.
type LintWarning struct {
	// RuleID is the rule the warning is about ("" for set-wide findings).
	RuleID string
	// Code is a stable identifier, e.g. "alt-keeps-default-host".
	Code string
	// Message is the human-readable explanation.
	Message string
}

// String formats the warning.
func (w LintWarning) String() string {
	if w.RuleID == "" {
		return fmt.Sprintf("[%s] %s", w.Code, w.Message)
	}
	return fmt.Sprintf("rule %s: [%s] %s", w.RuleID, w.Code, w.Message)
}

// Lint inspects a compiled rule set and returns advisory warnings, sorted
// by rule order. It reads the src/href hosts Compile cached rather than
// rescanning the texts.
func Lint(rs []*Rule) []LintWarning {
	var out []LintWarning
	byDefault := make(map[string]string, len(rs)) // default text -> first rule id

	for _, r := range rs {
		// Set-wide: identical default fragments mean the first-listed rule
		// consumes the text and later ones silently never apply.
		if firstID, dup := byDefault[r.Default]; dup {
			out = append(out, LintWarning{
				RuleID: r.ID,
				Code:   "duplicate-default",
				Message: fmt.Sprintf(
					"default text identical to rule %s; whichever applies first wins", firstID),
			})
		} else {
			byDefault[r.Default] = r.ID
		}

		defaultHosts := r.DefaultHosts()

		// Replacement rules with no alternatives can never do anything:
		// Validate rejects them, but rule sets assembled in code (or edited
		// after validation) can still reach the engine, where the rule — and
		// population-level synthesis, which needs an alternative to offer —
		// silently skips.
		if (r.Type == TypeReplaceSame || r.Type == TypeReplaceAlt) && len(r.Alternatives) == 0 {
			out = append(out, LintWarning{
				RuleID: r.ID,
				Code:   "no-alternatives",
				Message: "replacement rule has an empty alternatives list; " +
					"it can never activate and synthesis skips it",
			})
		}

		// Alternatives that still reference a default host defeat the
		// switch: the client keeps contacting the violator.
		for i, alt := range r.Alternatives {
			for _, h := range defaultHosts {
				if htmlscan.ContainsHost(alt, h) {
					out = append(out, LintWarning{
						RuleID: r.ID,
						Code:   "alt-keeps-default-host",
						Message: fmt.Sprintf(
							"alternative %d still references default host %s", i, h),
					})
				}
			}
			if alt == r.Default {
				out = append(out, LintWarning{
					RuleID:  r.ID,
					Code:    "alt-equals-default",
					Message: fmt.Sprintf("alternative %d is identical to the default text", i),
				})
			}
			// An alternative with no extractable hostname is invisible to
			// the per-provider guard breakers and to synthesis outcome
			// attribution: it can activate but never be judged or tripped.
			if r.Type != TypeRemove && alt != "" &&
				len(r.AlternativeSrcHosts(i)) == 0 && len(htmlscan.HostsInText(alt)) == 0 {
				out = append(out, LintWarning{
					RuleID: r.ID,
					Code:   "alt-no-host",
					Message: fmt.Sprintf(
						"alternative %d references no hostname; guard breakers cannot attribute outcomes to it", i),
				})
			}
		}

		// A fragment with no discoverable host can never be tied to a
		// violator, so the rule can never activate.
		if len(defaultHosts) == 0 {
			out = append(out, LintWarning{
				RuleID: r.ID,
				Code:   "no-matchable-host",
				Message: "default text references no hostname; " +
					"no violator can ever activate this rule",
			})
		}

		// Sub-rules that re-introduce the default text undo the parent.
		for i, sub := range r.SubRules {
			if sub.Replace != "" && strings.Contains(sub.Replace, r.Default) {
				out = append(out, LintWarning{
					RuleID:  r.ID,
					Code:    "sub-reintroduces-default",
					Message: fmt.Sprintf("sub-rule %d replacement re-inserts the default text", i),
				})
			}
			if sub.Find == sub.Replace {
				out = append(out, LintWarning{
					RuleID:  r.ID,
					Code:    "sub-noop",
					Message: fmt.Sprintf("sub-rule %d replaces text with itself", i),
				})
			}
		}

		// Alternatives listed after one identical to a predecessor can
		// never be reached by linear progression distinctly.
		seenAlt := make(map[string]int, len(r.Alternatives))
		for i, alt := range r.Alternatives {
			if j, dup := seenAlt[alt]; dup {
				out = append(out, LintWarning{
					RuleID:  r.ID,
					Code:    "duplicate-alternative",
					Message: fmt.Sprintf("alternative %d duplicates alternative %d", i, j),
				})
			} else {
				seenAlt[alt] = i
			}
		}
	}

	// Overlapping fragments across rules: one rule's default contained in
	// another's means application order changes results.
	for i, a := range rs {
		for _, b := range rs[i+1:] {
			if a.Default == b.Default {
				continue // already reported as duplicate-default
			}
			if strings.Contains(a.Default, b.Default) || strings.Contains(b.Default, a.Default) {
				out = append(out, LintWarning{
					RuleID: b.ID,
					Code:   "overlapping-defaults",
					Message: fmt.Sprintf(
						"default text overlaps rule %s; application order will change results", a.ID),
				})
			}
		}
	}
	return out
}
