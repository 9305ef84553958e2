package core

import (
	"sync"

	"oak/internal/htmlscan"
	"oak/internal/report"
	"oak/internal/rules"
)

// MatchLevel is the tier of evidence that tied a rule to a violating server
// (Section 4.2.2, studied in Figure 8 of the paper). Higher tiers subsume
// lower ones.
type MatchLevel int

const (
	// MatchNone: the rule could not be tied to the server.
	MatchNone MatchLevel = iota
	// MatchDirect: a src/href attribute in the rule references a domain
	// that resolved to the violating server ("strict include").
	MatchDirect
	// MatchText: a domain of the violating server appears somewhere in the
	// rule's default text (inline scripts constructing URLs, etc.).
	MatchText
	// MatchExternalJS: an external script referenced by the rule — fetched
	// and searched — mentions a domain of the violating server.
	MatchExternalJS
)

// String names the level.
func (l MatchLevel) String() string {
	switch l {
	case MatchNone:
		return "none"
	case MatchDirect:
		return "direct"
	case MatchText:
		return "text"
	case MatchExternalJS:
		return "external-js"
	default:
		return "unknown"
	}
}

// ScriptFetcher loads the body of an external script so the matcher can
// extend a rule's match surface to servers the script connects to. The
// matcher never modifies or re-serves these scripts — it "simply uses them
// to expand the surface to which a rule might match".
type ScriptFetcher interface {
	FetchScript(url string) (string, error)
}

// ScriptFetcherFunc adapts a function to the ScriptFetcher interface.
type ScriptFetcherFunc func(url string) (string, error)

// FetchScript implements ScriptFetcher.
func (f ScriptFetcherFunc) FetchScript(url string) (string, error) { return f(url) }

// Matcher decides whether a rule has a connection dependency on a violating
// server. It is safe for concurrent use.
type Matcher struct {
	// MaxLevel caps how much evidence is considered; the paper's deployed
	// configuration is MatchExternalJS. Lower settings exist for the
	// Figure 8 reproduction and ablations.
	MaxLevel MatchLevel
	// Fetcher loads external scripts for the MatchExternalJS tier. A nil
	// fetcher disables that tier.
	Fetcher ScriptFetcher
	// Depth is how many layers of external-script inclusion to follow.
	// The paper uses one layer and notes "rapidly diminishing" payoff
	// beyond it.
	Depth int

	mu    sync.Mutex
	cache map[string]string // script URL -> body ("" = fetch failed)
}

// NewMatcher returns a matcher at the paper's deployed configuration:
// all three tiers, one layer of script expansion.
func NewMatcher(fetcher ScriptFetcher) *Matcher {
	return &Matcher{MaxLevel: MatchExternalJS, Fetcher: fetcher, Depth: 1}
}

// Match reports the strongest evidence tier tying rule to the violating
// server, considering the scripts the client actually loaded during the
// reported page load (scriptURLs, from the report's entry list).
func (m *Matcher) Match(rule *rules.Rule, violator *report.ServerPerf, scriptURLs []string) MatchLevel {
	if level, done := m.matchText(rule, violator); done {
		return level
	}

	// Tier 3 — external JavaScript: scripts the client loaded whose source
	// domain appears in the rule are "activated by" the rule; their bodies
	// extend the rule's match surface. Followed Depth layers deep.
	surface := []string{rule.Default}
	pending := scriptURLs
	for depth := 0; depth < m.Depth && len(pending) > 0; depth++ {
		var next []string
		var newSurface []string
		for _, su := range pending {
			host := htmlscan.HostOf(su)
			if host == "" || !surfaceMentionsHost(surface, host) {
				continue
			}
			body := m.fetchCached(su)
			if body == "" {
				continue
			}
			newSurface = append(newSurface, body)
			next = append(next, htmlscan.ScriptSrcs(body)...)
		}
		if len(newSurface) == 0 {
			break
		}
		for _, vh := range violator.Hosts {
			for _, text := range newSurface {
				if htmlscan.ContainsHost(text, vh) {
					return MatchExternalJS
				}
			}
		}
		surface = append(surface, newSurface...)
		pending = next
	}
	return MatchNone
}

// matchText is the two tiers Match and MatchOwnSurface share, on the rule's
// default text; done is false when the external-JavaScript tier is left.
func (m *Matcher) matchText(rule *rules.Rule, violator *report.ServerPerf) (level MatchLevel, done bool) {
	if rule == nil || violator == nil || len(violator.Hosts) == 0 {
		return MatchNone, true
	}
	// Tier 1 — direct inclusion: src/href attributes in the rule point at a
	// domain that resolved to the violating server.
	for _, rh := range rule.SrcHosts() {
		if violator.HasHost(rh) {
			return MatchDirect, true
		}
	}
	if m.MaxLevel < MatchText {
		return MatchNone, true
	}
	// Tier 2 — text match: any violator domain appears in the rule's text
	// (e.g. inline scripts that build URLs programmatically).
	for _, vh := range violator.Hosts {
		if htmlscan.ContainsHost(rule.Default, vh) {
			return MatchText, true
		}
	}
	return MatchNone, m.MaxLevel < MatchExternalJS || m.Fetcher == nil || m.Depth < 1
}

// MatchOwnSurface reports the strongest evidence tier tying rule to the
// violating server considering only the rule's own dependency surface: its
// default text plus the bodies of scripts the rule itself references
// (fetched, followed Depth layers deep). Unlike Match, scripts that are
// merely co-hosted with a domain the rule mentions do not extend the
// surface. Synthesis uses this form: a synthesized activation bypasses the
// per-user violation gate, so the evidence must show that this rule — not a
// neighbouring fragment on a shared script host — depends on the degraded
// provider.
func (m *Matcher) MatchOwnSurface(rule *rules.Rule, violator *report.ServerPerf) MatchLevel {
	if level, done := m.matchText(rule, violator); done {
		return level
	}
	pending := rule.ScriptSrcs()
	for depth := 0; depth < m.Depth && len(pending) > 0; depth++ {
		var next []string
		var bodies []string
		for _, su := range pending {
			body := m.fetchCached(su)
			if body == "" {
				continue
			}
			bodies = append(bodies, body)
			next = append(next, htmlscan.ScriptSrcs(body)...)
		}
		for _, vh := range violator.Hosts {
			for _, text := range bodies {
				if htmlscan.ContainsHost(text, vh) {
					return MatchExternalJS
				}
			}
		}
		pending = next
	}
	return MatchNone
}

// surfaceMentionsHost reports whether any accumulated text mentions host.
func surfaceMentionsHost(surface []string, host string) bool {
	for _, text := range surface {
		if htmlscan.ContainsHost(text, host) {
			return true
		}
	}
	return false
}

// fetchCached loads a script body once, caching results (including
// failures, cached as empty) for the matcher's lifetime.
func (m *Matcher) fetchCached(url string) string {
	m.mu.Lock()
	if m.cache == nil {
		m.cache = make(map[string]string)
	}
	if body, ok := m.cache[url]; ok {
		m.mu.Unlock()
		return body
	}
	m.mu.Unlock()

	body, err := m.Fetcher.FetchScript(url)
	if err != nil {
		body = ""
	}

	m.mu.Lock()
	m.cache[url] = body
	m.mu.Unlock()
	return body
}

// MatchesAlternate reports whether the violating server is referenced by the
// rule's currently-selected alternative text — the signal that an activated
// rule's replacement provider has itself become a violator (Section 4.2.3).
func MatchesAlternate(rule *rules.Rule, altIndex int, violator *report.ServerPerf) bool {
	alt := rule.Alternative(altIndex)
	if alt == "" {
		return false
	}
	for _, h := range rule.AlternativeSrcHosts(altIndex) {
		if violator.HasHost(h) {
			return true
		}
	}
	for _, vh := range violator.Hosts {
		if htmlscan.ContainsHost(alt, vh) {
			return true
		}
	}
	return false
}
