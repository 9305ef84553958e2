package rules

import (
	"sort"
	"strings"
	"sync"
)

// Compiled rule application: an activation set is compiled, for one page
// path, into an Applier that rewrites a page in a single scan, instead of the
// reference Apply's one Count + one ReplaceAll pass per rule. The engine
// compiles one for each rewrite it computes (a rewrite-cache miss, or every
// rewrite with the cache off) and keeps none. The applier collects every
// occurrence of every rule's default text in one multi-pattern sweep
// (first-byte dispatch), resolves the occurrences in rule order with the same
// non-overlapping discipline strings.ReplaceAll uses, and assembles the
// output through a sync.Pool'd buffer.
//
// Equivalence: Applier.Apply is byte-identical to the sequential reference
// Apply for every page (FuzzApplyEquivalence asserts this). Sequential
// application can cascade — a later rule may match text an earlier rule's
// replacement introduced, or text glued together across a removal — and a
// single pass over the original page cannot reproduce cascades. The applier
// therefore guards the fast path conservatively:
//
//   - at compile time it rejects activation sets with sub-rules, unknown
//     rule types, empty defaults, or any rule's default occurring inside
//     another rule's replacement text;
//   - per page it rejects resolutions where a later rule's default could
//     match across the boundary of an earlier replacement (junction
//     windows), or where two replacements land close enough to interact.
//
// Any rejection falls back to the sequential reference implementation, so
// the fast path only ever serves rewrites it can prove identical. Real rule
// sets — long, distinct HTML blocks replaced by unrelated markup — compile
// to the fast path; the guards exist for the adversarial cases.

// maxCandidates bounds how many pattern occurrences the single-pass scan
// tracks before handing the page to the sequential reference instead; it
// keeps resolution near-linear on pathological pages (a one-byte default
// matching at every position).
const maxCandidates = 4096

// compiledRule is one in-scope activation, pre-resolved for application.
type compiledRule struct {
	pat string // the rule's default text
	rep string // replacement for the selected alternative ("" for Type 1)
	// applied is the precomputed record template: RuleID and CacheHints
	// never change per page, only Replacements does. The CacheHints slice
	// is shared across results — callers must treat Applied records as
	// read-only (they already do: CacheHintValue only reads).
	applied Applied
}

// Applier is an activation set compiled for one page path. It is immutable
// after NewApplier and safe for concurrent use by any number of goroutines.
type Applier struct {
	rules []compiledRule
	acts  []Activation // retained for the sequential fallback
	path  string

	// fallback marks activation sets the single pass cannot provably
	// reproduce (sub-rules, interfering patterns); Apply then delegates to
	// the sequential reference unconditionally.
	fallback bool

	// Scan dispatch: buckets[b] lists the rules whose default starts with
	// byte b, in activation order. oneByte enables the IndexByte-driven
	// scan when every default shares its first byte (the common case for
	// HTML rules, which all start with '<').
	buckets  [256][]int32
	oneByte  bool
	theByte  byte
	maxLen   int
	minLen   int
	hasRules bool
}

// NewApplier compiles the activations that are in scope for path. The
// returned applier's Apply(page) is byte-identical to
// Apply(page, path, acts) for every page.
func NewApplier(acts []Activation, path string) *Applier {
	a := &Applier{
		acts: append([]Activation(nil), acts...),
		path: path,
	}
	for _, act := range acts {
		r := act.Rule
		if r == nil || !r.InScope(path) {
			continue
		}
		if len(r.SubRules) > 0 || !r.Type.Valid() || r.Default == "" {
			a.fallback = true
			return a
		}
		rep := ""
		if r.Type != TypeRemove {
			rep = r.Alternative(act.AltIndex)
		}
		cr := compiledRule{pat: r.Default, rep: rep, applied: Applied{RuleID: r.ID}}
		if r.Type == TypeReplaceSame {
			cr.applied.CacheHints = cacheHints(r.Default, rep)
		}
		a.rules = append(a.rules, cr)
	}
	if len(a.rules) == 0 {
		return a
	}
	// Compile-time interference: a rule's default occurring inside another
	// rule's replacement means sequential application could replace text a
	// replacement introduced — a cascade one pass cannot reproduce.
	for i := range a.rules {
		for j := range a.rules {
			if i != j && strings.Contains(a.rules[i].rep, a.rules[j].pat) {
				a.fallback = true
				return a
			}
		}
	}
	a.hasRules = true
	a.minLen = len(a.rules[0].pat)
	for i := range a.rules {
		p := a.rules[i].pat
		a.buckets[p[0]] = append(a.buckets[p[0]], int32(i))
		if len(p) > a.maxLen {
			a.maxLen = len(p)
		}
		if len(p) < a.minLen {
			a.minLen = len(p)
		}
	}
	distinct := 0
	for b := 0; b < 256; b++ {
		if len(a.buckets[b]) > 0 {
			distinct++
			a.theByte = byte(b)
		}
	}
	a.oneByte = distinct == 1
	return a
}

// Fast reports whether the applier compiled to the single-pass path (false
// means every Apply call runs the sequential reference).
func (a *Applier) Fast() bool { return !a.fallback }

// cand is one occurrence of one rule's default in the scanned page.
type cand struct {
	rule int32
	pos  int32
}

// span is one accepted replacement: page[start:end) becomes rules[rule].rep.
type span struct {
	start, end int32
	rule       int32
}

var candPool = sync.Pool{New: func() any {
	s := make([]cand, 0, 128)
	return &s
}}

var outBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// Apply rewrites page exactly as Apply(page, path, acts) would, in a single
// scan when the compiled fast path holds. The unmodified page is returned
// as-is (same string, no allocation) when nothing matches.
func (a *Applier) Apply(page string) (string, []Applied) {
	if a.fallback {
		return Apply(page, a.path, a.acts)
	}
	if !a.hasRules || len(page) < a.minLen {
		return page, nil
	}
	cands, overflow := a.scan(page)
	if cands == nil {
		return page, nil
	}
	defer func() {
		*cands = (*cands)[:0]
		candPool.Put(cands)
	}()
	if overflow {
		return Apply(page, a.path, a.acts)
	}
	accepted, counts := a.resolve(page, *cands)
	if !a.safe(page, accepted) {
		return Apply(page, a.path, a.acts)
	}
	return a.assemble(page, accepted, counts)
}

// scan collects every occurrence of every rule's default in one pass.
// A nil result means the page matches nothing (and nothing was allocated).
func (a *Applier) scan(page string) (*[]cand, bool) {
	var cands *[]cand
	add := func(rule int32, pos int) bool {
		if cands == nil {
			cands = candPool.Get().(*[]cand)
		}
		*cands = append(*cands, cand{rule: rule, pos: int32(pos)})
		return len(*cands) <= maxCandidates
	}
	if a.oneByte {
		bucket := a.buckets[a.theByte]
		for i := 0; ; {
			j := strings.IndexByte(page[i:], a.theByte)
			if j < 0 {
				break
			}
			pos := i + j
			for _, ri := range bucket {
				p := a.rules[ri].pat
				if pos+len(p) <= len(page) && page[pos:pos+len(p)] == p {
					if !add(ri, pos) {
						return cands, true
					}
				}
			}
			i = pos + 1
		}
		return cands, false
	}
	for pos := 0; pos < len(page); pos++ {
		bucket := a.buckets[page[pos]]
		if len(bucket) == 0 {
			continue
		}
		for _, ri := range bucket {
			p := a.rules[ri].pat
			if pos+len(p) <= len(page) && page[pos:pos+len(p)] == p {
				if !add(ri, pos) {
					return cands, true
				}
			}
		}
	}
	return cands, false
}

// resolve selects which occurrences actually replace, reproducing the
// sequential discipline: rules claim matches in activation order, each rule
// left to right, and an occurrence overlapping an already-claimed region is
// skipped — exactly what per-rule strings.ReplaceAll passes would do on the
// regions of the page that survive to that rule's turn.
func (a *Applier) resolve(page string, cands []cand) ([]span, []int) {
	accepted := make([]span, 0, len(cands))
	counts := make([]int, len(a.rules))
	for ri := int32(0); ri < int32(len(a.rules)); ri++ {
		patLen := int32(len(a.rules[ri].pat))
		for _, c := range cands {
			if c.rule != ri {
				continue
			}
			s, e := c.pos, c.pos+patLen
			// First accepted span ending after s; overlap iff it starts
			// before e.
			k := sort.Search(len(accepted), func(i int) bool { return accepted[i].end > s })
			if k < len(accepted) && accepted[k].start < e {
				continue
			}
			accepted = append(accepted, span{})
			copy(accepted[k+1:], accepted[k:])
			accepted[k] = span{start: s, end: e, rule: ri}
			counts[ri]++
		}
	}
	return accepted, counts
}

// safe verifies the accepted resolution is reproducible in one pass:
// no later rule's default may match across the edges of an earlier
// replacement (a junction the sequential pass would rescan), and no two
// replacements may land close enough for one's junction window to reach
// into the other's rewritten text.
func (a *Applier) safe(page string, accepted []span) bool {
	if len(accepted) == 0 {
		return true
	}
	ctx := a.maxLen - 1
	for i := 1; i < len(accepted); i++ {
		if int(accepted[i].start-accepted[i-1].end) < ctx {
			return false
		}
	}
	if ctx == 0 {
		// All defaults are single bytes: no occurrence can straddle a
		// junction.
		return true
	}
	buf := outBufPool.Get().(*[]byte)
	defer func() {
		*buf = (*buf)[:0]
		outBufPool.Put(buf)
	}()
	for _, sp := range accepted {
		ls := int(sp.start) - ctx
		if ls < 0 {
			ls = 0
		}
		re := int(sp.end) + ctx
		if re > len(page) {
			re = len(page)
		}
		w := (*buf)[:0]
		w = append(w, page[ls:sp.start]...)
		lLen := len(w)
		w = append(w, a.rules[sp.rule].rep...)
		rStart := len(w)
		w = append(w, page[sp.end:re]...)
		if !a.windowClean(w, lLen, rStart, sp.rule) {
			return false
		}
		*buf = w[:0]
	}
	return true
}

// windowClean scans one junction window (left original context +
// replacement + right original context) for occurrences of defaults of
// rules later in activation order than owner. Occurrences entirely inside
// the untouched left or right context are original-page candidates the
// resolution already judged; occurrences of the owner itself (or earlier
// rules) are never rescanned by the sequential pass. Anything else is a
// cascade the single pass cannot reproduce.
func (a *Applier) windowClean(w []byte, lLen, rStart int, owner int32) bool {
	for pos := 0; pos < len(w); pos++ {
		bucket := a.buckets[w[pos]]
		if len(bucket) == 0 {
			continue
		}
		for _, ri := range bucket {
			if ri <= owner {
				continue
			}
			p := a.rules[ri].pat
			end := pos + len(p)
			if end > len(w) || string(w[pos:end]) != p {
				continue
			}
			if end <= lLen || pos >= rStart {
				continue // entirely in untouched original context
			}
			return false
		}
	}
	return true
}

// assemble builds the rewritten page from the accepted spans through a
// pooled buffer, and the Applied records in activation order with the same
// zero-record semantics as the sequential Apply.
func (a *Applier) assemble(page string, accepted []span, counts []int) (string, []Applied) {
	if len(accepted) == 0 {
		// Candidates existed but none survived resolution; with at least
		// one candidate the earliest rule owning one always claims it, so
		// this cannot happen — kept as a safety net.
		return page, nil
	}
	size := len(page)
	for _, sp := range accepted {
		size += len(a.rules[sp.rule].rep) - int(sp.end-sp.start)
	}
	buf := outBufPool.Get().(*[]byte)
	out := (*buf)[:0]
	if cap(out) < size {
		out = make([]byte, 0, size)
	}
	pos := 0
	for _, sp := range accepted {
		out = append(out, page[pos:sp.start]...)
		failpoint(a.rules[sp.rule].applied.RuleID)
		out = append(out, a.rules[sp.rule].rep...)
		pos = int(sp.end)
	}
	out = append(out, page[pos:]...)
	result := string(out)
	*buf = out[:0]
	outBufPool.Put(buf)

	applied := make([]Applied, 0, len(a.rules))
	for i := range a.rules {
		rec := a.rules[i].applied
		rec.Replacements = counts[i]
		if counts[i] == 0 {
			rec = Applied{RuleID: a.rules[i].applied.RuleID}
		}
		applied = append(applied, rec)
	}
	return result, applied
}
