package rules

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strings"
	"sync"
)

// Compiled rule application is split in two. A Scanner is a fixed rule set
// compiled once; Scanner.Index scans one page for every occurrence of every
// rule's default text in a single multi-pattern sweep (first-byte dispatch)
// and keeps the positions. Index.Resolve then serves one activation set from
// those positions: it filters them to the set, claims them in rule order with
// the same non-overlapping discipline strings.ReplaceAll uses, and returns the
// rewrite as a Splice — the page's own slices interleaved with replacement
// texts — without copying or rescanning the page. A server indexes each page
// once and resolves on every serve; Applier composes the two for callers that
// hold no index.
//
// Equivalence: a resolved splice concatenates to exactly what the sequential
// reference Apply returns, with the same Applied records (FuzzApplyEquivalence
// asserts this). Sequential application can cascade — a later rule may match
// text an earlier rule's replacement introduced, or text glued together
// across a removal — and one pass over the original page cannot reproduce
// cascades. Resolve therefore guards the fast path conservatively:
//
//   - per activation set it rejects sub-rules, unknown rule types, empty
//     defaults, rules the scanner does not hold, and any rule's default
//     occurring inside another active rule's replacement text (the
//     containment table is computed once, by NewScanner);
//   - per page it rejects resolutions where a later rule's default could
//     match across the boundary of an earlier replacement (junction
//     windows), where two replacements land close enough to interact, or
//     where the set's occurrences exceed maxCandidates.
//
// Any rejection falls back to the sequential reference implementation, so
// the fast path only ever serves rewrites it can prove identical. Real rule
// sets — long, distinct HTML blocks replaced by unrelated markup — resolve on
// the fast path; the guards exist for the adversarial cases.

// maxCandidates bounds the occurrences one resolution claims from, and the
// positions an index keeps per rule; past it the page goes to the sequential
// reference instead. It keeps resolution near-linear, and an index small, on
// pathological pages (a one-byte default matching at every position).
const maxCandidates = 4096

// ApplyVersion names the splice discipline: bump it whenever the bytes a
// given (page, rule set, activation list) rewrites to could change, so tags
// derived from those inputs change with them.
const ApplyVersion = 1

// Scanner is a fixed rule set compiled for indexing pages. It is immutable
// after NewScanner and safe for concurrent use.
type Scanner struct {
	rules []*Rule
	num   map[*Rule]int32 // rule → its number, the index into rules

	// buckets[b] lists the rules whose default starts with byte b. oneByte
	// enables the IndexByte-driven sweep when every default shares its first
	// byte (the common case for HTML rules, which all start with '<').
	buckets [256][]int32
	oneByte bool
	theByte byte
	minLen  int
	maxLen  int

	// alts[n] is rule n's replacements, one per alternative (one, "", for a
	// removal), each with what Resolve needs precomputed.
	alts [][]replacement
}

// replacement is one (rule, alternative) pair, precomputed.
type replacement struct {
	text string
	// hints are the Applied CacheHints of a Type 2 rule (nil otherwise),
	// shared across results: callers treat Applied records as read-only;
	// hint is their X-Oak-Alternate value.
	hints []string
	hint  string
	// contains lists the rules whose default occurs inside text: with any of
	// them active too, sequential application could cascade.
	contains []int32
	// identity marks a replacement equal to the text it replaces.
	identity bool
}

// NewScanner compiles rs for indexing. Rules with an empty default are held
// but never found; a resolution that activates one falls back to Apply.
func NewScanner(rs []*Rule) *Scanner {
	s := &Scanner{num: make(map[*Rule]int32, len(rs))}
	for _, r := range rs {
		if r == nil {
			continue
		}
		if _, dup := s.num[r]; dup {
			continue
		}
		s.num[r] = int32(len(s.rules))
		s.rules = append(s.rules, r)
	}
	distinct := 0
	s.alts = make([][]replacement, len(s.rules))
	for n, r := range s.rules {
		texts := r.Alternatives
		if r.Type == TypeRemove || len(texts) == 0 {
			texts = []string{""}
		}
		reps := make([]replacement, len(texts))
		for i, text := range texts {
			rep := replacement{text: text, identity: text == r.Default}
			if r.Type == TypeReplaceSame {
				rep.hints = cacheHints(r.Default, text)
				rep.hint = strings.Join(rep.hints, ",")
			}
			for m, q := range s.rules {
				if q.Default != "" && strings.Contains(text, q.Default) {
					rep.contains = append(rep.contains, int32(m))
				}
			}
			reps[i] = rep
		}
		s.alts[n] = reps
		p := r.Default
		if p == "" {
			continue
		}
		if len(s.buckets[p[0]]) == 0 {
			distinct++
			s.theByte = p[0]
		}
		s.buckets[p[0]] = append(s.buckets[p[0]], int32(n))
		if s.minLen == 0 || len(p) < s.minLen {
			s.minLen = len(p)
		}
		s.maxLen = max(s.maxLen, len(p))
	}
	s.oneByte = distinct == 1
	return s
}

// altFor is the index into s.alts[n] an activation of rule n at altIndex
// applies, with Alternative's clamping.
func (s *Scanner) altFor(n int32, altIndex int) int {
	if altIndex < 0 || s.rules[n].Type == TypeRemove {
		return 0
	}
	return min(altIndex, len(s.alts[n])-1)
}

// Index is one page's occurrences of a scanner's rule defaults. It is
// immutable after Scanner.Index and safe for concurrent use.
type Index struct {
	page string
	s    *Scanner
	occ  []occurrences // by rule number; only rules that occur
}

// occurrences is where one rule's default occurs in a page, in ascending
// order; overflow marks a rule found more than maxCandidates times, whose
// positions are not kept. dirty[i] has bit a set when replacing the
// occurrence at pos[i] with the rule's alternative a leaves a junction window
// that some default of the whole rule set could straddle, judged once with
// the widest window any activation set uses; a clear bit spares every
// resolution that window's scan. Alternatives past the eighth read dirty.
type occurrences struct {
	rule     int32
	overflow bool
	pos      []int32
	dirty    []uint8
}

// cand is one occurrence of one rule's default in the scanned page.
type cand struct {
	rule int32
	pos  int32
}

var candPool = sync.Pool{New: func() any {
	s := make([]cand, 0, 128)
	return &s
}}

var outBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// Index scans page once for every rule's default.
func (s *Scanner) Index(page string) *Index {
	return &Index{page: page, s: s, occ: s.scan(page)}
}

// scan finds every occurrence of every default in one pass and groups them
// by rule. A page that matches nothing costs no allocation.
func (s *Scanner) scan(page string) []occurrences {
	if s.minLen == 0 || len(page) < s.minLen {
		return nil
	}
	var cands *[]cand
	var counts []int32 // per rule number, allocated with the first match
	add := func(rule int32, pos int) {
		if cands == nil {
			cands = candPool.Get().(*[]cand)
			counts = make([]int32, len(s.rules))
		}
		if counts[rule] > maxCandidates {
			return // already overflowed: keep no more positions
		}
		counts[rule]++
		*cands = append(*cands, cand{rule: rule, pos: int32(pos)})
	}
	match := func(bucket []int32, pos int) {
		for _, n := range bucket {
			p := s.rules[n].Default
			if pos+len(p) <= len(page) && page[pos:pos+len(p)] == p {
				add(n, pos)
			}
		}
	}
	if s.oneByte {
		bucket := s.buckets[s.theByte]
		for i := 0; ; {
			j := strings.IndexByte(page[i:], s.theByte)
			if j < 0 {
				break
			}
			match(bucket, i+j)
			i += j + 1
		}
	} else {
		for pos := 0; pos < len(page); pos++ {
			if bucket := s.buckets[page[pos]]; len(bucket) > 0 {
				match(bucket, pos)
			}
		}
	}
	if cands == nil {
		return nil
	}
	defer func() {
		*cands = (*cands)[:0]
		candPool.Put(cands)
	}()
	var occ []occurrences
	kept := 0
	for n, c := range counts {
		if c == 0 {
			continue
		}
		o := occurrences{rule: int32(n), overflow: c > maxCandidates}
		if !o.overflow {
			kept += int(c)
		}
		occ = append(occ, o)
	}
	// One counting-sort pass: counts becomes each kept rule's next slot in
	// backing (-1 for an overflowed rule), and the sweep order keeps every
	// rule's positions ascending.
	backing := make([]int32, kept)
	next := int32(0)
	for i := range occ {
		n := occ[i].rule
		if occ[i].overflow {
			counts[n] = -1
			continue
		}
		occ[i].pos = backing[next : next+counts[n] : next+counts[n]]
		counts[n], next = next, next+counts[n]
	}
	for _, c := range *cands {
		if slot := counts[c.rule]; slot >= 0 {
			backing[slot] = c.pos
			counts[c.rule]++
		}
	}
	dirty := make([]uint8, kept)
	next = 0
	for i := range occ {
		o := &occ[i]
		o.dirty = dirty[next : next+int32(len(o.pos)) : next+int32(len(o.pos))]
		next += int32(len(o.pos))
		pat := s.rules[o.rule].Default
		for k, p := range o.pos {
			for a := range min(len(s.alts[o.rule]), 8) {
				if !s.junctionClean(page, int(p), int(p)+len(pat), s.maxLen-1, s.alts[o.rule][a].text, nil) {
					o.dirty[k] |= 1 << a
				}
			}
		}
	}
	return occ
}

// junctionClean reports whether no default among the rules check accepts
// (every rule, for a nil check) occurs across the edges of page[start:end)
// replaced by rep, within ctx bytes of original page on each side: the text
// a later rule's sequential pass would rescan. Occurrences entirely inside
// the untouched context are original-page candidates the resolution
// already judged. A window clean against every rule at the widest ctx any
// set uses (maxLen-1) is clean for the later rules of any set, whose window
// it contains; Index keeps that verdict per occurrence and alternative.
func (s *Scanner) junctionClean(page string, start, end, ctx int, rep string, check func(n int32) bool) bool {
	if ctx <= 0 {
		return true // single-byte defaults cannot straddle a junction
	}
	buf := outBufPool.Get().(*[]byte)
	defer func() {
		*buf = (*buf)[:0]
		outBufPool.Put(buf)
	}()
	w := append((*buf)[:0], page[max(start-ctx, 0):start]...)
	lLen := len(w)
	w = append(w, rep...)
	rStart := len(w)
	w = append(w, page[end:min(end+ctx, len(page))]...)
	*buf = w
	for pos := range w {
		for _, n := range s.buckets[w[pos]] {
			p := s.rules[n].Default
			e := pos + len(p)
			if e <= len(w) && string(w[pos:e]) == p && e > lLen && pos < rStart && (check == nil || check(n)) {
				return false
			}
		}
	}
	return true
}

// Entries is how many of the scanner's rules occur on the page: at most the
// rule count, whatever the number of users served from it.
func (x *Index) Entries() int { return len(x.occ) }

// Occurs reports whether r's default occurs on the page. A rule the scanner
// does not hold reports true: nothing is known about it.
func (x *Index) Occurs(r *Rule) bool {
	n, ok := x.s.num[r]
	return !ok || x.find(n) != nil
}

// find returns rule n's occurrences, or nil when it does not occur.
func (x *Index) find(n int32) *occurrences {
	i := sort.Search(len(x.occ), func(i int) bool { return x.occ[i].rule >= n })
	if i < len(x.occ) && x.occ[i].rule == n {
		return &x.occ[i]
	}
	return nil
}

// Splice is one resolved rewrite of an indexed page.
type Splice struct {
	// Segments concatenate to the rewritten page: slices of the page itself
	// interleaved with replacement texts (one whole page after a sequential
	// fallback). Nil means the page is served untouched.
	Segments []string
	// Length is the summed length of Segments.
	Length int
	// Applied is what Apply(page, path, acts) returns beside the page: nil
	// exactly when Segments is. Hint is CacheHintValue(Applied).
	Applied []Applied
	Hint    string
	// Changed reports whether some replacement differs from the text it
	// replaced (an identity replacement applies a rule but changes nothing).
	// It is found without comparing bytes: false means the page's own bytes,
	// while replacements that happen to reassemble the page read true.
	Changed bool
	// Sequential marks a resolution the fast path declined, served by Apply:
	// its output may depend on every in-scope activation, not only on those
	// whose default occurs on the page.
	Sequential bool
}

// active is one in-scope activation during a resolution.
type active struct {
	rule  int32
	alt   int // index into the scanner's alts for rule
	rep   *replacement
	occ   *occurrences
	count int
}

// Resolve serves acts (in their order) on the indexed page at path: the
// splice is byte-identical to Apply(page, path, acts). It reads the index and
// writes nothing shared, so any number of resolutions may run at once.
func (x *Index) Resolve(acts []Activation, path string) Splice {
	var buf [8]active
	act, maxLen, held, fast := x.s.activeSet(acts, path, buf[:0])
	if !held {
		return x.sequential(acts, path)
	}
	found, total := false, 0
	for i := range act {
		if o := x.find(act[i].rule); o != nil {
			act[i].occ, found = o, true
			total += len(o.pos)
			if o.overflow {
				total += maxCandidates + 1
			}
		}
	}
	if !found {
		// No active default occurs: sub-rules fire only with their parent,
		// and a cascade needs a first replacement, so nothing can change.
		return Splice{}
	}
	if !fast || total > maxCandidates {
		return x.sequential(acts, path)
	}
	var spans [16]span
	accepted := x.claim(act, spans[:0])
	if !x.safe(act, accepted, maxLen) {
		return x.sequential(acts, path)
	}
	return x.assemble(act, accepted)
}

// activeSet lists the in-scope activations of acts, in order, into buf.
// held is false when one of them is a rule the scanner cannot search for
// (not its own, or an empty default): only the sequential reference knows
// what it does to a page. fast is false when the set needs the reference on
// any page one of its defaults occurs on: sub-rules, an invalid type, or a
// replacement containing another active rule's default.
func (s *Scanner) activeSet(acts []Activation, path string, buf []active) (act []active, maxLen int, held, fast bool) {
	act, fast = buf[:0], true
	for _, a := range acts {
		r := a.Rule
		if r == nil || !r.InScope(path) {
			continue
		}
		n, ok := s.num[r]
		if !ok || r.Default == "" {
			return nil, 0, false, false
		}
		if len(r.SubRules) > 0 || !r.Type.Valid() {
			fast = false
		}
		alt := s.altFor(n, a.AltIndex)
		act = append(act, active{rule: n, alt: alt, rep: &s.alts[n][alt]})
		maxLen = max(maxLen, len(r.Default))
	}
	return act, maxLen, true, fast && !interferes(act)
}

// sequential is the reference fallback, shaped as a splice.
func (x *Index) sequential(acts []Activation, path string) Splice {
	out, applied := Apply(x.page, path, acts)
	if applied == nil {
		return Splice{Sequential: true}
	}
	return Splice{Segments: []string{out}, Length: len(out), Applied: applied, Hint: CacheHintValue(applied), Changed: out != x.page, Sequential: true}
}

// interferes reports whether some active rule's replacement contains the
// default of another active rule: a cascade one pass cannot reproduce.
func interferes(act []active) bool {
	for i := range act {
		for _, q := range act[i].rep.contains {
			for j := range act {
				if j != i && act[j].rule == q {
					return true
				}
			}
		}
	}
	return false
}

// span is one accepted replacement: page[start:end), the owner's occurrence
// number occ, becomes act[owner]'s replacement.
type span struct {
	start, end int32
	owner, occ int32
}

// claim selects which occurrences actually replace, reproducing the
// sequential discipline: rules claim matches in activation order, each rule
// left to right, and an occurrence overlapping an already-claimed region is
// skipped — exactly what per-rule strings.ReplaceAll passes would do on the
// regions of the page that survive to that rule's turn.
func (x *Index) claim(act []active, accepted []span) []span {
	for i := range act {
		if act[i].occ == nil {
			continue
		}
		patLen := int32(len(x.s.rules[act[i].rule].Default))
		for k, s := range act[i].occ.pos {
			e := s + patLen
			// First accepted span ending after s; overlap iff it starts
			// before e.
			at := sort.Search(len(accepted), func(j int) bool { return accepted[j].end > s })
			if at < len(accepted) && accepted[at].start < e {
				continue
			}
			accepted = append(accepted, span{})
			copy(accepted[at+1:], accepted[at:])
			accepted[at] = span{start: s, end: e, owner: int32(i), occ: int32(k)}
			act[i].count++
		}
	}
	return accepted
}

// safe verifies the accepted resolution is reproducible in one pass: no
// later rule's default may match across the edges of an earlier replacement
// (a junction the sequential pass would rescan), and no two replacements may
// land close enough for one's junction window to reach into the other's
// rewritten text.
func (x *Index) safe(act []active, accepted []span, maxLen int) bool {
	ctx := maxLen - 1
	for i := 1; i < len(accepted); i++ {
		if int(accepted[i].start-accepted[i-1].end) < ctx {
			return false
		}
	}
	for _, sp := range accepted {
		a := &act[sp.owner]
		if a.alt < 8 && a.occ.dirty[sp.occ]&(1<<a.alt) == 0 {
			continue // judged clean against every rule at indexing
		}
		later := func(n int32) bool {
			for _, l := range act[sp.owner+1:] {
				if l.rule == n {
					return true
				}
			}
			return false
		}
		if !x.s.junctionClean(x.page, int(sp.start), int(sp.end), ctx, a.rep.text, later) {
			return false
		}
	}
	return true
}

// assemble lays the accepted spans out as segments, and the Applied records
// in activation order with the same zero-record semantics as the sequential
// Apply.
func (x *Index) assemble(act []active, accepted []span) Splice {
	page := x.page
	sp := Splice{Segments: make([]string, 0, 2*len(accepted)+1)}
	pos := 0
	for _, a := range accepted {
		if int(a.start) > pos {
			sp.Segments = append(sp.Segments, page[pos:a.start])
		}
		rep := act[a.owner].rep
		failpoint(x.s.rules[act[a.owner].rule].ID)
		if rep.text != "" {
			sp.Segments = append(sp.Segments, rep.text)
		}
		sp.Changed = sp.Changed || !rep.identity
		sp.Length += len(rep.text) - int(a.end-a.start)
		pos = int(a.end)
	}
	if pos < len(page) {
		sp.Segments = append(sp.Segments, page[pos:])
	}
	sp.Length += len(page)
	sp.Applied = make([]Applied, len(act))
	hinted := 0
	for i, a := range act {
		sp.Applied[i] = Applied{RuleID: x.s.rules[a.rule].ID}
		if a.count > 0 {
			sp.Applied[i].Replacements = a.count
			sp.Applied[i].CacheHints = a.rep.hints
			if a.rep.hint != "" {
				sp.Hint = a.rep.hint
				hinted++
			}
		}
	}
	if hinted > 1 {
		sp.Hint = CacheHintValue(sp.Applied)
	}
	return sp
}

// Applier is an activation set compiled for one page path: a scanner over
// the set's in-scope rules, indexing each page it is given and resolving the
// set on it. It is immutable after NewApplier and safe for concurrent use.
type Applier struct {
	s    *Scanner
	acts []Activation
	path string
}

// NewApplier compiles the activations that are in scope for path. The
// returned applier's Apply(page) is byte-identical to
// Apply(page, path, acts) for every page.
func NewApplier(acts []Activation, path string) *Applier {
	var in []*Rule
	for _, act := range acts {
		if act.Rule != nil && act.Rule.InScope(path) {
			in = append(in, act.Rule)
		}
	}
	return &Applier{s: NewScanner(in), acts: append([]Activation(nil), acts...), path: path}
}

// Fast reports whether the set resolves in a single pass on pages where the
// junction guards hold (false means every page that matches runs the
// sequential reference).
func (a *Applier) Fast() bool {
	_, _, held, fast := a.s.activeSet(a.acts, a.path, nil)
	return held && fast
}

// Apply rewrites page exactly as Apply(page, path, acts) would, in a single
// scan when the compiled fast path holds. The unmodified page is returned
// as-is (same string, no allocation) when nothing matches.
func (a *Applier) Apply(page string) (string, []Applied) {
	x := Index{page: page, s: a.s, occ: a.s.scan(page)}
	sp := x.Resolve(a.acts, a.path)
	if sp.Segments == nil {
		return page, nil
	}
	return strings.Join(sp.Segments, ""), sp.Applied
}

// Digest is a canonical digest of a rule set's rewriting content: every
// rule's ID, type, default text, alternatives and sub-rules, in ID order.
// Scopes and TTLs decide which activations are live, not what a live one
// writes, so they are left out. Equal digests mean any page rewrites to the
// same bytes under the same activation list.
func Digest(rs []*Rule) [sha256.Size]byte {
	sorted := append([]*Rule(nil), rs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	h := sha256.New()
	var n [binary.MaxVarintLen64]byte
	field := func(s string) {
		h.Write(n[:binary.PutUvarint(n[:], uint64(len(s)))])
		h.Write([]byte(s))
	}
	count := func(c int) { h.Write(n[:binary.PutUvarint(n[:], uint64(c))]) }
	count(len(sorted))
	for _, r := range sorted {
		field(r.ID)
		count(int(r.Type))
		field(r.Default)
		count(len(r.Alternatives))
		for _, alt := range r.Alternatives {
			field(alt)
		}
		count(len(r.SubRules))
		for _, sub := range r.SubRules {
			field(sub.Find)
			field(sub.Replace)
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
