package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oak/internal/obs"
	"oak/internal/rules"
)

// The serve path. A page body is registered once (SetPage) and indexed once,
// on its first serve: where every rule's default occurs (rules.Scanner.Index)
// and the body's ContentTag. Each serve derives the user's live in-scope
// activations under the shard's read lock and resolves them on the index
// into a Plan, so no serve scans, hashes, compares or copies the page, and
// the engine holds nothing per rewrite: the index is bounded by pages ×
// rules, whatever the number of users.

// Page is one registered page body, indexed and tagged on its first serve.
type Page struct {
	path    string
	html    string
	whole   []string // {html}: the untouched plan's segments
	scanner *rules.Scanner

	once sync.Once
	idx  atomic.Pointer[rules.Index]
	tag  string
}

// prepare indexes the page and tags its bytes, the first time it is asked.
func (p *Page) prepare() *rules.Index {
	p.once.Do(func() {
		p.tag = ContentTag(p.html)
		p.idx.Store(p.scanner.Index(p.html))
	})
	return p.idx.Load()
}

// Untouched serves the page's own bytes under its own tag: what a server
// falls back to when a rewrite cannot be waited for.
func (p *Page) Untouched() Plan {
	p.prepare()
	return Plan{Segments: p.whole, Length: len(p.html), ETag: p.tag}
}

// Plan is one user's response for one page.
type Plan struct {
	// Segments concatenate to the body: slices of the page and replacement
	// texts, shared and read-only.
	Segments []string
	// Length is the body's length (Content-Length).
	Length int
	// Applied records what each in-scope rule did; nil when no rule
	// replaced anything (see rules.Apply).
	Applied []rules.Applied
	// Hint is the X-Oak-Alternate header value ("" when no Type 2 rule
	// contributed hints).
	Hint string
	// ETag is the page's ContentTag for the page's own bytes, otherwise one
	// derived from what decides them (derivedTag): equal tags mean equal
	// bytes on every engine built from the same rule set, restarts included.
	// It is "" for a body built on the panic path.
	ETag string

	changed bool // rules.Splice.Changed: a rule replaced text with other text
}

// SetPage registers (or replaces) the body served at path. It is indexed on
// its first serve, so registering pages at boot scans and hashes nothing.
func (e *Engine) SetPage(path, html string) {
	p := &Page{path: path, html: html, whole: []string{html}, scanner: e.scanner}
	e.pagesMu.Lock()
	e.pages[path] = p
	e.pagesMu.Unlock()
}

// RemovePage deletes the page registered at path, and its index.
func (e *Engine) RemovePage(path string) {
	e.pagesMu.Lock()
	delete(e.pages, path)
	e.pagesMu.Unlock()
}

// Page returns the page registered at path, or nil.
func (e *Engine) Page(path string) *Page {
	e.pagesMu.RLock()
	p := e.pages[path]
	e.pagesMu.RUnlock()
	return p
}

// Pages returns the registered page paths, sorted.
func (e *Engine) Pages() []string {
	e.pagesMu.RLock()
	out := make([]string, 0, len(e.pages))
	for path := range e.pages {
		out = append(out, path)
	}
	e.pagesMu.RUnlock()
	sort.Strings(out)
	return out
}

// PageIndexEntries sums, over the pages served so far, how many rules occur
// on each: the serve path's only memory, at most pages × rules.
func (e *Engine) PageIndexEntries() int {
	e.pagesMu.RLock()
	defer e.pagesMu.RUnlock()
	n := 0
	for _, p := range e.pages {
		if idx := p.idx.Load(); idx != nil {
			n += idx.Entries()
		}
	}
	return n
}

// ServePage plans userID's response for the registered page p. With wait
// false it never blocks and never touches the disk: if the user's shard lock
// is held (ingest in progress) or their activations are in a spilled record
// it returns ok=false, and the caller decides how long to wait for ServePage
// with wait true, which always answers (a spilled record is read in place).
func (e *Engine) ServePage(userID string, p *Page, wait bool) (plan Plan, ok bool) {
	start := time.Now()
	var buf [viewBufLen]rules.Activation
	v, ok := e.view(userID, p.path, wait, buf[:0])
	if !ok {
		return Plan{}, false
	}
	plan = e.plan(v, p, p.prepare(), true)
	e.observeRewrite(userID, p.path, start, plan)
	return plan, true
}

// view derives userID's activation view for path; without wait, only if the
// shard's read lock is free and the view needs no disk.
func (e *Engine) view(userID, path string, wait bool, buf []rules.Activation) (actView, bool) {
	if wait {
		return e.activationView(userID, path, buf), true
	}
	sh := e.shardFor(userID)
	if !sh.mu.TryRLock() {
		return actView{}, false
	}
	v, ok := e.activationViewLocked(sh, userID, path, false, buf)
	sh.mu.RUnlock()
	return v, ok
}

// plan resolves view v on page p's index. tagged is false for a page the
// engine does not hold, whose bytes it never hashed.
func (e *Engine) plan(v actView, p *Page, idx *rules.Index, tagged bool) Plan {
	var sp rules.Splice
	clean := true
	if v.fp != 0 {
		sp, clean = e.resolveSafely(v, p.path, p.html, idx)
	}
	if sp.Segments == nil {
		return Plan{Segments: p.whole, Length: len(p.html), ETag: p.tag}
	}
	plan := Plan{
		Segments: sp.Segments, Length: sp.Length, Applied: sp.Applied,
		Hint: sp.Hint, changed: sp.Changed,
	}
	if clean && tagged {
		plan.ETag = e.derivedTag(p.tag, v.acts, idx, sp.Sequential)
	}
	return plan
}

// derivedTag is the entity tag of a rewritten body, derived from what
// decides its bytes: the page's tag, the rule set's digest,
// rules.ApplyVersion, and the activations, in serve order, whose defaults
// occur on the page — every in-scope one after a sequential fallback, where
// a rule absent from the page can still match text an earlier replacement
// introduced. Users who differ only in activations that change nothing
// share a tag, as they share the bytes.
func (e *Engine) derivedTag(pageTag string, acts []rules.Activation, idx *rules.Index, sequential bool) string {
	var buf [512]byte
	b := append(buf[:0], "oak-splice\x00"...)
	b = binary.AppendUvarint(b, rules.ApplyVersion)
	b = append(b, pageTag...)
	b = append(b, e.ruleDigest[:]...)
	if sequential {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	for _, a := range acts {
		if !sequential && !idx.Occurs(a.Rule) {
			continue
		}
		b = binary.AppendUvarint(b, uint64(len(a.Rule.ID)))
		b = append(b, a.Rule.ID...)
		b = binary.AppendVarint(b, int64(a.AltIndex))
	}
	sum := sha256.Sum256(b)
	return quotedTag(sum[:16])
}

// ContentTag is the entity tag of a page body: a quoted strong validator
// over the first 128 bits of the body's SHA-256, the same in every process.
// The engine computes it once per registered page, on its first serve.
func ContentTag(body string) string {
	h := sha256.New()
	_, _ = io.WriteString(h, body) // a hash.Hash never fails a write
	return quotedTag(h.Sum(nil)[:16])
}

func quotedTag(sum []byte) string {
	var out [34]byte
	out[0], out[33] = '"', '"'
	hex.Encode(out[1:33], sum)
	return string(out[:])
}

// resolveSafely is the serve path's panic-isolated rewrite: the view is
// resolved on the index under recover(); if that panics, the activations are
// re-applied one rule at a time through the sequential reference, each
// individually recovered (quarantined rules skipped, panicking rules
// attributed via noteRulePanic), so the worst case is the unmodified page —
// never a failed request. clean is false when any panic occurred: such a
// body gets no entity tag, so a client cannot pin the degraded bytes. Caller
// holds no shard lock: a rule crossing the panic threshold is rolled back
// from here.
func (e *Engine) resolveSafely(v actView, path, page string, idx *rules.Index) (sp rules.Splice, clean bool) {
	clean = true
	func() {
		defer func() {
			if r := recover(); r != nil {
				clean = false
				e.metrics.RewritePanics.Inc()
				if e.logf != nil {
					e.logf("core: recovered rewrite panic (splice, path %s): %v", path, r)
				}
			}
		}()
		sp = idx.Resolve(v.acts, path)
	}()
	if clean {
		return sp, true
	}
	// Degraded pass: per-rule sequential application so one poisoned rule
	// cannot take the others down with it.
	out := page
	var applied []rules.Applied
	for _, act := range v.acts {
		if act.Rule == nil {
			continue
		}
		id := act.Rule.ID
		if e.guard != nil && e.guard.RuleQuarantined(id) {
			continue
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					e.metrics.RewritePanics.Inc()
					if e.logf != nil {
						e.logf("core: recovered rewrite panic (rule %s, path %s): %v", id, path, r)
					}
					e.noteRulePanic(id)
				}
			}()
			next, ap := rules.Apply(out, path, []rules.Activation{act})
			out = next
			applied = append(applied, ap...)
		}()
	}
	if applied == nil {
		return rules.Splice{}, false
	}
	return rules.Splice{Segments: []string{out}, Length: len(out), Applied: applied, Hint: rules.CacheHintValue(applied), Changed: out != page}, false
}

// observeRewrite does the per-serve accounting: latency histogram, page
// counters, and (only when tracing is on) the trace event.
func (e *Engine) observeRewrite(userID, path string, start time.Time, plan Plan) {
	e.rewriteHist.Observe(time.Since(start))
	if plan.changed {
		e.metrics.PagesModified.Inc()
		if e.tracing() {
			e.trace(obs.Event{
				Kind: obs.EventRewrite, User: userID,
				Detail: fmt.Sprintf("page %s: %d rules applied", path, len(plan.Applied)),
			})
		}
	} else {
		e.metrics.PagesUntouched.Inc()
	}
}

// Rewrite is a Plan as one string: what RewritePage and RewriteCached
// return. HTML is the input string itself when no rule changed anything;
// ETag is "" for the untouched page and for a page the engine does not hold.
type Rewrite struct {
	HTML    string
	Applied []rules.Applied
	Hint    string
	// Deprecated: there is no rewrite cache; CacheHit is always false. It
	// stays until the benchmark stops reading it.
	CacheHit bool
	ETag     string
}

// ModifyPage rewrites an outgoing page for the user (Section 4.3): Type 1
// rules remove their text, Types 2/3 replace it, sub-rules of applied rules
// fire, and Type 2 applications yield cache hints for the X-Oak-Alternate
// header.
func (e *Engine) ModifyPage(userID, path, page string) (string, []rules.Applied) {
	rw := e.RewritePage(userID, path, page)
	return rw.HTML, rw.Applied
}

// RewritePage is ModifyPage with the full result, an adapter over the plan:
// the body registered at path is served from its index; any other page is
// indexed for this call alone. A user with nothing to apply allocates
// nothing.
func (e *Engine) RewritePage(userID, path, page string) Rewrite {
	rw, _ := e.rewrite(userID, path, page, true)
	return rw
}

// RewriteCached is RewritePage as ServePage without wait: ok=false instead
// of blocking or reading the disk.
func (e *Engine) RewriteCached(userID, path, page string) (Rewrite, bool) {
	return e.rewrite(userID, path, page, false)
}

func (e *Engine) rewrite(userID, path, page string, wait bool) (Rewrite, bool) {
	start := time.Now()
	var buf [viewBufLen]rules.Activation
	v, ok := e.view(userID, path, wait, buf[:0])
	if !ok {
		return Rewrite{}, false
	}
	var plan Plan
	if v.fp != 0 {
		if p := e.Page(path); p != nil && p.html == page {
			plan = e.plan(v, p, p.prepare(), true)
		} else {
			p = &Page{path: path, html: page}
			plan = e.plan(v, p, e.scanner.Index(page), false)
		}
	}
	e.observeRewrite(userID, path, start, plan)
	if plan.Applied == nil {
		return Rewrite{HTML: page}, true
	}
	return Rewrite{HTML: strings.Join(plan.Segments, ""), Applied: plan.Applied, Hint: plan.Hint, ETag: plan.ETag}, true
}

// Deprecated: there is no rewrite cache; every field reads zero. The type
// stays until the benchmark stops reading it.
type RewriteCacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Bytes  int64  `json:"bytes"`
}

// Deprecated: there is no rewrite cache, so the option does nothing. It
// stays until the benchmark stops passing it.
func WithRewriteCache(entries int) Option { return func(*Engine) {} }

// Deprecated: there is no rewrite cache; it returns zeroes.
func (e *Engine) RewriteCacheStats() RewriteCacheStats { return RewriteCacheStats{} }
