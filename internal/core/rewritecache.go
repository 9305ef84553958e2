package core

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"hash/maphash"
	"io"
	"sync"

	"oak/internal/obs"
	"oak/internal/rules"
)

// The rewrite cache memoizes whole page rewrites keyed by (page content
// hash, activation fingerprint). Because the fingerprint covers the
// rule-set generation, the page path, and every (rule ID, alternative)
// pair, two requests hit the same entry exactly when the rewrite would be
// byte-identical — so a hit can serve the stored page, Applied records, and
// precomputed X-Oak-Alternate header without touching the rules at all.
// Invalidation is implicit: an activation change produces a new
// fingerprint, a page change a new content hash; stale entries age out of
// the LRU. FlushRewriteCache drops everything eagerly on page-registry
// changes.

// rewriteCacheShards stripes the LRU so concurrent serves for different
// pages rarely contend on one mutex.
const rewriteCacheShards = 16

// RewriteCacheStats is a point-in-time view of the rewrite cache's
// counters (all zero when the cache is disabled).
type RewriteCacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Bytes approximates resident cache memory: per entry the source page,
	// the rewritten page, and the header value.
	Bytes   int64 `json:"bytes"`
	Entries int   `json:"entries"`
	// Enabled reports whether a cache is configured at all.
	Enabled bool `json:"enabled"`
}

type rewriteKey struct {
	page uint64 // maphash of the page content
	fp   uint64 // activation fingerprint
}

type rewriteEntry struct {
	key rewriteKey
	// src is the exact source page the entry was computed from; lookups
	// verify src against the requested page so a hash collision can never
	// serve the wrong rewrite. Registry pages are interned strings, so the
	// comparison is a pointer check in the steady state.
	src     string
	html    string
	applied []rules.Applied
	hint    string
	// tag is ContentTag(html), computed once when the entry is stored.
	tag string
}

// ContentTag is the entity tag of a page body: a quoted strong validator
// over the first 128 bits of the body's SHA-256. It depends on the bytes
// alone — no per-process seed — so every backend, before and after a
// restart, gives the same bytes the same tag, and a holder of those bytes
// anywhere in the cluster can be told "you have it" by any of them. It
// hashes the whole body: callers compute it once per stored body, never per
// request.
func ContentTag(body string) string {
	h := sha256.New()
	_, _ = io.WriteString(h, body) // a hash.Hash never fails a write
	return `"` + hex.EncodeToString(h.Sum(nil)[:16]) + `"`
}

func (en *rewriteEntry) bytes() int64 {
	return int64(len(en.src) + len(en.html) + len(en.hint))
}

type rcShard struct {
	mu      sync.Mutex
	entries map[rewriteKey]*list.Element
	order   *list.List // front = most recently used
	cap     int
}

type rewriteCache struct {
	seed   maphash.Seed
	shards [rewriteCacheShards]rcShard

	hits      obs.Counter
	misses    obs.Counter
	evictions obs.Counter
	bytes     obs.Gauge
	entries   obs.Gauge
}

// newRewriteCache builds a cache bounded to totalEntries across its shards.
func newRewriteCache(totalEntries int) *rewriteCache {
	c := &rewriteCache{seed: maphash.MakeSeed()}
	per := (totalEntries + rewriteCacheShards - 1) / rewriteCacheShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = rcShard{
			entries: make(map[rewriteKey]*list.Element),
			order:   list.New(),
			cap:     per,
		}
	}
	return c
}

// hash fingerprints page content. maphash reads the string directly —
// no []byte conversion, no allocation.
func (c *rewriteCache) hash(page string) uint64 {
	return maphash.String(c.seed, page)
}

func (c *rewriteCache) shardFor(key rewriteKey) *rcShard {
	return &c.shards[key.page%rewriteCacheShards]
}

// get returns the cached rewrite for key if present and computed from
// exactly this page.
func (c *rewriteCache) get(key rewriteKey, page string) (*rewriteEntry, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	el, ok := s.entries[key]
	if ok {
		en := el.Value.(*rewriteEntry)
		if en.src == page {
			s.order.MoveToFront(el)
			s.mu.Unlock()
			c.hits.Inc()
			return en, true
		}
	}
	s.mu.Unlock()
	c.misses.Inc()
	return nil, false
}

// put stores a computed rewrite under its content tag, which it returns,
// evicting least-recently-used entries past the shard's capacity.
func (c *rewriteCache) put(key rewriteKey, src string, html string, applied []rules.Applied, hint string) string {
	en := &rewriteEntry{key: key, src: src, html: html, applied: applied, hint: hint, tag: ContentTag(html)}
	s := c.shardFor(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		old := el.Value.(*rewriteEntry)
		c.bytes.Add(en.bytes() - old.bytes())
		el.Value = en
		s.order.MoveToFront(el)
		s.mu.Unlock()
		return en.tag
	}
	s.entries[key] = s.order.PushFront(en)
	c.bytes.Add(en.bytes())
	c.entries.Add(1)
	evicted := 0
	for s.order.Len() > s.cap {
		back := s.order.Back()
		old := back.Value.(*rewriteEntry)
		s.order.Remove(back)
		delete(s.entries, old.key)
		c.bytes.Add(-old.bytes())
		c.entries.Add(-1)
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(uint64(evicted))
	}
	return en.tag
}

// flush drops every entry (page registry changed).
func (c *rewriteCache) flush() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n := int64(len(s.entries))
		var freed int64
		for _, el := range s.entries {
			freed += el.Value.(*rewriteEntry).bytes()
		}
		s.entries = make(map[rewriteKey]*list.Element)
		s.order.Init()
		s.mu.Unlock()
		c.bytes.Add(-freed)
		c.entries.Add(-n)
	}
}

func (c *rewriteCache) stats() RewriteCacheStats {
	return RewriteCacheStats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evictions: c.evictions.Value(),
		Bytes:     c.bytes.Value(),
		Entries:   int(c.entries.Value()),
		Enabled:   true,
	}
}

// WithRewriteCache bounds the engine's rewrite cache to entries cached
// rewrites (whole rewritten pages keyed by page content + activation
// fingerprint). entries <= 0 disables the cache entirely; serving behavior
// is then identical, every page just recomputes its rewrite.
func WithRewriteCache(entries int) Option {
	return func(e *Engine) {
		if entries <= 0 {
			e.rewriteCache = nil
			return
		}
		e.rewriteCache = newRewriteCache(entries)
	}
}

// RewriteCacheStats snapshots the rewrite cache counters (zero-valued,
// Enabled=false, when no cache is configured).
func (e *Engine) RewriteCacheStats() RewriteCacheStats {
	if e.rewriteCache == nil {
		return RewriteCacheStats{}
	}
	return e.rewriteCache.stats()
}

// FlushRewriteCache drops every cached rewrite. The origin server calls it
// when the page registry changes (SetPage/RemovePage/LoadPages); content
// hashes make stale entries unreachable anyway, so this is about releasing
// their memory promptly, not correctness.
func (e *Engine) FlushRewriteCache() {
	if e.rewriteCache != nil {
		e.rewriteCache.flush()
	}
}
