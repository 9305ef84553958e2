package gateway

import (
	"bytes"
	"container/list"
	"strings"
	"sync"

	"oak/internal/obs"
)

// The edge variant cache keeps the page bodies the gateway has relayed,
// under the content entity tags the backends gave them, so that a backend
// can answer "the one tagged T" instead of shipping T's bytes again. It
// decides nothing: every page request still goes to the user's backend,
// which picks the variant for that user at that instant; the cache only
// offers the tags it holds and serves the one the backend names in the same
// exchange. A tag is a hash of the body (core.ContentTag), so a variant is
// right for as long as anything names it: a page that changed, or a rule
// that expired, is simply never named again and ages out.
//
// The bounds are fixed: a working set of pages × live activation variants
// beyond them still works, it just revalidates less (see the evictions and
// refetches counters).
const (
	// edgeVariantsPerPath bounds the variants held, and so the tags offered
	// in If-None-Match, per page path.
	edgeVariantsPerPath = 8
	// edgeMaxBytes bounds the summed body bytes held.
	edgeMaxBytes = 64 << 20
)

// edgeVariant is one held body. It is immutable once stored — body is the
// cache's own copy, never a pooled buffer — so it is served without the lock.
type edgeVariant struct {
	path, tag, contentType string
	body                   []byte
	el                     *list.Element // position in edgeCache.lru
}

type edgeCache struct {
	maxVariants int
	maxBytes    int64

	mu sync.Mutex
	// paths lists each path's variants, most recently named first; lru
	// orders every variant the same way across paths.
	paths map[string][]*edgeVariant
	lru   *list.List

	hits      obs.Counter // pages served from a held variant
	fills     obs.Counter // bodies stored
	refetches obs.Counter // 304s that named nothing servable: fetched again in full
	evictions obs.Counter
	bytes     obs.Gauge
	variants  obs.Gauge
}

func newEdgeCache() *edgeCache {
	return &edgeCache{
		maxVariants: edgeVariantsPerPath,
		maxBytes:    edgeMaxBytes,
		paths:       make(map[string][]*edgeVariant),
		lru:         list.New(),
	}
}

// offer is the If-None-Match value for a backend page GET: the tags held for
// path plus whatever the client itself offered; "" when there is neither.
func (c *edgeCache) offer(path string, client []string) string {
	var b strings.Builder
	c.mu.Lock()
	b.Grow(36 * len(c.paths[path])) // a tag is 34 bytes, plus ", "
	for _, v := range c.paths[path] {
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.tag)
	}
	c.mu.Unlock()
	for _, line := range client {
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		b.WriteString(line)
	}
	return b.String()
}

// get returns the variant of path tagged tag, if held, and counts the hit.
func (c *edgeCache) get(path, tag string) *edgeVariant {
	c.mu.Lock()
	defer c.mu.Unlock()
	vs := c.paths[path]
	for i, v := range vs {
		if v.tag == tag {
			copy(vs[1:i+1], vs[:i])
			vs[0] = v
			c.lru.MoveToFront(v.el)
			c.hits.Inc()
			return v
		}
	}
	return nil
}

// put stores a copy of body as path's variant tagged tag, unless it is held
// already or could never fit, then evicts down to both bounds.
func (c *edgeCache) put(path, tag, contentType string, body []byte) {
	if int64(len(body)) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, v := range c.paths[path] {
		if v.tag == tag {
			return
		}
	}
	v := &edgeVariant{path: path, tag: tag, contentType: contentType, body: bytes.Clone(body)}
	v.el = c.lru.PushFront(v)
	c.paths[path] = append([]*edgeVariant{v}, c.paths[path]...)
	c.fills.Inc()
	c.bytes.Add(int64(len(v.body)))
	c.variants.Add(1)
	if vs := c.paths[path]; len(vs) > c.maxVariants {
		c.evict(vs[len(vs)-1])
	}
	for c.bytes.Value() > c.maxBytes {
		c.evict(c.lru.Back().Value.(*edgeVariant))
	}
}

// evict drops v. Requests already serving v.body keep their reference.
func (c *edgeCache) evict(v *edgeVariant) {
	vs := c.paths[v.path]
	for i := range vs {
		if vs[i] == v {
			vs = append(vs[:i], vs[i+1:]...)
			break
		}
	}
	if len(vs) == 0 {
		delete(c.paths, v.path)
	} else {
		c.paths[v.path] = vs
	}
	c.lru.Remove(v.el)
	c.evictions.Inc()
	c.bytes.Add(-int64(len(v.body)))
	c.variants.Add(-1)
}
