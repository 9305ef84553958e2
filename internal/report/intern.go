package report

import (
	"hash/maphash"
	"sync/atomic"
)

// The intern table: one process-wide, fixed-size map from a string token on
// the wire to the canonical Go string for it, shared by the JSON and OAKRPT1
// decoders. A site's reports are written in a small vocabulary — the URLs of
// the objects its pages embed, the addresses and kinds of the providers that
// serve them, its page paths — repeated by every user on every load, so a
// decoder that has seen a token before hands out the string it already made
// instead of allocating it again, and a URL's entry also carries the host
// extracted from it, so hostOf runs once per distinct URL, not once per
// entry.
//
// The table is a cache, not a registry: internBuckets buckets of internWays
// entries, indexed by a seeded hash of the token's bytes (a client cannot
// aim tokens at one bucket), and an insertion drops the bucket's oldest
// entry. Entries are immutable once published and buckets hold atomic
// pointers to them, so a hit is a few loads and a compare and takes no lock;
// a miss allocates the entry and publishes it with plain stores — two
// decoders racing on one bucket may lose one of their insertions, which
// costs a later miss and nothing else. An entry's string is always a copy,
// never a view of the request body: bodies live in pooled buffers that the
// next request overwrites. And an entry keeps at most maxInternLen bytes
// alive — the token, plus its host on the rare URL whose host url.Parse had
// to build (a host the fast scan finds is a substring of the URL) — so a
// longer token is never kept: it is almost always unique (a cache-buster, a
// tracking query), and a hostile 4 MB URL must not be pinned in memory
// bucket after bucket. The table and everything it keeps alive therefore
// stay under internBuckets*internWays*(maxInternLen+48) bytes plus the 32 KB
// of pointers — 884 KB — whatever the traffic; TestInternTableIsBounded
// asserts it. The userId is not interned: it has one value per user, not per
// site, and would evict the vocabulary the table exists for.
const (
	internBuckets = 1024 // a power of two
	internWays    = 4
	maxInternLen  = 160
)

// internEntry is one canonical string. host is meaningful only when
// hostKnown is set, which it is for every token first met as an entry URL.
type internEntry struct {
	hash      uint64
	s         string
	host      string
	hostKnown bool
}

type internBucket [internWays]atomic.Pointer[internEntry]

var (
	internSeed  = maphash.MakeSeed()
	internTable [internBuckets]internBucket
)

// internFind returns the bucket tok hashes to and, when the table holds tok,
// its entry and the way it sits in.
func internFind(tok []byte) (b *internBucket, e *internEntry, way int, h uint64) {
	h = maphash.Bytes(internSeed, tok)
	b = &internTable[h&(internBuckets-1)]
	for way = range b {
		if e = b[way].Load(); e != nil && e.hash == h && e.s == string(tok) {
			return b, e, way, h
		}
	}
	return b, nil, 0, h
}

// insert publishes e as the bucket's newest entry, dropping its oldest.
func (b *internBucket) insert(e *internEntry) {
	for way := internWays - 1; way > 0; way-- {
		b[way].Store(b[way-1].Load())
	}
	b[0].Store(e)
}

// internString returns the canonical string equal to tok.
func internString(tok []byte) string {
	if len(tok) == 0 {
		return ""
	}
	if len(tok) > maxInternLen {
		return string(tok)
	}
	b, e, _, h := internFind(tok)
	if e == nil {
		e = &internEntry{hash: h, s: string(tok)}
		b.insert(e)
	}
	return e.s
}

// internURL returns the canonical string equal to tok and the host of that
// URL, with url.Parse(...).Hostname() semantics.
func internURL(tok []byte) (url, host string) {
	if len(tok) == 0 {
		return "", ""
	}
	if len(tok) > maxInternLen {
		url = string(tok)
		return url, hostOf(url)
	}
	b, e, way, h := internFind(tok)
	if e != nil && e.hostKnown {
		return e.s, e.host
	}
	if e != nil {
		url = e.s // first met as some other field: the same string, now with its host
	} else {
		url = string(tok)
	}
	host = hostOf(url)
	if _, sub := fastHost(url); !sub && len(url)+len(host) > maxInternLen {
		return url, host // url.Parse built the host: it counts against the entry's bytes
	}
	ne := &internEntry{hash: h, s: url, host: host, hostKnown: true}
	if e != nil {
		b[way].Store(ne)
	} else {
		b.insert(ne)
	}
	return url, host
}
