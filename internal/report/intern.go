package report

import (
	"hash/maphash"
	"strings"
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
// costs a later miss and nothing else. An entry is replaced, never changed:
// a URL's entry is republished with its host when the URL was first met as
// another field, and with each continuation it records, by a compare-and-swap
// in the way it sits in. An entry's string is always a copy,
// never a view of the request body: bodies live in pooled buffers that the
// next request overwrites.
//
// An entry is one 48-byte struct and one string, s, which holds the token
// and, for a URL, whatever else the entry remembers: the host when url.Parse
// had to build it (a host the fast scan finds is a substring of the URL),
// and the bytes of the URL's continuation (decode.go). Everything else is an
// offset into s. So an entry keeps at most maxInternLen bytes alive, and a
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
	maxInternLen  = 160 // under 256: every offset into s is a uint8
)

// internEntry is one canonical string, s[:n]. host is meaningful only when
// hostKnown is set, which it is for every token first met as an entry URL;
// size and cont only when cont.seen is not zero.
type internEntry struct {
	hash      uint64
	s         string
	size      int64 // the continuation's sizeBytes
	n         uint8
	host      span
	hostKnown bool
	cont      continuation
}

// span is a run of an entry's s.
type span struct{ off, len uint8 }

func (p span) end() int           { return int(p.off) + int(p.len) }
func (p span) of(s string) string { return s[p.off:p.end()] }

func (e *internEntry) token() string    { return e.s[:e.n] }
func (e *internEntry) hostname() string { return e.host.of(e.s) }

// prefix is how much of s is the token and its built host: where a
// continuation's bytes start.
func (e *internEntry) prefix() int { return max(int(e.n), e.host.end()) }

type internBucket [internWays]atomic.Pointer[internEntry]

var (
	internSeed  = maphash.MakeSeed()
	internTable [internBuckets]internBucket
)

// internFind returns the bucket tok hashes to and, when the table holds tok,
// its entry. w, when not nil, counts the probe.
func internFind(w *work, tok []byte) (b *internBucket, e *internEntry, h uint64) {
	h = maphash.Bytes(internSeed, tok)
	if w != nil {
		w.probes++
		w.hashed += len(tok)
	}
	b = &internTable[h&(internBuckets-1)]
	for way := range b {
		if e = b[way].Load(); e != nil && e.hash == h && e.token() == string(tok) {
			return b, e, h
		}
	}
	return b, nil, h
}

// insert publishes e as the bucket's newest entry, dropping its oldest.
func (b *internBucket) insert(e *internEntry) {
	for way := internWays - 1; way > 0; way-- {
		b[way].Store(b[way-1].Load())
	}
	b[0].Store(e)
}

// replace publishes ne in old's way, if old is still in the table.
func (old *internEntry) replace(ne *internEntry) {
	b := &internTable[old.hash&(internBuckets-1)]
	for way := range b {
		if b[way].Load() == old {
			b[way].CompareAndSwap(old, ne)
			return
		}
	}
}

// internString returns the canonical string equal to tok.
func internString(w *work, tok []byte) string {
	s, _, _ := internToken(w, tok)
	return s
}

// internToken returns the canonical string equal to tok, the hash it is
// kept under and whether the table already held it; h is 0 and met false
// for a token the table does not keep.
func internToken(w *work, tok []byte) (s string, h uint64, met bool) {
	if len(tok) == 0 {
		return "", 0, false
	}
	if len(tok) > maxInternLen {
		return string(tok), 0, false
	}
	b, e, h := internFind(w, tok)
	if e != nil {
		return e.token(), h, true
	}
	e = &internEntry{hash: h, s: string(tok), n: uint8(len(tok))}
	b.insert(e)
	return e.token(), h, false
}

// internKind returns the ObjectKind tok spells: one of the Kind constants
// without a table probe, any other kind from the table.
func internKind(w *work, tok []byte) ObjectKind {
	switch string(tok) {
	case "script":
		return KindScript
	case "image":
		return KindImage
	case "css":
		return KindCSS
	case "html":
		return KindHTML
	case "other":
		return KindOther
	}
	return ObjectKind(internString(w, tok))
}

// internURL returns the canonical string equal to tok and the host of that
// URL, with url.Parse(...).Hostname() semantics. known is the table's entry
// when it already held tok as a URL, nil when this call met it first.
func internURL(w *work, tok []byte) (url, host string, known *internEntry) {
	if len(tok) == 0 {
		return "", "", nil
	}
	if len(tok) > maxInternLen {
		url = string(tok)
		return url, hostOf(url), nil
	}
	b, e, h := internFind(w, tok)
	if e != nil && e.hostKnown {
		return e.token(), e.hostname(), e
	}
	if e != nil {
		url = e.token() // first met as some other field: the same string, now with its host
	} else {
		url = string(tok)
	}
	host = hostOf(url)
	ne := &internEntry{hash: h, s: url, n: uint8(len(url)), hostKnown: true}
	if _, sub := fastHost(url); sub {
		// fastHost's scheme holds no ':', so the host follows the first "://".
		ne.host = span{uint8(strings.Index(url, "://") + 3), uint8(len(host))}
	} else if len(url)+len(host) > maxInternLen {
		return url, host, nil
	} else {
		ne.s = url + host
		ne.host = span{ne.n, uint8(len(host))}
	}
	if e != nil {
		e.replace(ne)
	} else {
		b.insert(ne)
	}
	return ne.token(), ne.hostname(), nil
}
