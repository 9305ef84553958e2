package core

import (
	"hash/maphash"
	"math/bits"

	"oak/internal/seglog"
)

// spillIndex is one shard's index of its spilled users: user ID → the ref of
// the record that holds the profile. It holds no heap object per user: the
// entries lie in one array, their keys in one blob of bytes, and an
// open-addressing table of 8-byte slots (linear probing, at most three
// quarters full, deletes by backward shift) maps a key's hash to its entry.
// A shard's index is three allocations however many users came and went, and
// a boot filling it writes little memory at random: the slots. A deleted
// entry is reused by the next put; a deleted key's bytes stay in the blob
// until the garbage outweighs the live keys and the blob is copied afresh. So
// the blob is never written in place, and a key slice each hands out keeps
// its bytes for as long as its holder keeps it (the checkpoint's capture,
// spillckpt.go, relies on it). The zero value is an empty index. Guarded by
// the owning shard's mu, like the refs it holds.
type spillIndex struct {
	seed  maphash.Seed
	slots []uint64 // low half of the key's hash << 32 | entry number + 1; 0 empty
	ents  []indexEntry
	keys  []byte
	free  uint32 // entry number + 1 of the first deleted entry; 0 none
	live  int
	junk  int // blob bytes of deleted keys
}

// indexEntry is one user's ref, packed to 48 bytes (the active flag in the
// top bit of n), and where the user ID lies in the blob. A deleted entry has
// keyLen goneKey and keyOff the free list's next link.
type indexEntry struct {
	seg            *seglog.Segment
	off            int64
	ver            uint64
	lastSec        int64
	lastNsec       int32
	n              uint32
	keyOff, keyLen uint32
}

const (
	goneKey     = ^uint32(0)
	entryActive = 1 << 31
)

func (e *indexEntry) ref() spillRef {
	return spillRef{seg: e.seg, off: e.off, ver: e.ver, lastSec: e.lastSec, lastNsec: e.lastNsec,
		n: int32(e.n &^ entryActive), active: e.n&entryActive != 0}
}

func (e *indexEntry) setRef(r spillRef) {
	e.seg, e.off, e.ver, e.lastSec, e.lastNsec, e.n = r.seg, r.off, r.ver, r.lastSec, r.lastNsec, uint32(r.n)
	if r.active {
		e.n |= entryActive
	}
}

// init empties the index and sizes it for n entries whose keys total
// keyBytes, so a boot fills it without growing it.
func (x *spillIndex) init(n, keyBytes int) {
	if x.seed == (maphash.Seed{}) {
		x.seed = maphash.MakeSeed()
	}
	x.slots = make([]uint64, max(8, 1<<bits.Len(uint(n+n/3))))
	x.ents = make([]indexEntry, 0, n)
	x.keys = make([]byte, 0, keyBytes)
	x.free, x.live, x.junk = 0, 0, 0
}

func (x *spillIndex) len() int { return x.live }

// eachActive calls fn with each ref whose record holds an activation.
func (x *spillIndex) eachActive(fn func(spillRef)) {
	for i := range x.ents {
		if e := &x.ents[i]; e.keyLen != goneKey && e.n&entryActive != 0 {
			fn(e.ref())
		}
	}
}

func (x *spillIndex) key(e *indexEntry) []byte {
	end := e.keyOff + e.keyLen
	return x.keys[e.keyOff:end:end]
}

// find returns key's slot and true, or the empty slot that ends its probe
// sequence and false. h is the key's hash.
func find[K ~string | ~[]byte](x *spillIndex, key K, h uint64) (int, bool) {
	mask, tag := uint64(len(x.slots)-1), h<<32
	for i := h & mask; ; i = (i + 1) & mask {
		s := x.slots[i]
		if s == 0 {
			return int(i), false
		}
		if s&^0xffffffff == tag && string(x.key(&x.ents[uint32(s)-1])) == string(key) {
			return int(i), true
		}
	}
}

func (x *spillIndex) get(uid string) (spillRef, bool) {
	if x.live == 0 {
		return spillRef{}, false
	}
	if i, ok := find(x, uid, maphash.String(x.seed, uid)); ok {
		return x.ents[uint32(x.slots[i])-1].ref(), true
	}
	return spillRef{}, false
}

// put points uid at ref, returning the ref it replaces, if any.
func (x *spillIndex) put(uid string, ref spillRef) (old spillRef, replaced bool) {
	if x.slots == nil {
		x.init(0, 0)
	}
	return put(x, uid, maphash.String(x.seed, uid), ref)
}

// putKey is put with the user ID as bytes, which it copies.
func (x *spillIndex) putKey(uid []byte, ref spillRef) (old spillRef, replaced bool) {
	if x.slots == nil {
		x.init(0, 0)
	}
	return put(x, uid, maphash.Bytes(x.seed, uid), ref)
}

func put[K ~string | ~[]byte](x *spillIndex, key K, h uint64, ref spillRef) (spillRef, bool) {
	i, ok := find(x, key, h)
	if ok {
		e := &x.ents[uint32(x.slots[i])-1]
		old := e.ref()
		e.setRef(ref)
		return old, true
	}
	if 4*(x.live+1) > 3*len(x.slots) {
		x.grow()
		i, _ = find(x, key, h)
	}
	if len(x.keys)+len(key) > cap(x.keys) && 2*x.junk >= len(x.keys) {
		x.compactKeys()
	}
	e := indexEntry{keyOff: uint32(len(x.keys)), keyLen: uint32(len(key))}
	e.setRef(ref)
	n := x.free
	if n != 0 {
		x.free = x.ents[n-1].keyOff
		x.ents[n-1] = e
	} else {
		x.ents = append(x.ents, e)
		n = uint32(len(x.ents))
	}
	x.keys = append(x.keys, key...)
	x.slots[i] = h<<32 | uint64(n)
	x.live++
	return spillRef{}, false
}

// grow doubles the table. A slot carries the hash bits that place it, so no
// key is hashed again.
func (x *spillIndex) grow() {
	old := x.slots
	x.slots = make([]uint64, 2*len(old))
	mask := uint64(len(x.slots) - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := s >> 32 & mask
		for x.slots[i] != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = s
	}
}

// compactKeys copies the live keys to a fresh blob, leaving the old one to
// whoever still holds a slice of it. The blob has room for as many bytes
// again, so the puts until the next compaction append without a copy.
func (x *spillIndex) compactKeys() {
	keys := make([]byte, 0, 2*(len(x.keys)-x.junk)+4096)
	for n := range x.ents {
		if e := &x.ents[n]; e.keyLen != goneKey {
			k := x.key(e)
			e.keyOff = uint32(len(keys))
			keys = append(keys, k...)
		}
	}
	x.keys, x.junk = keys, 0
}

// del removes uid, returning its ref.
func (x *spillIndex) del(uid string) (spillRef, bool) {
	if x.live == 0 {
		return spillRef{}, false
	}
	i, ok := find(x, uid, maphash.String(x.seed, uid))
	if !ok {
		return spillRef{}, false
	}
	ref := x.ents[uint32(x.slots[i])-1].ref()
	x.delete(i)
	return ref, true
}

// delete removes the entry of slot i, then shifts back each later slot of its
// cluster that may move toward its home, so no probe ever passes an empty
// slot to reach its key.
func (x *spillIndex) delete(i int) {
	n := uint32(x.slots[i])
	e := &x.ents[n-1]
	x.junk += int(e.keyLen)
	*e = indexEntry{keyOff: x.free, keyLen: goneKey}
	x.free = n
	x.live--
	mask := len(x.slots) - 1
	for j := (i + 1) & mask; x.slots[j] != 0; j = (j + 1) & mask {
		// Slot j may fill the hole at i unless its home lies in (i, j].
		if home := int(x.slots[j]>>32) & mask; (j-home)&mask >= (j-i)&mask {
			x.slots[i], i = x.slots[j], j
		}
	}
	x.slots[i] = 0
}

// each calls fn with every entry, in no order, and deletes the entries fn
// returns true for (a delete moves no entry). uid is a view of the blob: fn
// may keep it, but must not touch the index.
func (x *spillIndex) each(fn func(uid []byte, ref spillRef) (delete bool)) {
	for n := range x.ents {
		e := &x.ents[n]
		if e.keyLen == goneKey || !fn(x.key(e), e.ref()) {
			continue
		}
		i, _ := find(x, x.key(e), maphash.Bytes(x.seed, x.key(e)))
		x.delete(i)
	}
}
