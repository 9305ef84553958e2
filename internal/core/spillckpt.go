package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"slices"

	"oak/internal/seglog"
)

// The spill index checkpoint: SaveStateFile also writes, beside the segments,
// what the shards' spill indexes hold — every user's ref, resident users'
// included — with each segment's size at the capture. A boot that finds it valid adopts those refs instead of decoding
// the records they point at, and decodes only what the log holds beyond them
// (spillboot.go). The file is a cache of that decode with a validity rule, not
// a home for any state: without it, or with one that fails a check, the boot
// decodes the whole log, as it did before the file existed.
//
// spill.idx, all integers little-endian, fixed-width so a boot reads it in
// place:
//
//	magic     "OAKSIDX1"
//	segments  u32 count, entries u32 count
//	segment   seq u64, size u64 — ascending seq
//	entry     seg u32 (position in the segment list), n u32 (bit 31: active),
//	          off u64, version u64, last report unix seconds i64, nanoseconds
//	          u32, key length u32 — ascending (seg, off)
//	keys      the entries' user IDs back to back, in entry order
//	crc32c    u32 over everything before it
const (
	spillIndexName  = "spill.idx"
	spillIndexMagic = "OAKSIDX1"
	idxHeaderLen    = len(spillIndexMagic) + 8
	idxSegLen       = 16
	idxEntryLen     = 40
	idxActive       = 1 << 31
)

var le = binary.LittleEndian

// indexFile is a parsed spill index: views of the file's bytes.
type indexFile struct {
	segs, ents, keys []byte
}

func (x *indexFile) nsegs() int { return len(x.segs) / idxSegLen }
func (x *indexFile) nents() int { return len(x.ents) / idxEntryLen }

func (x *indexFile) seg(i int) (seq uint64, size int64) {
	b := x.segs[i*idxSegLen:]
	return le.Uint64(b), int64(le.Uint64(b[8:]))
}

// entry decodes entry i: its segment's position, its ref without the segment,
// and its key length.
func (x *indexFile) entry(i int) (seg int, ref spillRef, keyLen int) {
	b := x.ents[i*idxEntryLen:]
	n := le.Uint32(b[4:])
	return int(le.Uint32(b)), spillRef{
		n: int32(n &^ idxActive), active: n&idxActive != 0,
		off: int64(le.Uint64(b[8:])), ver: le.Uint64(b[16:]),
		lastSec: int64(le.Uint64(b[24:])), lastNsec: int32(le.Uint32(b[32:])),
	}, int(le.Uint32(b[36:]))
}

// parseSpillIndex checks an index's framing and its segment list, which
// ascends; the entries it leaves to entryFits.
func parseSpillIndex(data []byte) (*indexFile, error) {
	if len(data) < idxHeaderLen+crc32.Size {
		return nil, fmt.Errorf("torn: %d bytes", len(data))
	}
	if !bytes.HasPrefix(data, []byte(spillIndexMagic)) {
		return nil, errors.New("not a spill index (magic)")
	}
	body := data[:len(data)-crc32.Size]
	if crc32.Checksum(body, snapshotCRC) != le.Uint32(data[len(body):]) {
		return nil, errors.New("checksum mismatch")
	}
	b := body[len(spillIndexMagic):]
	x := &indexFile{}
	nsegs, nents := uint64(le.Uint32(b)), uint64(le.Uint32(b[4:]))
	b = b[8:]
	if nsegs*idxSegLen+nents*idxEntryLen > uint64(len(b)) {
		return nil, fmt.Errorf("malformed: %d segments and %d entries in %d bytes", nsegs, nents, len(b))
	}
	x.segs, b = b[:nsegs*idxSegLen], b[nsegs*idxSegLen:]
	x.ents, x.keys = b[:nents*idxEntryLen], b[nents*idxEntryLen:]
	for i := range x.nsegs() {
		seq, size := x.seg(i)
		if prev, _ := x.seg(max(i-1, 0)); (i > 0 && seq <= prev) || size < int64(len(seglog.Magic)) {
			return nil, fmt.Errorf("malformed: segment %d", i)
		}
	}
	return x, nil
}

// entryFits reports whether entry i lies inside its segment's captured bytes,
// after the entry before it (whose segment and end are prevSeg and prevEnd),
// and has its key inside the key bytes at keyOff. The boot checks each entry
// so as it deals them out (planIndex).
func (x *indexFile) entryFits(i, keyOff, prevSeg int, prevEnd int64) bool {
	seg, ref, keyLen := x.entry(i)
	if seg >= x.nsegs() || seg < prevSeg {
		return false
	}
	if seg != prevSeg {
		prevEnd = 0
	}
	_, size := x.seg(seg)
	return ref.off >= max(prevEnd, int64(len(seglog.Magic))) && ref.n > 0 && ref.off <= size-int64(ref.n) &&
		ref.lastNsec >= 0 && ref.lastNsec < 1e9 && keyLen > 0 && keyOff+keyLen <= len(x.keys)
}

// saveSpillIndex writes the spill index of the log as it is now: tmp, fsync,
// rename, directory fsync. The capture takes each shard's read lock in turn,
// so ingest goes on around it, and covers each segment up to the size it had
// before the first lock: a ref to a frame appended after that is left out, and
// a boot then decodes that frame with the rest of the log's tail.
func (e *Engine) saveSpillIndex() error {
	st := e.spill
	segs := st.log.Segments()
	slices.SortFunc(segs, func(a, b *seglog.Segment) int { return cmp.Compare(a.Seq, b.Seq) })
	pos := make(map[*seglog.Segment]int, len(segs))
	sizes := make([]int64, len(segs))
	for i, seg := range segs {
		pos[seg], sizes[i] = i, seg.Size()
	}
	type entry struct {
		seg int
		key []byte
		ref spillRef
	}
	ents := make([]entry, 0, st.spilledUsers.Value())
	keys := 0
	add := func(key []byte, ref spillRef) bool {
		if i, ok := pos[ref.seg]; ok && ref.off+int64(ref.n) <= sizes[i] {
			ents = append(ents, entry{i, key, ref})
			keys += len(key)
		}
		return false
	}
	for _, sh := range e.shards {
		sh.mu.RLock()
		sh.spilled.each(add)
		sh.mu.RUnlock()
	}
	slices.SortFunc(ents, func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.seg, b.seg), cmp.Compare(a.ref.off, b.ref.off))
	})

	buf := make([]byte, idxHeaderLen, idxHeaderLen+len(segs)*idxSegLen+len(ents)*idxEntryLen+keys+crc32.Size)
	copy(buf, spillIndexMagic)
	le.PutUint32(buf[8:], uint32(len(segs)))
	le.PutUint32(buf[12:], uint32(len(ents)))
	for i, seg := range segs {
		buf = le.AppendUint64(buf, seg.Seq)
		buf = le.AppendUint64(buf, uint64(sizes[i]))
	}
	for _, en := range ents {
		n := uint32(en.ref.n)
		if en.ref.active {
			n |= idxActive
		}
		buf = le.AppendUint32(buf, uint32(en.seg))
		buf = le.AppendUint32(buf, n)
		buf = le.AppendUint64(buf, uint64(en.ref.off))
		buf = le.AppendUint64(buf, en.ref.ver)
		buf = le.AppendUint64(buf, uint64(en.ref.lastSec))
		buf = le.AppendUint32(buf, uint32(en.ref.lastNsec))
		buf = le.AppendUint32(buf, uint32(len(en.key)))
	}
	for _, en := range ents {
		buf = append(buf, en.key...)
	}
	buf = le.AppendUint32(buf, crc32.Checksum(buf, snapshotCRC))

	path := filepath.Join(st.cfg.Dir, spillIndexName)
	tmp := path + ".tmp"
	if err := seglog.WriteFileSync(e.fs, tmp, buf); err != nil {
		e.fs.Remove(tmp)
		return err
	}
	if err := e.fs.Rename(tmp, path); err != nil {
		e.fs.Remove(tmp)
		return err
	}
	seglog.SyncDir(e.fs, st.cfg.Dir)
	return nil
}
