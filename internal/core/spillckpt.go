package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"slices"

	"oak/internal/seglog"
	"oak/internal/wire"
)

// The checkpoint of a capped engine lives in its spill directory and indexes
// the log, every profile's one durable home. checkpointLocked appends each
// resident whose newest record is not its current state, then writes a file
// in the state file's format, through its writer (installCheckpoint): the
// header frame with the guard and population sections, then, where an
// uncapped file has its profile records, the index — every user's ref with
// each segment's size at the capture. A boot adopts the refs instead of
// decoding their records, and a covered record that is no entry's is dead
// (spillboot.go), so an import's delete is durable once its checkpoint is.
//
// An index frame, integers little-endian, fixed-width so a boot reads it in
// place:
//
//	segment   seq u64, size u64 (the bytes the index covers), entries u32
//	entry     n u32 (bit 31: active), off u64, version u64, last report unix
//	          seconds i64, nanoseconds u32, key length u32 — ascending off
//	keys      the entries' user IDs back to back, in entry order
//
// Every segment in service at the capture has a frame, in ascending seq, and
// more than one when its entries would take a frame over seglog.MaxFrame.
const (
	checkpointName = "checkpoint"
	idxFrameHead   = 20
	idxEntryLen    = 36
	idxActive      = 1 << 31
)

var le = binary.LittleEndian

// indexFrame is one parsed index frame: views of the checkpoint's bytes.
type indexFrame struct {
	seq        uint64
	size       int64
	ents, keys []byte
}

func (f *indexFrame) nents() int { return len(f.ents) / idxEntryLen }

// entry decodes entry i: its ref without the segment, and its key length.
func (f *indexFrame) entry(i int) (ref spillRef, keyLen int) {
	b := f.ents[i*idxEntryLen:]
	n := le.Uint32(b)
	return spillRef{
		n: int32(n &^ idxActive), active: n&idxActive != 0,
		off: int64(le.Uint64(b[4:])), ver: le.Uint64(b[12:]),
		lastSec: int64(le.Uint64(b[20:])), lastNsec: int32(le.Uint32(b[28:])),
	}, int(le.Uint32(b[32:]))
}

// parseIndexFrame checks a frame's framing; its entries are left to the
// boot (planIndex).
func parseIndexFrame(b []byte) (indexFrame, error) {
	var f indexFrame
	if len(b) >= idxFrameHead {
		f = indexFrame{seq: le.Uint64(b), size: int64(le.Uint64(b[8:]))}
		if n := int64(le.Uint32(b[16:])) * idxEntryLen; n <= int64(len(b)-idxFrameHead) && f.size >= int64(len(seglog.Magic)) {
			f.ents, f.keys = b[idxFrameHead:idxFrameHead+n], b[idxFrameHead+n:]
			return f, nil
		}
	}
	return f, fmt.Errorf("%w: index frame of segment %016x malformed", ErrCorruptState, f.seq)
}

// indexFrames reads a checkpoint's frames after its header as index frames:
// as many as its header counts, and no profile record.
func (st *persistedState) indexFrames() ([]indexFrame, error) {
	if st.records != 0 {
		return nil, fmt.Errorf("%w: a checkpoint of the log holds %d profile records", ErrCorruptState, st.records)
	}
	frames := make([]indexFrame, 0, st.index)
	err := st.eachFrame(st.index, func(payload []byte, _ int64) error {
		f, err := parseIndexFrame(payload)
		frames = append(frames, f)
		return err
	})
	return frames, err
}

// capturedRef is one ref of the checkpoint's capture: seg is its segment's
// position among the captured ones.
type capturedRef struct {
	seg int
	key []byte
	ref spillRef
}

// checkpointLocked writes the capped engine's checkpoint: first, shard by
// shard, each resident whose ref is not at its current state is appended, as
// an eviction would append it but staying resident; then every ref and the
// guard and population sections go to the spill directory's checkpoint. The
// capture takes each shard's read lock in turn, so ingest goes on around it,
// and covers each segment up to the size it had before the first lock: a ref
// to a frame appended after that is left out, and a boot decodes that frame
// with the rest of the log's tail. Caller holds saveMu.
func (e *Engine) checkpointLocked() error {
	st := e.spill
	for _, sh := range e.shards {
		sh.mu.Lock()
		err := e.spillProfilesLocked(sh, sh.residentsLocked(), false)
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("engine: checkpoint: append residents: %w", err)
		}
	}

	segs := st.log.Segments()
	slices.SortFunc(segs, func(a, b *seglog.Segment) int { return cmp.Compare(a.Seq, b.Seq) })
	pos := make(map[*seglog.Segment]int, len(segs))
	seqs, sizes := make([]uint64, len(segs)), make([]int64, len(segs))
	for i, seg := range segs {
		pos[seg], seqs[i], sizes[i] = i, seg.Seq, seg.Size()
	}
	ents := make([]capturedRef, 0, e.Users())
	for _, sh := range e.shards {
		sh.mu.RLock()
		sh.spilled.each(func(key []byte, ref spillRef) bool {
			if i, ok := pos[ref.seg]; ok && ref.off+int64(ref.n) <= sizes[i] {
				ents = append(ents, capturedRef{i, key, ref})
			}
			return false
		})
		sh.mu.RUnlock()
	}
	slices.SortFunc(ents, func(a, b capturedRef) int {
		return cmp.Or(cmp.Compare(a.seg, b.seg), cmp.Compare(a.ref.off, b.ref.off))
	})

	state := &persistedState{Version: stateVersion, SavedAt: e.now(), Population: e.exportPop()}
	if e.guard != nil {
		state.Guard = e.guard.Export()
	}
	index, frames := appendIndexFrames(nil, seqs, sizes, ents, seglog.MaxFrame)
	data, err := encodeCheckpoint(state, index, frames)
	if err != nil {
		return fmt.Errorf("engine: checkpoint: %w", err)
	}
	return e.installCheckpoint(filepath.Join(st.cfg.Dir, checkpointName), data)
}

// appendIndexFrames appends the index frames of ents, sorted by (seg, off),
// over the segments seqs with the covered sizes, each frame's payload at most
// limit bytes, and says how many it appended.
func appendIndexFrames(b []byte, seqs []uint64, sizes []int64, ents []capturedRef, limit int) ([]byte, int) {
	var payload []byte
	frames, j := 0, 0
	for i := range seqs {
		for first := true; first || j < len(ents) && ents[j].seg == i; first = false {
			k, size := j, idxFrameHead
			for ; k < len(ents) && ents[k].seg == i; k++ {
				if size += idxEntryLen + len(ents[k].key); size > limit && k > j {
					break
				}
			}
			payload = le.AppendUint64(payload[:0], seqs[i])
			payload = le.AppendUint64(payload, uint64(sizes[i]))
			payload = le.AppendUint32(payload, uint32(k-j))
			for _, en := range ents[j:k] {
				n := uint32(en.ref.n)
				if en.ref.active {
					n |= idxActive
				}
				payload = le.AppendUint32(payload, n)
				payload = le.AppendUint64(payload, uint64(en.ref.off))
				payload = le.AppendUint64(payload, en.ref.ver)
				payload = le.AppendUint64(payload, uint64(en.ref.lastSec))
				payload = le.AppendUint32(payload, uint32(en.ref.lastNsec))
				payload = le.AppendUint32(payload, uint32(len(en.key)))
			}
			for _, en := range ents[j:k] {
				payload = append(payload, en.key...)
			}
			b, j = wire.AppendFrame(b, payload), k
			frames++
		}
	}
	return b, frames
}
