package core

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"oak/internal/seglog"
)

// Booting the spill tier: NewEngine builds the store from the configuration
// and replays the segment directory into the shards' spill indexes, before
// the engine is shared. The durability contract the replay serves is
// spill.go's.
//
// What the replay yields is fixed by the log alone: each user's ref points at
// the last of their records in (segment seq, offset) order, and a segment's
// dead count is its records that are not the last of their user's. Decoding
// every record gets there. A valid spill index (spillckpt.go) gets there
// decoding a few: its entries are the refs the shards held at a checkpoint,
// each the newest record of its user among the bytes the index covers — each
// segment up to its size at the capture. So a covered record that is not an
// entry is either older than its user's entry, and dead, or of a user without
// one (a record an import dropped, or one an older engine's checkpoint
// released), and decoded. A record beyond the covered bytes was written after the capture,
// later than every covered record of its user, and is decoded and replayed
// over them. Every covered frame is still read and checksummed: damage is
// found at boot, and quarantined, as it always was.
//
// The index is adopted whole or not at all. Whatever fails a check — no file,
// a torn or foreign one, a covered segment gone or shorter than at the
// capture, an entry that does not land on a frame of its segment naming its
// user, a covered record newer than its user's entry, a quarantined segment —
// makes the covered bytes none, and the replay decodes the whole log, as
// before the index existed.

// initSpill builds the spill store from WithProfileResidency's config and
// replays the segment directory. Called once from NewEngine after the
// shards exist; a config or directory error fails construction.
func (e *Engine) initSpill() error {
	if e.residencyCfg == nil {
		return nil
	}
	cfg := e.residencyCfg.withDefaults()
	if cfg.Dir == "" {
		return errors.New("core: profile residency requires a spill directory")
	}
	if cfg.MaxProfiles <= 0 && cfg.MaxBytes <= 0 {
		return errors.New("core: profile residency requires a profile or byte cap")
	}
	log, err := seglog.Open(e.fs, cfg.Dir, func(name string, err error) {
		e.metrics.spillErrors.Inc()
		// Until recovery is done e.spill is nil: recoverSpill reports the
		// segments it quarantines itself, with the users they lose.
		if e.logf != nil && e.spill != nil {
			e.logf("core: spill segment %s quarantined: %v", name, err)
		}
	})
	if err != nil {
		return fmt.Errorf("core: create spill directory: %w", err)
	}
	st := &spillStore{log: log, cfg: cfg}
	shards := int64(len(e.shards))
	if cfg.MaxProfiles > 0 {
		st.perShardProfiles = max(1, int64(cfg.MaxProfiles)/shards)
	}
	if cfg.MaxBytes > 0 {
		st.perShardBytes = max(1, cfg.MaxBytes/shards)
	}
	start := time.Now()
	err = e.recoverSpill(st)
	st.recovered.took = time.Since(start)
	e.spill = st
	if err == nil && e.guard != nil {
		e.squareImport(nil, true)
	}
	if n := log.Strays(); n > 0 && e.logf != nil {
		e.logf("core: spill directory %s: left alone %d files named like segments but not spelled as one", cfg.Dir, n)
	}
	return err
}

// spillRecovery is what recoverSpill did, for BootStatus.
type spillRecovery struct {
	took             time.Duration
	adopted          int
	checked, decoded int64
	fallback         string
}

// walked is one segment's replay: the records decoded, in log order — all of
// them, or (skimmed) those the index does not account for — how many frames it
// holds, how many of them an index entry outdates, their bytes checksummed and
// decoded, and the damage that quarantines it.
type walked struct {
	seg              *seglog.Segment
	frames           []segFrame
	total, dead      int64
	checked, decoded int64
	skimmed          bool
	err              error
}

// segPlan is what the index says of one segment: the bytes it covers, and its
// entries [first, end) in the index's order, whose keys start at keyOff.
type segPlan struct {
	covered            int64
	first, end, keyOff int
}

// recoverSpill replays the segment log into the shards' spill indexes, with
// the spill index where it is valid (see above). A segment is committed only
// if it parsed end to end, a torn tail cut away: a quarantined one must leave
// the other segments' refs and dead counts as they are, or the GC below would
// delete a healthy segment holding the newest surviving copy of a user's
// profile. Its readable frames only count the users it loses.
func (e *Engine) recoverSpill(st *spillStore) error {
	var (
		idx   *indexFile
		plans map[*seglog.Segment]*segPlan
		why   atomic.Pointer[string] // the first reason the index is not adopted
		mu    sync.Mutex
		all   []walked
	)
	fail := func(reason string) { why.CompareAndSwap(nil, &reason) }
	switch data, err := seglog.ReadFile(e.fs, filepath.Join(st.cfg.Dir, spillIndexName)); {
	case errors.Is(err, fs.ErrNotExist):
		fail("no index")
	case err != nil:
		fail(fmt.Sprintf("index unreadable: %v", err))
	default:
		if idx, err = parseSpillIndex(data); err != nil {
			fail("index " + err.Error())
		} else if n := idx.nsegs(); n > 0 {
			// A number the index names must not name another file.
			last, _ := idx.seg(n - 1)
			st.log.Reserve(last + 1)
		}
	}
	plan := func(segs []*seglog.Segment) error {
		if idx != nil {
			var reason string
			if plans, reason = e.planIndex(idx, segs); plans == nil {
				fail(reason)
			}
		}
		return nil
	}
	err := st.log.Recover(plan, func(seg *seglog.Segment, data []byte) (int64, error) {
		w := walked{seg: seg}
		var end int64
		if p := plans[seg]; p != nil && why.Load() == nil {
			w.skimmed = true
			end, w.err = e.skimSegment(idx, p, &w, data, fail)
			if w.err != nil && !errors.Is(w.err, seglog.ErrTruncated) {
				fail(seg.Name() + " quarantined")
				w.frames, end, w.err = walkSegment(data) // its readable records, as the log's walk sees them
			}
		} else {
			w.frames, end, w.err = walkSegment(data)
			for _, fr := range w.frames {
				w.checked += int64(fr.ref.n)
			}
			w.total, w.decoded = int64(len(w.frames)), w.checked
		}
		mu.Lock()
		all = append(all, w)
		mu.Unlock()
		return end, w.err
	})
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	slices.SortFunc(all, func(a, b walked) int { return cmp.Compare(a.seg.Seq, b.seg.Seq) })
	var good, damaged []*walked
	for i := range all {
		if w := &all[i]; w.err == nil || errors.Is(w.err, seglog.ErrTruncated) {
			good = append(good, w)
		} else {
			damaged = append(damaged, w)
		}
	}
	if len(damaged) > 0 && idx != nil {
		fail(damaged[0].seg.Name() + " quarantined")
	}

	live := 0 // users with a ref
	if why.Load() == nil {
		live = idx.nents()
		st.recovered.adopted = live
	} else {
		st.recovered.fallback = *why.Load()
		// Decode what the skim left: the whole of every segment, then size
		// each shard's index once, for the frames it owns.
		for _, w := range good {
			if w.skimmed {
				data, err := st.log.Contents(w.seg)
				if err != nil {
					return fmt.Errorf("core: read spill segment %s: %w", w.seg.Name(), err)
				}
				if w.frames, _, w.err = walkSegment(data); w.err != nil {
					st.log.Quarantine(w.seg, w.err)
					damaged = append(damaged, w)
					continue
				}
				w.dead, w.decoded = 0, w.checked
			}
		}
		good = slices.DeleteFunc(good, func(w *walked) bool { return w.seg.Quarantined() })
		owned, keys := make([]int, len(e.shards)), make([]int, len(e.shards))
		for _, w := range good {
			for _, fr := range w.frames {
				i := e.shardIndex(fr.uid)
				owned[i]++
				keys[i] += len(fr.uid)
			}
		}
		for i, sh := range e.shards {
			sh.spilled.init(owned[i], keys[i])
		}
	}
	for _, w := range good {
		st.recovered.checked += w.checked
		st.recovered.decoded += w.decoded
		w.seg.Dead.Add(w.dead)
		for _, fr := range w.frames {
			fr.ref.seg = w.seg
			if prev, ok := e.shardFor(fr.uid).spilled.put(fr.uid, fr.ref); ok {
				prev.seg.Dead.Add(1)
			} else {
				live++
			}
		}
		w.seg.Total.Store(w.total)
	}
	st.spilledUsers.Set(int64(live))
	for _, w := range damaged {
		lost := map[string]bool{}
		for _, fr := range w.frames {
			if _, ok := e.shardFor(fr.uid).spilled.get(fr.uid); !ok {
				lost[fr.uid] = true
			}
		}
		if e.logf != nil {
			e.logf("core: spill segment %s quarantined: %v; %d users its readable frames name have no other record",
				w.seg.Name(), w.err, len(lost))
		}
	}
	// A segment all of whose records a later one superseded is garbage from a
	// previous run (at boot the dead counts are exact: no ref points into it);
	// removing it now keeps restart loops from accreting files.
	for _, seg := range st.log.Segments() {
		if seg.Dead.Load() >= seg.Total.Load() {
			st.log.Remove(seg)
		}
	}
	return nil
}

// planIndex matches the index's segments with the directory's and fills each
// shard's spill index with its entries, sized for them up front. It returns
// nil and why when the index does not fit the directory.
func (e *Engine) planIndex(idx *indexFile, segs []*seglog.Segment) (map[*seglog.Segment]*segPlan, string) {
	plans := make(map[*seglog.Segment]*segPlan, idx.nsegs())
	bySeg := make([]*seglog.Segment, idx.nsegs())
	j := 0
	for i := range idx.nsegs() {
		seq, size := idx.seg(i)
		for j < len(segs) && segs[j].Seq < seq {
			j++
		}
		if j == len(segs) || segs[j].Seq != seq {
			return nil, fmt.Sprintf("segment %016x is gone", seq)
		}
		if segs[j].Size() < size {
			return nil, fmt.Sprintf("%s is shorter than at the checkpoint", segs[j].Name())
		}
		bySeg[i] = segs[j]
		plans[segs[j]] = &segPlan{covered: size}
	}
	// Check each entry and find its shard, then fill the shards' indexes in
	// parallel, each sized for its share up front.
	nents, mask := idx.nents(), uint32(len(e.shards)-1)
	keyOff, owner := make([]uint32, nents), make([]uint16, nents)
	count, keys := make([]int, len(e.shards)), make([]int, len(e.shards))
	var p *segPlan
	off, prev, prevEnd := 0, -1, int64(0)
	for i := range nents {
		if !idx.entryFits(i, off, prev, prevEnd) {
			return nil, fmt.Sprintf("index malformed: entry %d", i)
		}
		seg, ref, n := idx.entry(i)
		if seg != prev {
			p, prev = plans[bySeg[seg]], seg
			p.first, p.keyOff = i, off
		}
		p.end, prevEnd = i+1, ref.off+int64(ref.n)
		s := userHash(idx.keys[off:off+n]) & mask
		keyOff[i], owner[i] = uint32(off), uint16(s)
		count[s]++
		keys[s] += n
		off += n
	}
	if off != len(idx.keys) {
		return nil, fmt.Sprintf("index malformed: its entries name %d key bytes, %d follow them", off, len(idx.keys))
	}
	var dup atomic.Pointer[string]
	var wg sync.WaitGroup
	var shard atomic.Int64
	for range min(runtime.GOMAXPROCS(0), len(e.shards)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := int(shard.Add(1) - 1); s < len(e.shards); s = int(shard.Add(1) - 1) {
				x := &e.shards[s].spilled
				x.init(count[s], keys[s])
				for i, o := range owner {
					if int(o) != s {
						continue
					}
					seg, ref, n := idx.entry(i)
					key := idx.keys[keyOff[i] : int(keyOff[i])+n]
					ref.seg = bySeg[seg]
					if _, twice := x.putKey(key, ref); twice {
						why := fmt.Sprintf("user %q has two entries", key)
						dup.CompareAndSwap(nil, &why)
					}
				}
			}
		}()
	}
	wg.Wait()
	if why := dup.Load(); why != nil {
		return nil, *why
	}
	return plans, ""
}

// skimSegment replays one segment the index covers: every frame is
// checksummed (seglog.Walk); a covered frame that is an entry's is checked to
// name its user and is otherwise left alone, one that is not is dead when its
// user has an entry and decoded when not, and a frame beyond the covered bytes
// is decoded. What the index gets wrong goes to fail, and the skim carries on
// for the segment's damage and end.
func (e *Engine) skimSegment(idx *indexFile, p *segPlan, w *walked, data []byte, fail func(string)) (int64, error) {
	mask := uint32(len(e.shards) - 1)
	j, koff, ok := p.first, p.keyOff, true
	wrong := func(format string, args ...any) {
		if ok {
			ok = false
			fail(w.seg.Name() + ": " + fmt.Sprintf(format, args...))
		}
	}
	var pp persistedProfile
	decode := func(payload []byte, off int64, n int) error {
		if err := decodeSpillRecordInto(&pp, payload); err != nil {
			return fmt.Errorf("%w: frame at offset %d: %v", seglog.ErrCorrupt, off, err)
		}
		w.frames = append(w.frames, segFrame{uid: pp.UserID, ref: newSpillRef(off, n, len(pp.Active) > 0, pp.LastReport, pp.Version)})
		w.decoded += int64(n)
		return nil
	}
	end, err := seglog.Walk(data, func(payload []byte, off int64, n int) error {
		w.total++
		w.checked += int64(n)
		if off >= p.covered {
			return decode(payload, off, n)
		}
		uid, _, err := seglog.Wire.String(payload, maxSpillStringLen)
		switch {
		case err != nil || len(uid) == 0:
			return decode(payload, off, n) // the decode words the damage
		case !ok:
			return nil
		case off+int64(n) > p.covered:
			wrong("its size at the checkpoint cuts the frame at offset %d", off)
			return nil
		}
		if j < p.end {
			_, ref, kl := idx.entry(j)
			if ref.off < off {
				wrong("entry %d does not land on a frame", j)
				return nil
			}
			if ref.off == off {
				if int(ref.n) != n || !bytes.Equal(idx.keys[koff:koff+kl], uid) {
					wrong("entry %d does not name the user of its frame", j)
				}
				j, koff = j+1, koff+kl
				return nil
			}
		}
		switch ref, has := e.shards[userHash(uid)&mask].spilled.getKey(uid); {
		case !has:
			return decode(payload, off, n)
		case ref.seg.Seq < w.seg.Seq || ref.seg == w.seg && ref.off < off:
			wrong("the record of %q at offset %d is newer than its entry", uid, off)
		default:
			w.dead++
		}
		return nil
	})
	if (err == nil || errors.Is(err, seglog.ErrTruncated)) && (end < p.covered || j < p.end) {
		wrong("its records end before its size at the checkpoint")
	}
	return end, err
}
