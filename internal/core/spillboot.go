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
// the engine is shared, from the directory's checkpoint (spillckpt.go) — or
// its backup when the checkpoint is missing or does not read — whose guard and
// population sections it installs. The durability contract it serves is
// spill.go's.
//
// The index is authoritative over the bytes it covers, each segment up to its
// size at the capture: an entry's record is its user's, adopted undecoded, and
// a covered record that is no entry's is dead, outdated or dropped by an
// import; so is an entry in a segment gone since, which the cleaner removes
// only once it has written each record a ref points at again. A record beyond
// the covered bytes is later than every covered one of its user, and is
// decoded and replayed over them. Every covered frame is still checksummed:
// damage is found at boot, and quarantined, as it always was.
//
// The index is adopted whole or not at all. Whatever fails a check — no
// checkpoint, a torn or foreign one, a covered segment shorter than at the
// capture, an entry that does not land on a frame of its segment naming its
// user, a quarantined segment — makes the covered bytes none, and the replay
// decodes the whole log: each user's last record wins, and a user an import
// dropped comes back.

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
	checkpoint       string
	adopted          int
	checked, decoded int64
	fallback         string
}

// walked is one segment's replay: the records decoded in log order (skimmed:
// those beyond the covered bytes), its frames, those the index makes dead, the
// bytes checksummed and decoded, and the damage that quarantines it.
type walked struct {
	seg              *seglog.Segment
	frames           []segFrame
	total, dead      int64
	checked, decoded int64
	skimmed          bool
	err              error
}

// segPlan is what the index says of one segment: the bytes it covers, and its
// index frames [first, end).
type segPlan struct {
	covered    int64
	first, end int
}

// recoverSpill installs the checkpoint's guard and population sections and
// replays the segment log into the shards' spill indexes, with the
// checkpoint's index where it is valid (see above). A segment is committed
// only if it parsed end to end, a torn tail cut away: a quarantined one must
// leave the other segments' refs and dead counts as they are, or the GC below
// would delete a healthy segment holding the newest surviving copy of a
// user's profile. Its readable frames only count the users it loses.
func (e *Engine) recoverSpill(st *spillStore) error {
	var (
		ckpt   *persistedState
		frames []indexFrame
		plans  map[*seglog.Segment]*segPlan
		why    atomic.Pointer[string] // the first reason the index is not adopted
		mu     sync.Mutex
		all    []walked
	)
	fail := func(reason string) { why.CompareAndSwap(nil, &reason) }
	reason := "no checkpoint"
	for _, name := range []string{checkpointName, checkpointName + BackupSuffix} {
		path := filepath.Join(st.cfg.Dir, name)
		data, err := seglog.ReadFile(e.fs, path)
		if err == nil {
			if ckpt, err = decodeCheckpoint(data); err == nil {
				frames, err = ckpt.indexFrames()
			}
		}
		if err != nil {
			if ckpt = nil; !errors.Is(err, fs.ErrNotExist) {
				reason = fmt.Sprintf("%s unusable: %v", name, err)
			}
			continue
		}
		st.recovered.checkpoint = path
		if name == checkpointName {
			e.stateSource.Store(StateSnapshot)
			e.goodPrimary.Store(&path)
		} else {
			e.stateSource.Store(StateBackup)
			e.metrics.stateRecoveries.Inc()
		}
		if e.guard != nil {
			e.guard.Import(ckpt.Guard, false)
		}
		e.importPop(ckpt.Population)
		for _, f := range frames {
			st.log.Reserve(f.seq + 1) // a number the index names must not name another file
		}
		break
	}
	if ckpt == nil {
		fail(reason)
	}
	plan := func(segs []*seglog.Segment) error {
		if ckpt != nil {
			if plans, reason = e.planIndex(frames, segs); plans == nil {
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
			end, w.err = e.skimSegment(frames, p, &w, data, fail)
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
	if len(damaged) > 0 && ckpt != nil {
		fail(damaged[0].seg.Name() + " quarantined")
	}

	live := 0 // users with a ref
	if why.Load() == nil {
		for _, sh := range e.shards {
			live += sh.spilled.len()
		}
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
	// A segment all of whose records are dead is garbage from a previous run
	// (at boot the dead counts are exact: no ref points into it); removing it
	// now keeps restart loops from accreting files.
	for _, seg := range st.log.Segments() {
		if seg.Dead.Load() >= seg.Total.Load() {
			st.log.Remove(seg)
		}
	}
	return nil
}

// planIndex matches the index's frames with the directory's segments, checks
// each entry and finds its shard, then fills the shards' spill indexes in
// parallel, each sized for its share up front, leaving out the entries in a
// segment gone since the capture. It returns nil and why when the index does
// not fit the directory.
func (e *Engine) planIndex(frames []indexFrame, segs []*seglog.Segment) (map[*seglog.Segment]*segPlan, string) {
	const gone = ^uint16(0) // the shard of an entry in a segment gone since
	plans := make(map[*seglog.Segment]*segPlan, len(frames))
	bySeg := make([]*seglog.Segment, len(frames)) // nil: gone
	mask := uint32(len(e.shards) - 1)
	var owner []uint16
	var keyOff []uint32
	count, keys := make([]int, len(e.shards)), make([]int, len(e.shards))
	j, prevEnd := 0, int64(0)
	for i := range frames {
		f, off := &frames[i], 0
		if i > 0 && (f.seq < frames[i-1].seq || f.seq == frames[i-1].seq && f.size != frames[i-1].size) {
			return nil, fmt.Sprintf("index malformed: frame %d", i)
		}
		if i == 0 || f.seq != frames[i-1].seq {
			prevEnd = 0
		}
		for j < len(segs) && segs[j].Seq < f.seq {
			j++
		}
		if j < len(segs) && segs[j].Seq == f.seq {
			if segs[j].Size() < f.size {
				return nil, fmt.Sprintf("%s is shorter than at the checkpoint", segs[j].Name())
			}
			if plans[segs[j]] == nil {
				plans[segs[j]] = &segPlan{covered: f.size, first: i}
			}
			bySeg[i], plans[segs[j]].end = segs[j], i+1
		}
		for k := range f.nents() {
			ref, n := f.entry(k)
			if ref.off < max(prevEnd, int64(len(seglog.Magic))) || ref.n <= 0 || ref.off > f.size-int64(ref.n) ||
				ref.lastNsec < 0 || ref.lastNsec >= 1e9 || n <= 0 || off+n > len(f.keys) {
				return nil, fmt.Sprintf("index malformed: entry %d of segment %016x", k, f.seq)
			}
			s := uint32(gone)
			if bySeg[i] != nil {
				s = userHash(f.keys[off:off+n]) & mask
				count[s], keys[s] = count[s]+1, keys[s]+n
			}
			owner, keyOff = append(owner, uint16(s)), append(keyOff, uint32(off))
			prevEnd, off = ref.off+int64(ref.n), off+n
		}
		if off != len(f.keys) {
			return nil, fmt.Sprintf("index malformed: segment %016x's entries name %d key bytes, %d follow them", f.seq, off, len(f.keys))
		}
	}
	var dup atomic.Bool
	var wg sync.WaitGroup
	var shard atomic.Int64
	for range min(runtime.GOMAXPROCS(0), len(e.shards)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := int(shard.Add(1) - 1); s < len(e.shards); s = int(shard.Add(1) - 1) {
				x := &e.shards[s].spilled
				x.init(count[s], keys[s])
				i := 0
				for fi := range frames {
					for k := range frames[fi].nents() {
						if int(owner[i]) == s {
							ref, n := frames[fi].entry(k)
							key := frames[fi].keys[keyOff[i] : int(keyOff[i])+n]
							ref.seg = bySeg[fi]
							if _, twice := x.putKey(key, ref); twice {
								dup.Store(true)
							}
						}
						i++
					}
				}
			}
		}()
	}
	wg.Wait()
	if dup.Load() {
		return nil, "index malformed: a user has two entries"
	}
	return plans, ""
}

// skimSegment replays one segment the index covers: every frame is
// checksummed (seglog.Walk); a covered frame that is an entry's is checked to
// name its user and is otherwise left alone, one that is not is dead, and a
// frame beyond the covered bytes is decoded. What the index gets wrong goes
// to fail, and the skim carries on for the segment's damage and end.
func (e *Engine) skimSegment(frames []indexFrame, p *segPlan, w *walked, data []byte, fail func(string)) (int64, error) {
	fi, k, koff, ok := p.first, 0, 0, true
	next := func() bool { // is there an entry left? It is entry k of frame fi.
		for fi < p.end && k == frames[fi].nents() {
			fi, k, koff = fi+1, 0, 0
		}
		return fi < p.end
	}
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
		switch {
		case off >= p.covered:
			return decode(payload, off, n)
		case !ok:
			return nil
		case off+int64(n) > p.covered:
			wrong("its size at the checkpoint cuts the frame at offset %d", off)
			return nil
		}
		if next() {
			ref, kl := frames[fi].entry(k)
			if ref.off < off {
				wrong("entry %d does not land on a frame", k)
				return nil
			}
			if ref.off == off {
				uid, _, err := seglog.Wire.String(payload, maxSpillStringLen)
				if err != nil || len(uid) == 0 {
					return decode(payload, off, n) // the decode words the damage
				}
				if int(ref.n) != n || !bytes.Equal(frames[fi].keys[koff:koff+kl], uid) {
					wrong("entry %d does not name the user of its frame", k)
				}
				k, koff = k+1, koff+kl
				return nil
			}
		}
		w.dead++
		return nil
	})
	if (err == nil || errors.Is(err, seglog.ErrTruncated)) && (end < p.covered || next()) {
		wrong("its records end before its size at the checkpoint")
	}
	return end, err
}
