package core

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"oak/internal/rules"
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
// The walk also gathers the guard's lifts (spillStore.lifts) from every
// record that may hold a ref, so no record is read again alone: a decoded one
// gives its epochs as it is decoded, and a covered one whose entry says it
// holds an activation is read for its epochs in place (recordEpochs). The
// checkpoint's guard section does not bound a covered one's epoch: an edited
// rules file can give its alternative other providers.
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
		e.metrics.SpillErrors.Inc()
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
	e.spill = st
	if lift := time.Now(); err == nil && e.guard != nil {
		e.squareImport(nil, true)
		st.recovered.RecoverLift += time.Since(lift)
	}
	if st.recovered.Checkpoint != "" {
		st.lifts = nil // LoadStateFile reads no state file, so nothing lifts again
	}
	st.recovered.Recover = time.Since(start)
	if n := log.Strays(); n > 0 && e.logf != nil {
		e.logf("core: spill directory %s: left alone %d files named like segments but not spelled as one", cfg.Dir, n)
	}
	return err
}

// walked is one segment's replay: the records decoded in log order (skimmed:
// those beyond the covered bytes), with their frames and lifts, those the
// index makes dead, the bytes checksummed, and the damage that quarantines it.
type walked struct {
	seg *seglog.Segment
	recordWalk
	total, dead, checked int64
	skimmed              bool
	err                  error
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
		all    []walked               // the segments, in sequence order
	)
	fail := func(reason string) { why.CompareAndSwap(nil, &reason) }
	var ruleSet map[string]*rules.Rule // set when recovery keeps lifts
	if e.guard != nil {
		ruleSet = e.rulesByID
	}
	reason, start, r := "no checkpoint", time.Now(), &st.recovered
	for _, name := range []string{checkpointName, checkpointName + BackupSuffix} {
		path := filepath.Join(st.cfg.Dir, name)
		data, release, err := seglog.MapFile(e.fs, path)
		if err == nil {
			defer release() // the index frames are views of it until the replay ends
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
		r.Checkpoint = path
		if name == checkpointName {
			e.stateSource.Store(StateSnapshot)
			e.goodPrimary.Store(&path)
		} else {
			e.stateSource.Store(StateBackup)
			e.metrics.StateRecoveries.Inc()
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
	if r.RecoverCheckpoint = time.Since(start); ckpt == nil {
		fail(reason)
	}
	plan := func(segs []*seglog.Segment) error {
		all = make([]walked, len(segs))
		if at := time.Now(); ckpt != nil {
			if plans, reason = e.planIndex(frames, segs); plans == nil {
				fail(reason)
			}
			r.RecoverIndex = time.Since(at)
		}
		return nil
	}
	err := st.log.Recover(plan, func(i int, seg *seglog.Segment, data []byte) (int64, error) {
		w, end := &all[i], int64(0)
		w.seg, w.size, w.live = seg, len(data), ruleSet
		if p := plans[seg]; p != nil && why.Load() == nil {
			w.skimmed = true
			end, w.err = e.skimSegment(frames, p, w, data, fail)
			if w.err != nil && !errors.Is(w.err, seglog.ErrTruncated) {
				fail(seg.Name() + " quarantined")
				w.recordWalk, end, w.err = walkSegment(data, ruleSet) // its readable records, as the log's walk sees them
			}
		} else {
			w.recordWalk, end, w.err = walkSegment(data, ruleSet)
			w.total, w.checked = int64(len(w.frames)), w.decoded
		}
		return end, w.err
	})
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
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
		r.IndexAdopted = live
	} else {
		r.IndexFallback = *why.Load()
		// Decode what the skim left: the whole of every segment, then size
		// each shard's index once, for the frames it owns.
		for _, w := range good {
			if w.skimmed {
				data, err := st.log.Contents(w.seg)
				if err != nil {
					return fmt.Errorf("core: read spill segment %s: %w", w.seg.Name(), err)
				}
				if w.recordWalk, _, w.err = walkSegment(data, ruleSet); w.err != nil {
					st.log.Quarantine(w.seg, w.err)
					damaged = append(damaged, w)
					continue
				}
				w.dead = 0
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
		r.Checksummed += w.checked
		r.Decoded += w.decoded
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
	if at := time.Now(); ruleSet != nil {
		st.lifts = map[liftPair]uint64{}
		for _, w := range good {
			for _, l := range w.lifts {
				if ref, _ := e.shardFor(l.uid).spilled.get(l.uid); ref.seg == w.seg && ref.off == l.off {
					st.lifts[l.liftPair] = max(st.lifts[l.liftPair], l.epoch)
				}
			}
		}
		r.RecoverLift = time.Since(at)
	}
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
	r.RecoverWalk = time.Since(start) - r.RecoverCheckpoint - r.RecoverIndex - r.RecoverLift
	return nil
}

// planIndex matches the index's frames with the directory's segments, then
// places each entry once: one pass, parallel by frame, checks the entries and
// buckets them by shard (a counting sort in the frame's own range), and each
// shard's index, sized up front, is filled from its buckets alone, in
// parallel. An entry in a segment gone since the capture is left out. It
// returns nil and why when the index does not fit the directory.
func (e *Engine) planIndex(frames []indexFrame, segs []*seglog.Segment) (map[*seglog.Segment]*segPlan, string) {
	plans := make(map[*seglog.Segment]*segPlan, len(frames))
	bySeg := make([]*seglog.Segment, len(frames)) // nil: gone
	base := make([]int, len(frames)+1)            // frame i's entries are numbered [base[i], base[i+1])
	why := make([]string, len(frames))            // the first thing wrong with frame i's entries
	for i, j := 0, 0; i < len(frames); i++ {
		f := &frames[i]
		// A segment's frames agree on its size, and only its last may be empty.
		if i > 0 && (f.seq < frames[i-1].seq || f.seq == frames[i-1].seq && (f.size != frames[i-1].size || frames[i-1].nents() == 0)) {
			return nil, fmt.Sprintf("index malformed: frame %d", i)
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
		base[i+1] = base[i] + f.nents()
	}
	// Each frame's entries, bucketed by shard in the frame's own range of
	// bucket: shard s's are bucket[base[i]+at[i][s] : base[i]+at[i][s+1]],
	// each entry by its number in the frame; their keys take keyBytes[i][s].
	S, mask := len(e.shards), uint32(len(e.shards)-1)
	owner, keyEnd, bucket := make([]uint16, base[len(frames)]), make([]uint32, base[len(frames)]), make([]uint32, base[len(frames)])
	at, keyBytes := make([]int, len(frames)*(S+1)), make([]int, len(frames)*S)
	seglog.Parallel(len(frames), func(i int) {
		f, off, prevEnd := &frames[i], 0, int64(len(seglog.Magic))
		if i > 0 && frames[i-1].seq == f.seq { // where its segment's entries before it end
			ref, _ := frames[i-1].entry(frames[i-1].nents() - 1)
			prevEnd = ref.off + int64(ref.n)
		}
		first, kb := at[i*(S+1):(i+1)*(S+1)], keyBytes[i*S:(i+1)*S]
		for k := range f.nents() {
			ref, n := f.entry(k)
			if ref.off < prevEnd || ref.n <= 0 || ref.off > f.size-int64(ref.n) ||
				ref.lastNsec < 0 || ref.lastNsec >= 1e9 || n <= 0 || off+n > len(f.keys) {
				why[i] = fmt.Sprintf("index malformed: entry %d of segment %016x", k, f.seq)
				return
			}
			if bySeg[i] != nil { // an entry in a segment gone since is left out
				s := userHash(f.keys[off:off+n]) & mask
				owner[base[i]+k], first[s+1], kb[s] = uint16(s), first[s+1]+1, kb[s]+n
			}
			keyEnd[base[i]+k], prevEnd, off = uint32(off+n), ref.off+int64(ref.n), off+n
		}
		if off != len(f.keys) {
			why[i] = fmt.Sprintf("index malformed: segment %016x's entries name %d key bytes, %d follow them", f.seq, off, len(f.keys))
		}
		for s := range S {
			first[s+1] += first[s]
		}
		next := slices.Clone(first[:S])
		for k := 0; bySeg[i] != nil && k < f.nents(); k++ {
			s := owner[base[i]+k]
			bucket[base[i]+next[s]], next[s] = uint32(k), next[s]+1
		}
	})
	if i := slices.IndexFunc(why, func(w string) bool { return w != "" }); i >= 0 {
		return nil, why[i]
	}
	var dup atomic.Bool
	seglog.Parallel(S, func(s int) {
		x, n, kb := &e.shards[s].spilled, 0, 0
		for i := range frames {
			n, kb = n+at[i*(S+1)+s+1]-at[i*(S+1)+s], kb+keyBytes[i*S+s]
		}
		x.init(n, kb)
		for i := range frames {
			for _, k := range bucket[base[i]+at[i*(S+1)+s] : base[i]+at[i*(S+1)+s+1]] {
				ref, n := frames[i].entry(int(k))
				end := keyEnd[base[i]+int(k)]
				ref.seg = bySeg[i]
				if _, twice := x.putKey(frames[i].keys[int(end)-n:end], ref); twice {
					dup.Store(true)
				}
			}
		}
	})
	if dup.Load() {
		return nil, "index malformed: a user has two entries"
	}
	return plans, ""
}

// skimSegment replays one segment the index covers: every frame is
// checksummed (seglog.Walk); a covered frame that is an entry's is checked to
// name its user, and read only for its epochs if the entry says it holds an
// activation (liftCovered); one that is not is dead; and a frame beyond the
// covered bytes is decoded. What the index gets wrong goes
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
	end, err := seglog.Walk(data, func(payload []byte, off int64, n int) error {
		w.total++
		w.checked += int64(n)
		switch {
		case off >= p.covered:
			return w.add(payload, off, n)
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
					return w.add(payload, off, n) // the decode words the damage
				}
				if int(ref.n) != n || !bytes.Equal(frames[fi].keys[koff:koff+kl], uid) {
					wrong("entry %d does not name the user of its frame", k)
				} else if ref.active && w.live != nil {
					w.liftCovered(payload, off, uid)
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
