package core

import (
	"errors"
	"fmt"
	"time"

	"oak/internal/seglog"
)

// Booting the spill tier: NewEngine builds the store from the configuration
// and replays the segment directory into the shards' spill indexes, before
// the engine is shared. The durability contract the replay serves is
// spill.go's.

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
	st.recoverTook = time.Since(start)
	e.spill = st
	return err
}

// recoverSpill replays the segment log into the shards' spill indexes. Later
// records (higher segment seq, then higher offset) supersede earlier ones for
// the same user. Every segment is walked before any is committed, so each
// shard's index is sized once, for the frames it owns. A segment is committed
// only if it parsed end to end, a torn tail cut away: a quarantined one must
// leave the other segments' refs and dead counts as they are, or the GC below
// would delete a healthy segment holding the newest surviving copy of a
// user's profile. Its readable frames only count the users it loses.
func (e *Engine) recoverSpill(st *spillStore) error {
	type walked struct {
		seg    *seglog.Segment
		frames []segFrame
		err    error
	}
	var good, damaged []walked
	owned := make([]int, len(e.shards))
	err := st.log.Recover(func(seg *seglog.Segment, data []byte) (int64, error) {
		frames, end, err := walkSegment(data)
		if err != nil && !errors.Is(err, seglog.ErrTruncated) {
			damaged = append(damaged, walked{seg, frames, err})
			return end, err
		}
		good = append(good, walked{seg, frames, nil})
		for _, fr := range frames {
			owned[e.shardIndex(fr.uid)]++
		}
		return end, err
	})
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	for i, sh := range e.shards {
		sh.spilled, sh.pinned = make(map[string]spillRef, owned[i]), make(map[string]pin)
	}
	live := int64(0) // users with a ref
	for _, w := range good {
		for _, fr := range w.frames {
			spilled := e.shardFor(fr.uid).spilled
			if prev, ok := spilled[fr.uid]; ok {
				prev.seg.Dead.Add(1)
			} else {
				live++
			}
			fr.ref.seg = w.seg
			spilled[fr.uid] = fr.ref
		}
		w.seg.Total.Store(int64(len(w.frames)))
	}
	st.spilledUsers.Set(live)
	for _, w := range damaged {
		lost := map[string]bool{}
		for _, fr := range w.frames {
			if _, ok := e.shardFor(fr.uid).spilled[fr.uid]; !ok {
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
