package core

import (
	"sort"
	"sync/atomic"
	"time"

	"oak/internal/obs"
	"oak/internal/seglog"
	"oak/internal/wire"
)

// The spill tier bounds the engine's resident set. Profiles of users who
// have not reported recently are evicted from their shard's map, encoded as
// OAKPROF1 records (spillcodec.go) and appended — fsync before forget — to a
// segment log (internal/seglog). Only ingest changes where a profile lives: a
// spilled user's next report installs the profile again (rehydrateLocked),
// while every serve-side read — a page, a fingerprint, a Snapshot — is
// answered from the record where it lies, under the shard's read lock, and
// changes nothing (viewRecord). Everything is ingest-driven: there is no
// background goroutine, so the tier works identically under virtual clocks and
// never races a shutdown.
//
// Durability contract: a profile's one durable home is the log. A profile is
// removed from memory only after its record is durable (write + fsync), and a
// save appends each resident whose ref does not hold its state before it
// writes the checkpoint that indexes the log (spillckpt.go). A crash at any
// instant therefore loses at most the purely-resident state since the last
// append — the guarantee the engine gave before the spill tier existed — and
// never a spilled profile. The record a rehydration read stays live, carried
// by the cleaner like any other, until the user's next record replaces it, an
// authoritative import drops it — durably once that import's checkpoint is
// written — or it proves unreadable. A torn tail (crash mid-append) is
// truncated away at boot; a segment that fails its checksums is quarantined
// rather than aborting it, and its users are lost unless another record holds
// them: quarantine is damage from outside, not a crash, and a second copy of
// every record would double each eviction's fsync.
//
// One writer, one order: appendLocked is the only function that writes record
// frames, always to the tail of the calling shard's active segment, and the
// log numbers every new segment above every number in use. A user's records
// are written by their own shard only — evictions and the cleaner's re-appends
// alike (compactSegment) — so for any one user (segment seq, offset) order is
// the order the records were written in, which is the "later" recovery
// trusts.
//
// Failure contract: any spill I/O failure (create, append, fsync) latches
// the store into memory-only mode — evictions stop, resident state grows as
// if the tier were disabled, healthz reports degraded, and serving
// continues. Damaged segment bytes discovered at runtime quarantine that
// segment the same way boot recovery would.

// ResidencyConfig bounds the resident profile population (WithProfileResidency).
type ResidencyConfig struct {
	// Dir is the segment directory (required). Created if absent.
	Dir string
	// MaxProfiles caps resident profiles across the engine; 0 = no count cap.
	MaxProfiles int
	// MaxBytes caps estimated resident profile bytes across the engine;
	// 0 = no byte cap. At least one cap must be set.
	MaxBytes int64
	// SegmentBytes rotates the append segment when it grows past this size
	// (default 4 MiB).
	SegmentBytes int64
	// CompactRatio is the dead-record fraction at which the ingest-driven
	// compactor cleans a sealed segment (default 0.5).
	CompactRatio float64
}

// withDefaults fills zero tuning fields: 4 MiB segments, compaction at half
// dead.
func (c ResidencyConfig) withDefaults() ResidencyConfig {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 4 << 20
	}
	if c.CompactRatio <= 0 || c.CompactRatio > 1 {
		c.CompactRatio = 0.5
	}
	return c
}

// WithProfileResidency bounds the engine's resident profile set, spilling
// cold profiles to crash-safe segment files under cfg.Dir and rehydrating
// them lazily on the user's next report; pages for a spilled user are served
// from the record in place. An invalid configuration
// (no directory, no cap) fails engine construction, as does an unusable
// directory; damaged segment files do not — they are quarantined.
func WithProfileResidency(cfg ResidencyConfig) Option {
	return func(e *Engine) { e.residencyCfg = &cfg }
}

// spillStore is the engine's side of the segment log: the caps, the
// degradation latch and the counts the log does not keep.
type spillStore struct {
	log *seglog.Log
	cfg ResidencyConfig
	// perShardProfiles / perShardBytes are the engine caps divided across
	// shards (0 = that cap unset). Residency is enforced per shard so
	// eviction never takes more than one shard lock.
	perShardProfiles int64
	perShardBytes    int64
	// recovered is what recoverSpill did; set once, before the engine is
	// shared.
	recovered spillRecovery

	// failed latches memory-only mode after a spill I/O failure.
	failed atomic.Bool
	// compacting serialises the ingest-driven compactor (CAS-elected).
	compacting atomic.Bool

	// spilledUsers counts the spilled users — refs of users not resident —
	// lock-free for healthz.
	spilledUsers obs.Gauge
	// recordViews counts serve-side reads of a spilled record done in place.
	recordViews obs.Counter
}

// degrade latches memory-only mode after a spill I/O failure: evictions
// stop, already-spilled state is still read (viewed and rehydrated), serving
// continues, healthz reports degraded.
func (st *spillStore) degrade(e *Engine, op string, err error) {
	e.metrics.spillErrors.Inc()
	if st.failed.Swap(true) {
		return
	}
	if e.logf != nil {
		e.logf("core: spill %s failed, falling back to memory-only mode: %v", op, err)
	}
}

// overCap is the lock-free eviction precheck: does the shard exceed either
// per-shard watermark?
func (st *spillStore) overCap(sh *shard) bool {
	if st.perShardProfiles > 0 && sh.users.Value() > st.perShardProfiles {
		return true
	}
	if st.perShardBytes > 0 && sh.residentBytes.Load() > st.perShardBytes {
		return true
	}
	return false
}

// enforceResidency evicts the shard's coldest profiles down to the low
// watermark when it is over cap. Called after ingest (process) and after an
// import — the only events that grow the resident set.
func (e *Engine) enforceResidency(sh *shard) {
	st := e.spill
	if st == nil || st.failed.Load() || !st.overCap(sh) {
		return
	}
	sh.mu.Lock()
	e.evictColdLocked(sh)
	sh.mu.Unlock()
	e.maybeCompact()
}

// evictColdLocked spills the shard's coldest profiles (oldest lastReport,
// user ID as the deterministic tie-break) until the shard is below both
// watermarks, with a batch floor so each fsync amortises over several
// profiles. The records are durable — written and fsynced — before any
// profile is removed from memory. Caller holds sh.mu for writing.
func (e *Engine) evictColdLocked(sh *shard) {
	st := e.spill
	if st == nil || st.failed.Load() {
		return
	}
	// Low watermarks: evict ~10% below cap so the next few ingests don't
	// immediately re-trigger eviction.
	targetProfiles := int64(-1)
	if st.perShardProfiles > 0 {
		targetProfiles = st.perShardProfiles - max(st.perShardProfiles/10, 1)
	}
	targetBytes := int64(-1)
	if st.perShardBytes > 0 {
		targetBytes = st.perShardBytes - max(st.perShardBytes/10, 1)
	}
	over := func(profiles, bytes int64) bool {
		return (targetProfiles >= 0 && profiles > targetProfiles) ||
			(targetBytes >= 0 && bytes > targetBytes)
	}
	profiles := int64(len(sh.profiles))
	bytes := sh.residentBytes.Load()
	if !over(profiles, bytes) {
		return
	}

	type cand struct {
		uid  string
		last time.Time
		size int64
	}
	cands := make([]cand, 0, len(sh.profiles))
	for uid, prof := range sh.profiles {
		cands = append(cands, cand{uid: uid, last: prof.lastReport, size: int64(prof.sizeEst)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if !cands[i].last.Equal(cands[j].last) {
			return cands[i].last.Before(cands[j].last)
		}
		return cands[i].uid < cands[j].uid
	})
	var victims []string
	for _, c := range cands {
		if !over(profiles, bytes) {
			break
		}
		victims = append(victims, c.uid)
		profiles--
		bytes -= c.size
	}
	if len(victims) == 0 {
		return
	}
	e.spillProfilesLocked(sh, victims, true)
}

// spillProfilesLocked durably appends, as one batch, the records of the named
// resident profiles whose refs do not hold their current state
// (spillRef.holds), their refs moved to them, and then — only after the
// fsync, and only with forget — forgets all of them from memory: an
// eviction. On an I/O failure nothing is forgotten, and the store degrades to
// memory-only mode. Caller holds sh.mu for writing.
func (e *Engine) spillProfilesLocked(sh *shard, uids []string, forget bool) error {
	st := e.spill
	var buf, scratch []byte
	frames := make([]segFrame, 0, len(uids))
	for _, uid := range uids {
		prof, ok := sh.profiles[uid]
		if ref, held := sh.spilled.get(uid); !ok || held && ref.holds(prof.lastReport, prof.version) {
			continue
		}
		pp := snapshotProfile(prof)
		scratch = encodeSpillRecord(scratch[:0], &pp)
		start := int64(len(buf))
		buf = wire.AppendFrame(buf, scratch)
		frames = append(frames, segFrame{uid: uid, ref: newSpillRef(start, int(int64(len(buf))-start), len(pp.Active) > 0, prof.lastReport, prof.version)})
	}
	if len(frames) > 0 {
		if err := st.appendLocked(sh, buf, frames); err != nil {
			st.degrade(e, "append", err)
			return err
		}
	}
	for _, uid := range uids {
		if prof, ok := sh.profiles[uid]; forget && ok {
			delete(sh.profiles, uid)
			sh.users.Add(-1)
			sh.residentBytes.Add(-int64(prof.sizeEst))
			st.spilledUsers.Add(1)
			e.metrics.profileSpills.Inc()
		}
	}
	return nil
}

// residentsLocked lists the shard's resident users. Caller holds sh.mu.
func (sh *shard) residentsLocked() []string {
	uids := make([]string, 0, len(sh.profiles))
	for uid := range sh.profiles {
		uids = append(uids, uid)
	}
	return uids
}

// appendLocked is the one writer of record frames: it durably appends buf —
// the frames back to back, their offsets relative to buf — to the tail of
// the shard's active segment (rotating or creating one as needed) and, the
// bytes fsynced, points the shard's refs at them, in the same critical
// section. On failure no ref has moved. Caller holds sh.mu for writing; only
// the owning shard appends to its active segment, so the log's
// one-writer-per-segment rule holds.
func (st *spillStore) appendLocked(sh *shard, buf []byte, frames []segFrame) error {
	seg := sh.spillSeg
	if seg != nil && (seg.Quarantined() ||
		(seg.Total.Load() > 0 && seg.Size()+int64(len(buf)) > st.cfg.SegmentBytes)) {
		seg.Active.Store(false)
		sh.spillSeg = nil
		seg = nil
	}
	if seg == nil {
		var err error
		if seg, err = st.log.Create(); err != nil {
			return err
		}
		sh.spillSeg = seg
	}
	base, err := st.log.Append(seg, buf)
	if err != nil {
		return err
	}
	for _, fr := range frames {
		fr.ref.seg, fr.ref.off = seg, base+fr.ref.off
		seg.Total.Add(1)
		if old, ok := sh.spilled.put(fr.uid, fr.ref); ok {
			old.seg.Dead.Add(1)
		}
	}
	return nil
}

// readRecord reads and decodes one spilled record.
func (st *spillStore) readRecord(ref spillRef) (*persistedProfile, error) {
	payload, err := st.log.Read(ref.seg, ref.off, int(ref.n))
	if err != nil {
		return nil, err
	}
	return decodeSpillRecord(payload)
}

// rehydrateLocked returns the user's resident profile, bringing a spilled
// one back into memory first — the ingest path's half of the tier
// (profileLocked), and the single owner of what an unreadable record means.
// The user keeps their ref: its record is their newest durable one until the
// next eviction writes another (see the durability contract). It returns nil
// when the user has no profile, or when the record is unreadable — in which
// case the ref is dropped (the segment is quarantined for damage, the store
// degraded for I/O failures) and the caller proceeds as if the user were
// unknown. A serve that falls through to here under the write lock may find
// the user resident by then, and changes nothing. Caller holds sh.mu for
// writing.
func (e *Engine) rehydrateLocked(sh *shard, userID string) *Profile {
	if prof, ok := sh.profiles[userID]; ok {
		return prof
	}
	st := e.spill
	if st == nil {
		return nil
	}
	ref, ok := sh.spilled.get(userID)
	if !ok {
		return nil
	}
	start := time.Now()
	st.spilledUsers.Add(-1)
	// A record in a quarantined segment is untrusted: it is gone, and with it
	// the user (see the durability contract).
	if !ref.seg.Quarantined() {
		pp, err := st.readRecord(ref)
		switch {
		case err == nil:
			prof := e.profileFromRecord(pp, e.now())
			sh.profiles[userID] = prof
			sh.users.Add(1)
			sh.residentBytes.Add(int64(prof.sizeEst))
			e.metrics.rehydrations.Inc()
			e.rehydrateHist.Observe(time.Since(start))
			return prof
		case seglog.IsDamage(err):
			st.log.Quarantine(ref.seg, err)
		default:
			st.degrade(e, "read", err)
		}
	}
	sh.spilled.del(userID)
	ref.seg.Dead.Add(1)
	return nil
}

// viewRecord is the serve path's half of the tier: it reads a spilled
// user's record where it lies and returns the profile it describes, without
// installing it — no ref, counter, segment or file changes, so the caller
// needs only the shard's read lock (see spillRef for why the ref stays
// valid under it). It returns nil when the record cannot be read; the caller
// then falls through to rehydrateLocked under the write lock, which decides
// between quarantine and degrade and drops the ref.
func (e *Engine) viewRecord(ref spillRef) *Profile {
	if ref.seg.Quarantined() {
		return nil
	}
	pp, err := e.spill.readRecord(ref)
	if err != nil {
		return nil
	}
	e.spill.recordViews.Inc()
	return e.profileFromRecord(pp, e.now())
}

// profileLocked returns the user's profile, rehydrating a spilled one or
// creating a fresh one. Caller holds sh.mu for writing.
func (e *Engine) profileLocked(sh *shard, userID string) *Profile {
	if prof, ok := sh.profiles[userID]; ok {
		return prof
	}
	if prof := e.rehydrateLocked(sh, userID); prof != nil {
		return prof
	}
	prof := newProfile(userID)
	sh.profiles[userID] = prof
	sh.users.Add(1)
	if e.spill != nil {
		prof.sizeEst = prof.estimateSize()
		sh.residentBytes.Add(int64(prof.sizeEst))
	}
	return prof
}

// maybeCompact runs one ingest-driven compaction round on the sealed,
// undamaged segment with the highest dead-record ratio at or above the
// threshold, if there is one. CAS-elected so concurrent ingests never stack
// compactions; callers hold no shard locks.
func (e *Engine) maybeCompact() {
	st := e.spill
	if st == nil || st.failed.Load() || !st.compacting.CompareAndSwap(false, true) {
		return
	}
	defer st.compacting.Store(false)
	var victim *seglog.Segment
	var worst float64
	for _, seg := range st.log.Segments() {
		total := seg.Total.Load()
		if seg.Active.Load() || seg.Quarantined() || total == 0 {
			continue
		}
		if r := float64(seg.Dead.Load()) / float64(total); r >= st.cfg.CompactRatio && (victim == nil || r > worst) {
			victim, worst = seg, r
		}
	}
	if victim != nil {
		e.compactSegment(victim)
	}
}

// compactSegment cleans a sealed segment: each record some shard still refers
// to is appended again, byte for byte, through that
// shard's own append path — appendLocked, under the shard's write lock, with
// the ref moved in the same critical section — and once no ref points into
// the victim its file is removed. A survivor thus moves the way an eviction writes it, to the tail
// of the log, so a user's records stay in (segment seq, offset) order and
// recovery's "later supersedes earlier" holds without the cleaner being a
// special case. A crash in between leaves both copies, identical, the later
// one winning; a failed append leaves every ref not yet moved pointing into
// the victim, which stays.
//
// One shard is locked at a time, for one append and one fsync — what every
// eviction batch costs it. A segment holds one shard's records unless an
// earlier run with another shard count wrote it.
func (e *Engine) compactSegment(victim *seglog.Segment) {
	st := e.spill
	data, err := st.log.Contents(victim)
	if err != nil {
		st.degrade(e, "compact", err)
		return
	}
	frames, _, err := walkSegment(data)
	if err != nil {
		// The sealed bytes no longer parse: external damage. Quarantine
		// instead of carrying it to the tail of the log.
		st.log.Quarantine(victim, err)
		return
	}
	// Only a shard that owns one of the victim's users can hold a ref into it.
	owns := make([]bool, len(e.shards))
	for _, fr := range frames {
		owns[e.shardIndex(fr.uid)] = true
	}
	for i, sh := range e.shards {
		if !owns[i] {
			continue
		}
		sh.mu.Lock()
		err := st.reappendLocked(sh, victim, data, frames)
		sh.mu.Unlock()
		if err != nil {
			st.degrade(e, "compact", err)
			return
		}
	}
	// No shard holds a ref into the victim now, and none can take one: refs
	// are only ever made to a shard's active segment. A reader got its ref
	// under the shard's read lock and read through it before releasing, so
	// the write locks above waited the last of them out.
	st.log.Remove(victim)
	e.metrics.segmentCompactions.Inc()
}

// reappendLocked moves the shard's live records out of victim: the frames —
// all of the victim's, other shards' included — that this shard's refs still
// point at, resident users' included, go through appendLocked as one batch,
// copied from data, the victim's bytes. Caller holds sh.mu for writing.
func (st *spillStore) reappendLocked(sh *shard, victim *seglog.Segment, data []byte, frames []segFrame) error {
	var buf []byte
	var live []segFrame
	for _, fr := range frames {
		if ref, ok := sh.spilled.get(fr.uid); ok && ref.seg == victim && ref.off == fr.ref.off {
			fr.ref.off = int64(len(buf))
			buf = append(buf, data[ref.off:ref.off+int64(ref.n)]...)
			live = append(live, fr)
		}
	}
	if len(live) == 0 {
		return nil
	}
	return st.appendLocked(sh, buf, live)
}

// Residency reports where a user's profile currently lives: "resident",
// "spilled", or "none". Diagnostic surface for tests and tooling.
func (e *Engine) Residency(userID string) string {
	sh := e.shardFor(userID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if _, ok := sh.profiles[userID]; ok {
		return "resident"
	}
	if _, ok := sh.spilled.get(userID); ok {
		return "spilled"
	}
	return "none"
}
