package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oak/internal/guard"
	"oak/internal/obs"
)

// The spill tier bounds the engine's resident set. Profiles of users who
// have not reported recently are evicted from their shard's map, encoded as
// OAKPROF1 records (spillcodec.go) and appended — fsync before forget — to
// segment files. Only ingest changes where a profile lives: a spilled user's
// next report installs the profile again (rehydrateLocked), while every
// serve-side read — a page, a fingerprint, a Snapshot — is answered from the
// record where it lies, under the shard's read lock, and changes nothing
// (viewRecord). Everything is ingest-driven: there is no background
// goroutine, so the tier works identically under virtual clocks and never
// races a shutdown.
//
// Durability contract: a profile is only removed from memory after its
// record is durable (write + fsync). A crash at any instant therefore loses
// at most the purely-resident state since the last SaveStateFile — exactly
// the guarantee the engine gave before the spill tier existed — and never a
// spilled profile. Boot recovery replays the segment directory: later
// records supersede earlier ones, a torn tail (crash mid-append) is
// truncated away, and a segment that fails its checksums is quarantined and
// skipped rather than aborting boot.
//
// A restart adopts the log: recovery leaves every record's ref in place, and
// the state file's copy of a user is installed only where the log holds none,
// an older one, or one in a quarantined segment (importRange, newer-wins). What
// makes the tie safe — a record and a state-file copy with the same last report
// and the same version — is the rule above: only ingest installs a spilled
// profile, and ingest bumps the profile's version as it does (the serve path's
// write-locked fall-through after a failed read installs the record as it is,
// at the record's own version), so a record at version v post-dates every
// resident state at v that it was not itself read into, and no resident state
// at v holds a report the record lacks (spillRef.supersedes).
//
// One writer, one order: appendLocked is the only function that writes record
// frames, always to the tail of the calling shard's active segment, and
// newSegment the only one that numbers a segment, always above every number
// in use. A user's records are written by their own shard only — evictions
// and the cleaner's re-appends alike (compactSegment) — so for any one user
// (segment seq, offset) order is the order the records were written in, which
// is the "later" recovery trusts. walkSegment is the only reader of whole
// segments, for recovery and the cleaner both.
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

// spillDefaultSegmentBytes is the default segment rotation size.
const spillDefaultSegmentBytes = 4 << 20

// spillDefaultCompactRatio is the default dead-record compaction threshold.
const spillDefaultCompactRatio = 0.5

// withDefaults fills zero tuning fields.
func (c ResidencyConfig) withDefaults() ResidencyConfig {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = spillDefaultSegmentBytes
	}
	if c.CompactRatio <= 0 || c.CompactRatio > 1 {
		c.CompactRatio = spillDefaultCompactRatio
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

// spillRef locates one user's durable record: segment, frame offset and
// length, plus the profile's last-report time for prune and, with its
// version, the newer-wins statefile merge (supersedes). Guarded by the owning
// shard's mu: refs are
// written only under its write lock, and a segment's file is closed only once
// no ref points into it — the cleaner moves each shard's refs out under that
// shard's write lock first, and a shard with no survivor in the segment holds
// no ref into it (compactSegment) — so a reader holding the read lock has a
// valid ref into an open, immutable frame.
type spillRef struct {
	seg *spillSegment
	off int64
	n   int32 // frame length; frames are bounded by maxSpillRecordLen
	// active records whether the record carries any activation. A page for a
	// spilled user whose record carries none is the untouched page, decided
	// without reading the disk. (Packed beside n; a ref is 56 bytes.)
	active bool
	last   time.Time
	ver    uint64 // the record's Profile.version; 0 in records older than the field
}

// supersedes is the newer-wins rule, whole: does the record stand against a
// copy of the same user's profile — a state file's — with the given last
// report and version? A later last report wins. On the same last report the
// copy whose version is not lower wins, the record on a tie: only a report
// changes what a profile derives from reports, and only ingest makes a spilled
// profile resident — bumping its version as it does (analyzeLocked) — so a
// record at version v holds every report a resident copy at v held. Two
// unversioned copies with one last report prove nothing (two
// reports can share an instant with an eviction between them), and the other
// copy wins, as it did before records carried versions. A record in a
// quarantined segment supersedes nothing.
//
// Not versioned, because profileFromRecord re-derives them on every read of
// either copy: activations lapsed, of rules since removed, or barred by the
// guard. Bulk rollback and SetRules do not bump the version — they would make
// a capped and an uncapped engine's exports differ — so a kept record brings
// back a rolled-back activation exactly when a spilled copy that never saw a
// restart does (ROADMAP item 1, seeds (i)–(iii)).
func (r spillRef) supersedes(last time.Time, ver uint64) bool {
	switch {
	case r.seg.quarantined.Load():
		return false
	case !r.last.Equal(last):
		return r.last.After(last)
	default:
		return r.ver > 0 && r.ver >= ver
	}
}

// segFrame is one whole record frame and the ref that will point at it:
// ref.off is relative to the buffer the frame was found or built in and
// ref.seg unset until the frame has its place in the log.
type segFrame struct {
	uid string
	ref spillRef
}

// spillSegment is one append-log file. A segment is the append target of at
// most one shard at a time (active); sealed segments are immutable and only
// read (ReadAt) or compacted away.
type spillSegment struct {
	seq  uint64
	path string
	f    *os.File
	// size is the file length in bytes (header + frames).
	size atomic.Int64
	// total and dead count records written and records no longer referenced.
	// dead/total is the compaction trigger.
	total atomic.Int64
	dead  atomic.Int64
	// active marks the segment as some shard's current append target;
	// compaction skips active segments.
	active atomic.Bool
	// quarantined marks the segment's bytes as untrustworthy; refs into it
	// are dropped lazily on next touch.
	quarantined atomic.Bool
}

// deadRatio returns the fraction of records no longer referenced.
func (s *spillSegment) deadRatio() float64 {
	t := s.total.Load()
	if t <= 0 {
		return 0
	}
	return float64(s.dead.Load()) / float64(t)
}

// spillStore is the engine-level segment table and degradation latch.
type spillStore struct {
	dir string
	cfg ResidencyConfig
	// perShardProfiles / perShardBytes are the engine caps divided across
	// shards (0 = that cap unset). Residency is enforced per shard so
	// eviction never takes more than one shard lock.
	perShardProfiles int64
	perShardBytes    int64

	mu          sync.Mutex
	segs        map[uint64]*spillSegment
	nextSeq     uint64
	quarantined []string // quarantined segment file names, in discovery order
	closed      bool
	// recoverTook is how long recoverSpill ran; set once, before the engine
	// is shared.
	recoverTook time.Duration

	// failed latches memory-only mode after a spill I/O failure.
	failed atomic.Bool
	// compacting serialises the ingest-driven compactor (CAS-elected).
	compacting atomic.Bool

	// spilledUsers counts live spill refs; spillBytes counts live segment
	// file bytes. Lock-free for healthz and the over-cap precheck.
	spilledUsers obs.Gauge
	spillBytes   obs.Gauge
	// recordViews counts serve-side reads of a spilled record done in place.
	recordViews obs.Counter
}

// spillFailpoint, when set, is consulted before every spill I/O operation
// (ops: "create", "append", "sync", "read", "compact") and its non-nil error
// is injected as that operation's failure. Tests only — the same idiom as
// rules.SetApplyFailpoint.
var spillFailpoint atomic.Pointer[func(op, path string) error]

// SetSpillFailpoint installs fn as the spill I/O failpoint (nil uninstalls).
// Deterministic disk-fault injection for the chaos suite.
func SetSpillFailpoint(fn func(op, path string) error) {
	if fn == nil {
		spillFailpoint.Store(nil)
		return
	}
	spillFailpoint.Store(&fn)
}

// spillFail consults the failpoint.
func spillFail(op, path string) error {
	if fp := spillFailpoint.Load(); fp != nil {
		return (*fp)(op, path)
	}
	return nil
}

// spillSegPrefix/spillSegSuffix name segment files: seg-%016x.seg.
const (
	spillSegPrefix        = "seg-"
	spillSegSuffix        = ".seg"
	spillQuarantineSuffix = ".quarantined"
)

// spillSegPath names segment seq inside dir.
func spillSegPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", spillSegPrefix, seq, spillSegSuffix))
}

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
	if err := os.MkdirAll(cfg.Dir, 0o700); err != nil {
		return fmt.Errorf("core: create spill directory: %w", err)
	}
	st := &spillStore{
		dir:  cfg.Dir,
		cfg:  cfg,
		segs: make(map[uint64]*spillSegment),
	}
	shards := int64(len(e.shards))
	if cfg.MaxProfiles > 0 {
		st.perShardProfiles = max(1, int64(cfg.MaxProfiles)/shards)
	}
	if cfg.MaxBytes > 0 {
		st.perShardBytes = max(1, cfg.MaxBytes/shards)
	}
	for _, sh := range e.shards {
		sh.spilled = make(map[string]spillRef)
	}
	e.spill = st
	start := time.Now()
	err := e.recoverSpill()
	st.recoverTook = time.Since(start)
	return err
}

// recoverSpill replays the segment directory into the shards' spill
// indexes. Later records (higher segment seq, then higher offset) supersede
// earlier ones for the same user. A torn tail is truncated to the last whole
// frame; any other damage quarantines the whole segment — its earlier
// records are no longer trusted either — and boot continues.
func (e *Engine) recoverSpill() error {
	st := e.spill
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		return fmt.Errorf("core: read spill directory: %w", err)
	}
	var seqs []uint64
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, spillSegPrefix) || !strings.HasSuffix(name, spillSegSuffix) {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(name, spillSegPrefix+"%016x"+spillSegSuffix, &seq); err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	live := int64(0) // users with a ref
	for _, seq := range seqs {
		path := spillSegPath(st.dir, seq)
		if seq >= st.nextSeq {
			st.nextSeq = seq + 1
		}
		// One open per segment: the handle the store keeps is the one the
		// replay reads through.
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			return fmt.Errorf("core: open spill segment %s: %w", path, err)
		}
		data, err := readWholeFile(f)
		if err != nil {
			f.Close()
			return fmt.Errorf("core: read spill segment %s: %w", path, err)
		}
		if len(data) < len(spillSegMagic) {
			// Crash between segment create and header write: the file holds
			// no records, so nothing acknowledged is in it. Remove it.
			f.Close()
			os.Remove(path)
			continue
		}
		seg := &spillSegment{seq: seq, path: path}
		if string(data[:len(spillSegMagic)]) != spillSegMagic {
			f.Close()
			st.quarantine(e, seg, ErrSpillMagic)
			continue
		}
		// Two-phase replay: parse and validate the whole segment first,
		// committing nothing. Only a segment that proved good end-to-end gets
		// to supersede earlier records and bump their segments' dead counts —
		// a quarantined segment must leave the previous (still valid) refs
		// and counters exactly as they were, or the end-of-recovery GC would
		// delete a healthy segment holding the newest surviving copy of a
		// user's profile.
		frames, end, werr := walkSegment(data)
		if errors.Is(werr, ErrSpillTruncated) {
			// Crash mid-append: drop the torn tail, keep everything before it.
			if terr := f.Truncate(end); terr != nil {
				f.Close()
				return fmt.Errorf("core: truncate torn spill segment %s: %w", path, terr)
			}
			data = data[:end]
		} else if werr != nil {
			f.Close()
			st.quarantine(e, seg, werr)
			continue
		}
		// Validated: commit the segment's records in order, straight into the
		// owning shards' indexes.
		for _, fr := range frames {
			spilled := e.shardFor(fr.uid).spilled
			if prev, ok := spilled[fr.uid]; ok {
				prev.seg.dead.Add(1)
			} else {
				live++
			}
			fr.ref.seg = seg
			spilled[fr.uid] = fr.ref
		}
		seg.total.Store(int64(len(frames)))
		seg.size.Store(int64(len(data)))
		seg.f = f
		st.segs[seg.seq] = seg
		st.spillBytes.Add(seg.size.Load())
	}
	st.spilledUsers.Set(live)

	// Segments with no surviving records are garbage from previous runs;
	// removing them now keeps restart loops from accreting files.
	for seq, seg := range st.segs {
		if seg.dead.Load() >= seg.total.Load() {
			livingRef := false
			for _, sh := range e.shards {
				for _, ref := range sh.spilled {
					if ref.seg == seg {
						livingRef = true
						break
					}
				}
				if livingRef {
					break
				}
			}
			if !livingRef {
				st.spillBytes.Add(-seg.size.Load())
				seg.f.Close()
				os.Remove(seg.path)
				delete(st.segs, seq)
			}
		}
	}
	return nil
}

// readWholeFile reads an open file from its start to its end.
func readWholeFile(f *os.File) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, fi.Size())
	_, err = io.ReadFull(f, data)
	return data, err
}

// quarantine takes a segment out of service after its bytes failed
// validation: the file is renamed aside for the operator, recorded and
// counted. At boot the segment is not yet open, sized or in the table, so only
// that happens; at runtime it also leaves the table and the byte gauge, and
// refs into it are dropped lazily (next touch). Safe to call with the owning
// shard's lock held (lock order is shard → store).
func (st *spillStore) quarantine(e *Engine, seg *spillSegment, err error) {
	if seg.quarantined.Swap(true) {
		return // already quarantined by a concurrent reader
	}
	st.mu.Lock()
	delete(st.segs, seg.seq)
	st.quarantined = append(st.quarantined, filepath.Base(seg.path))
	st.mu.Unlock()
	st.spillBytes.Add(-seg.size.Load())
	e.metrics.spillErrors.Inc()
	// The open handle keeps working for readers that raced the rename; new
	// lookups drop their refs on the quarantined flag.
	if os.Rename(seg.path, seg.path+spillQuarantineSuffix) == nil {
		syncDir(st.dir)
	}
	if e.logf != nil {
		e.logf("core: spill segment %s quarantined: %v", filepath.Base(seg.path), err)
	}
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

// close closes every segment file handle. Called from Engine.Close.
func (st *spillStore) close() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.closed = true
	for _, seg := range st.segs {
		if seg.f != nil {
			seg.f.Close()
		}
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
	e.spillProfilesLocked(sh, victims)
}

// spillProfilesLocked encodes and durably appends the named resident
// profiles, then — only after the fsync — forgets them from memory. On any
// I/O failure nothing is forgotten and the store degrades to memory-only
// mode. Caller holds sh.mu for writing.
func (e *Engine) spillProfilesLocked(sh *shard, victims []string) {
	st := e.spill
	var buf, scratch []byte
	frames := make([]segFrame, 0, len(victims))
	for _, uid := range victims {
		prof, ok := sh.profiles[uid]
		if !ok {
			continue
		}
		pp := snapshotProfile(prof)
		scratch = encodeSpillRecord(scratch[:0], &pp)
		start := int64(len(buf))
		buf = appendSpillFrame(buf, scratch)
		frames = append(frames, segFrame{uid: uid, ref: spillRef{off: start, n: int32(int64(len(buf)) - start), active: len(pp.Active) > 0, last: prof.lastReport, ver: prof.version}})
	}
	if len(frames) == 0 {
		return
	}
	if err := st.appendLocked(sh, buf, frames); err != nil {
		st.degrade(e, "append", err)
		return
	}
	// Durable: now it is safe to forget.
	for _, fr := range frames {
		prof := sh.profiles[fr.uid]
		delete(sh.profiles, fr.uid)
		sh.users.Add(-1)
		sh.residentBytes.Add(-int64(prof.sizeEst))
		e.metrics.profileSpills.Inc()
	}
}

// appendLocked is the one writer of record frames: it durably appends buf —
// the frames back to back, their offsets relative to buf — to the tail of
// the shard's active segment (rotating or creating one as needed) and, the
// bytes fsynced, points the shard's refs at them, in the same critical
// section. On failure no ref has moved. Caller holds sh.mu for writing; only
// the owning shard appends to its active segment, so the offset arithmetic is
// single-writer.
func (st *spillStore) appendLocked(sh *shard, buf []byte, frames []segFrame) error {
	seg := sh.spillSeg
	if seg != nil && (seg.quarantined.Load() ||
		(seg.size.Load() > int64(len(spillSegMagic)) && seg.size.Load()+int64(len(buf)) > st.cfg.SegmentBytes)) {
		seg.active.Store(false)
		sh.spillSeg = nil
		seg = nil
	}
	if seg == nil {
		var err error
		seg, err = st.newSegment()
		if err != nil {
			return err
		}
		sh.spillSeg = seg
	}
	base := seg.size.Load()
	if err := spillFail("append", seg.path); err != nil {
		return err
	}
	if _, err := seg.f.WriteAt(buf, base); err != nil {
		return err
	}
	if err := spillFail("sync", seg.path); err != nil {
		return err
	}
	if err := seg.f.Sync(); err != nil {
		return err
	}
	seg.size.Add(int64(len(buf)))
	st.spillBytes.Add(int64(len(buf)))
	for _, fr := range frames {
		if old, ok := sh.spilled[fr.uid]; ok {
			old.seg.dead.Add(1)
		} else {
			st.spilledUsers.Add(1)
		}
		fr.ref.seg, fr.ref.off = seg, base+fr.ref.off
		sh.spilled[fr.uid] = fr.ref
		seg.total.Add(1)
	}
	return nil
}

// newSegment creates, registers and makes durable the next segment file.
func (st *spillStore) newSegment() (*spillSegment, error) {
	st.mu.Lock()
	seq := st.nextSeq
	st.nextSeq++
	st.mu.Unlock()
	path := spillSegPath(st.dir, seq)
	if err := spillFail("create", path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, err
	}
	if _, err := f.WriteAt([]byte(spillSegMagic), 0); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	seg := &spillSegment{seq: seq, path: path, f: f}
	seg.size.Store(int64(len(spillSegMagic)))
	seg.active.Store(true)
	st.mu.Lock()
	st.segs[seq] = seg
	st.mu.Unlock()
	st.spillBytes.Add(seg.size.Load())
	// Make the directory entry durable so a crash cannot orphan frames in a
	// file whose name never hit the disk.
	syncDir(st.dir)
	return seg, nil
}

// readRecord reads and decodes one spilled record. reopened is segReadAt's.
func (st *spillStore) readRecord(ref spillRef, reopened map[*spillSegment]*os.File) (*persistedProfile, error) {
	if err := spillFail("read", ref.seg.path); err != nil {
		return nil, err
	}
	buf := make([]byte, ref.n)
	if err := st.segReadAt(ref.seg, buf, ref.off, reopened); err != nil {
		return nil, err
	}
	payload, frameLen, err := nextSpillFrame(buf)
	if err != nil {
		return nil, err
	}
	if frameLen != int(ref.n) {
		return nil, fmt.Errorf("%w: frame length drifted: ref %d, parsed %d", ErrSpillCorrupt, ref.n, frameLen)
	}
	return decodeSpillRecord(payload)
}

// segReadAt reads from the segment's long-lived handle, falling back to a
// read-only open when that handle has been closed. Engine.Close releases
// segment descriptors, but the final SaveStateFile of a graceful shutdown
// runs after Close (in-flight reports must finish before the save) and must
// still export spilled records — the bytes are durable on disk; only the
// descriptor is gone. A caller with many records to read passes a map, which
// keeps each reopened segment's handle for the caller to close: one open(2)
// per segment instead of one per record. With a nil map the handle is one-shot.
func (st *spillStore) segReadAt(seg *spillSegment, buf []byte, off int64, reopened map[*spillSegment]*os.File) error {
	if seg.f != nil {
		_, err := seg.f.ReadAt(buf, off)
		if err == nil || !errors.Is(err, os.ErrClosed) {
			return err
		}
	}
	f := reopened[seg]
	if f == nil {
		var err error
		if f, err = os.Open(seg.path); err != nil {
			return err
		}
		if reopened != nil {
			reopened[seg] = f
		} else {
			defer f.Close()
		}
	}
	_, err := f.ReadAt(buf, off)
	return err
}

// rehydrateLocked brings a spilled user's profile back into memory — the
// ingest path's half of the tier (profileLocked), and the single owner of
// what an unreadable record means. It returns nil when the user has no
// spilled record, or when the record is unreadable — in which case the ref
// is dropped (the segment is quarantined for damage, the store degraded for
// I/O failures) and the caller proceeds as if the user were unknown. Caller
// holds sh.mu for writing.
func (e *Engine) rehydrateLocked(sh *shard, userID string) *Profile {
	st := e.spill
	if st == nil || sh.spilled == nil {
		return nil
	}
	ref, ok := sh.spilled[userID]
	if !ok {
		return nil
	}
	start := time.Now()
	delete(sh.spilled, userID)
	st.spilledUsers.Add(-1)
	ref.seg.dead.Add(1)
	if ref.seg.quarantined.Load() {
		// The segment's bytes are untrusted; the record is gone. Acked state
		// is still covered by the statefile (LoadStateFile merges it back).
		return nil
	}
	pp, err := st.readRecord(ref, nil)
	if err != nil {
		if isSpillDamage(err) {
			st.quarantine(e, ref.seg, err)
		} else {
			st.degrade(e, "read", err)
		}
		return nil
	}
	prof := e.installRecordLocked(sh, pp)
	e.metrics.rehydrations.Inc()
	e.rehydrateHist.Observe(time.Since(start))
	return prof
}

// installRecordLocked makes a decoded record the user's resident profile:
// the profile profileFromRecord builds, plus what only a resident profile
// has — residency accounting, and the count of the bulk rollbacks that
// reached it late. Caller holds sh.mu for writing.
func (e *Engine) installRecordLocked(sh *shard, pp *persistedProfile) *Profile {
	prof, barred := e.profileFromRecord(pp, e.now(), true)
	e.metrics.bulkDeactivations.Add(uint64(barred))
	sh.profiles[pp.UserID] = prof
	sh.users.Add(1)
	sh.residentBytes.Add(int64(prof.sizeEst))
	return prof
}

// profileFromRecord is the one conversion from the persisted form to a live
// profile under the current rule set, shared by rehydration, the in-place
// serve view and state import so they cannot disagree about what a record
// means. It drops activations of rules removed since the record was written
// and activations that have lapsed; with guarded set (records coming off the
// spill tier) it also drops those whose target provider's breaker is not
// closed or whose rule is quarantined — the trip's bulk rollback could not
// reach a spilled user — and reports how many as barred. An import passes
// guarded false: its guard state arrives in the same payload. The profile is
// not installed anywhere; nothing but the caller refers to it.
func (e *Engine) profileFromRecord(pp *persistedProfile, now time.Time, guarded bool) (prof *Profile, barred int) {
	prof = newProfile(pp.UserID)
	prof.lastReport = pp.LastReport
	prof.version = pp.Version
	for srv, n := range pp.Violations {
		if n > 0 {
			prof.violations[srv] = n
		}
	}
	byID := e.rulesByID.Load()
	for _, pa := range pp.Active {
		if byID == nil {
			break
		}
		rule, ok := (*byID)[pa.RuleID]
		if !ok {
			continue // rule removed since the record was written
		}
		if !pa.ExpiresAt.IsZero() && now.After(pa.ExpiresAt) {
			continue // lapsed while spilled, or while the engine was down
		}
		if guarded && e.spillActivationBarred(pa.RuleID, pa.AltIndex) {
			barred++
			continue
		}
		prof.active[pa.RuleID] = &ActiveRule{
			Rule:            rule,
			AltIndex:        pa.AltIndex,
			ActivatedAt:     pa.ActivatedAt,
			ExpiresAt:       pa.ExpiresAt,
			TriggerServer:   pa.TriggerServer,
			TriggerDistance: pa.TriggerDistance,
			Activations:     pa.Activations,
			Synthesized:     pa.Synthesized,
		}
		// Arm lazy expiry so a TTL'd activation lapses on the serve path
		// just like a live-activated one.
		prof.noteExpiry(pa.ExpiresAt)
	}
	prof.sizeEst = prof.estimateSize()
	return prof, barred
}

// spillActivationBarred reports whether a spilled record's activation must
// be dropped because the guard no longer admits its target: the rule is
// quarantined, or a target provider's breaker is open/half-open (the trip's
// bulk rollback would have removed the activation had it been resident).
func (e *Engine) spillActivationBarred(ruleID string, altIdx int) bool {
	if e.guard == nil {
		return false
	}
	if e.guard.RuleQuarantined(ruleID) {
		return true
	}
	for _, h := range e.altHostsFor(ruleID, altIdx) {
		if e.guard.State(h) != guard.Closed {
			return true
		}
	}
	return false
}

// viewRecord is the serve path's half of the tier: it reads a spilled
// user's record where it lies and returns the profile it describes, without
// installing it — no ref, counter, segment or file changes, so the caller
// needs only the shard's read lock (see spillRef for why the ref stays
// valid under it). It returns nil when the record cannot be read; the caller
// then falls through to rehydrateLocked under the write lock, which decides
// between quarantine and degrade and drops the ref.
func (e *Engine) viewRecord(ref spillRef) *Profile {
	if ref.seg.quarantined.Load() {
		return nil
	}
	pp, err := e.spill.readRecord(ref, nil)
	if err != nil {
		return nil
	}
	e.spill.recordViews.Inc()
	prof, _ := e.profileFromRecord(pp, e.now(), true)
	return prof
}

// profileLocked returns the user's profile, rehydrating a spilled one or
// creating a fresh one. The ingest-path replacement for the old
// shard.profileLocked. Caller holds sh.mu for writing.
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

// maybeCompact runs one ingest-driven compaction round if a sealed segment
// has crossed the dead-record threshold. CAS-elected so concurrent ingests
// never stack compactions; callers hold no shard locks.
func (e *Engine) maybeCompact() {
	st := e.spill
	if st == nil || st.failed.Load() {
		return
	}
	if !st.compacting.CompareAndSwap(false, true) {
		return
	}
	defer st.compacting.Store(false)
	victim := st.pickCompactionVictim()
	if victim == nil {
		return
	}
	e.compactSegment(victim)
}

// pickCompactionVictim returns the sealed, non-quarantined segment with the
// highest dead-record ratio at or above the threshold, nil if none.
func (st *spillStore) pickCompactionVictim() *spillSegment {
	st.mu.Lock()
	defer st.mu.Unlock()
	var victim *spillSegment
	var worst float64
	for _, seg := range st.segs {
		if seg.active.Load() || seg.quarantined.Load() || seg.total.Load() == 0 {
			continue
		}
		if r := seg.deadRatio(); r >= st.cfg.CompactRatio && (victim == nil || r > worst) {
			victim = seg
			worst = r
		}
	}
	return victim
}

// walkSegment is the one reader of segment bytes (magic included, already
// checked): it verifies every frame's length and CRC, decodes its record, and
// returns the frames in log order and where the last whole one ends. err is
// ErrSpillTruncated when data ends inside the frame at end — a torn append if
// data is a whole file — and other damage otherwise; the frames before end
// are good either way.
func walkSegment(data []byte) (frames []segFrame, end int64, err error) {
	end = int64(len(spillSegMagic))
	var pp persistedProfile // one scratch record: a frame keeps four fields of it
	for end < int64(len(data)) {
		payload, n, err := nextSpillFrame(data[end:])
		if err != nil {
			return frames, end, err
		}
		if err := decodeSpillRecordInto(&pp, payload); err != nil {
			// The frame is whole and its checksum holds, so this is not a tear.
			return frames, end, fmt.Errorf("%w: frame at offset %d: %v", ErrSpillCorrupt, end, err)
		}
		if frames == nil {
			// Records are much of a size: the first one says how many to expect.
			frames = make([]segFrame, 0, len(data)/n+1)
		}
		frames = append(frames, segFrame{uid: pp.UserID, ref: spillRef{off: end, n: int32(n), active: len(pp.Active) > 0, last: pp.LastReport, ver: pp.Version}})
		end += int64(n)
	}
	return frames, end, nil
}

// compactSegment cleans a sealed segment: each record some shard still refers
// to is appended again, byte for byte, through that shard's own append path —
// appendLocked, under the shard's write lock, with the ref moved in the same
// critical section — and once no ref points into the victim its file is
// removed. A survivor thus moves the way an eviction writes it, to the tail
// of the log, so a user's records stay in (segment seq, offset) order and
// recovery's "later supersedes earlier" holds without the cleaner being a
// special case. A crash in between leaves both copies, identical, the later
// one winning; a failed append leaves every ref not yet moved pointing into
// the victim, which stays.
//
// One shard is locked at a time, for one append and one fsync — what every
// eviction batch costs it. A segment holds one shard's records unless an
// earlier run with another shard count wrote it.
func (e *Engine) compactSegment(victim *spillSegment) {
	st := e.spill
	if err := spillFail("compact", victim.path); err != nil {
		st.degrade(e, "compact", err)
		return
	}
	data := make([]byte, victim.size.Load())
	if _, err := victim.f.ReadAt(data, 0); err != nil {
		st.degrade(e, "compact", err)
		return
	}
	frames, _, err := walkSegment(data)
	if err != nil {
		// The sealed bytes no longer parse: external damage. Quarantine
		// instead of carrying it to the tail of the log.
		st.quarantine(e, victim, err)
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
	st.mu.Lock()
	delete(st.segs, victim.seq)
	st.mu.Unlock()
	st.spillBytes.Add(-victim.size.Load())
	victim.f.Close()
	os.Remove(victim.path)
	syncDir(st.dir)
	e.metrics.segmentCompactions.Inc()
}

// reappendLocked moves the shard's live records out of victim: the frames —
// all of the victim's, other shards' included — that this shard still refers
// to go through appendLocked as one batch, copied from data, the victim's
// bytes. Caller holds sh.mu for writing.
func (st *spillStore) reappendLocked(sh *shard, victim *spillSegment, data []byte, frames []segFrame) error {
	var buf []byte
	var live []segFrame
	for _, fr := range frames {
		if ref, ok := sh.spilled[fr.uid]; ok && ref.seg == victim && ref.off == fr.ref.off {
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

// PruneProfiles removes every profile — resident or spilled — whose last
// report is before cutoff, and returns how many were removed. Spilled
// profiles are dropped by marking their records dead (the ingest-driven
// compactor reclaims the bytes).
func (e *Engine) PruneProfiles(cutoff time.Time) int {
	removed := 0
	for _, sh := range e.shards {
		sh.mu.Lock()
		for uid, prof := range sh.profiles {
			if !prof.lastReport.Before(cutoff) {
				continue
			}
			delete(sh.profiles, uid)
			sh.users.Add(-1)
			if e.spill != nil {
				sh.residentBytes.Add(-int64(prof.sizeEst))
			}
			removed++
		}
		if sh.spilled != nil {
			for uid, ref := range sh.spilled {
				if !ref.last.Before(cutoff) {
					continue
				}
				delete(sh.spilled, uid)
				ref.seg.dead.Add(1)
				e.spill.spilledUsers.Add(-1)
				removed++
			}
		}
		sh.mu.Unlock()
	}
	e.maybeCompact()
	return removed
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
	if sh.spilled != nil {
		if _, ok := sh.spilled[userID]; ok {
			return "spilled"
		}
	}
	return "none"
}

// SpillStatus is the spill tier's health and occupancy snapshot, exposed by
// /oak/v1/metrics and oakreport -memory.
type SpillStatus struct {
	// Enabled is true on engines built WithProfileResidency.
	Enabled bool `json:"enabled"`
	// MemoryOnly is true after a spill I/O failure latched the store into
	// memory-only degraded mode (evictions suspended, serving continues).
	MemoryOnly bool `json:"memoryOnly"`
	// ProfilesResident / ProfilesSpilled count where profiles live now.
	ProfilesResident int64 `json:"profilesResident"`
	ProfilesSpilled  int64 `json:"profilesSpilled"`
	// ResidentBytes is the engine's running estimate of resident profile
	// heap bytes (the quantity MaxBytes caps).
	ResidentBytes int64 `json:"residentBytes"`
	// SpillBytes is the live segment files' on-disk size.
	SpillBytes int64 `json:"spillBytes"`
	// Segments counts live segment files; QuarantinedSegments names the
	// segments taken out of service for damage.
	Segments            int      `json:"segments"`
	QuarantinedSegments []string `json:"quarantinedSegments,omitempty"`
	// Spills / Rehydrations / SegmentCompactions / SpillErrors are the
	// tier's lifetime event counters. Rehydrations counts profiles installed
	// again by a report; RecordViews counts serve-side reads of a spilled
	// record done in place (a page for a spilled user whose record carries no
	// activation needs neither).
	Spills             uint64 `json:"spills"`
	Rehydrations       uint64 `json:"rehydrations"`
	RecordViews        uint64 `json:"recordViews"`
	SegmentCompactions uint64 `json:"segmentCompactions"`
	SpillErrors        uint64 `json:"spillErrors"`
	// MaxProfiles / MaxBytes echo the configured caps.
	MaxProfiles int   `json:"maxProfiles,omitempty"`
	MaxBytes    int64 `json:"maxBytes,omitempty"`
}

// SpillStatus reports the spill tier's current state; ok is false on
// engines without one.
func (e *Engine) SpillStatus() (SpillStatus, bool) {
	st := e.spill
	if st == nil {
		return SpillStatus{}, false
	}
	s := SpillStatus{
		Enabled:            true,
		MemoryOnly:         st.failed.Load(),
		ProfilesSpilled:    st.spilledUsers.Value(),
		SpillBytes:         st.spillBytes.Value(),
		Spills:             e.metrics.profileSpills.Value(),
		Rehydrations:       e.metrics.rehydrations.Value(),
		RecordViews:        st.recordViews.Value(),
		SegmentCompactions: e.metrics.segmentCompactions.Value(),
		SpillErrors:        e.metrics.spillErrors.Value(),
		MaxProfiles:        st.cfg.MaxProfiles,
		MaxBytes:           st.cfg.MaxBytes,
	}
	for _, sh := range e.shards {
		s.ProfilesResident += sh.users.Value()
		s.ResidentBytes += sh.residentBytes.Load()
	}
	st.mu.Lock()
	s.Segments = len(st.segs)
	s.QuarantinedSegments = append([]string(nil), st.quarantined...)
	st.mu.Unlock()
	return s, true
}

// SpillDegraded reports whether the spill tier is in a degraded state that
// healthz must surface: memory-only mode or quarantined segments.
func (e *Engine) SpillDegraded() bool {
	st := e.spill
	if st == nil {
		return false
	}
	if st.failed.Load() {
		return true
	}
	st.mu.Lock()
	q := len(st.quarantined)
	st.mu.Unlock()
	return q > 0
}

// Profile size estimation: the byte cap needs a cheap, allocation-free
// approximation of a profile's heap footprint. The constants cover the map
// headers, the Profile struct and per-entry overheads; they are estimates,
// not measurements — the cap is a watermark, not an accounting identity.
const (
	profileBaseSize    = 256
	violationEntrySize = 48
	activeEntrySize    = 176
)

// estimateSize approximates the profile's heap footprint in bytes. Caller
// holds the owning shard's lock.
func (p *Profile) estimateSize() int {
	n := profileBaseSize + len(p.UserID)
	for srv := range p.violations {
		n += violationEntrySize + len(srv)
	}
	for id, a := range p.active {
		n += activeEntrySize + len(id) + len(a.TriggerServer)
	}
	return n
}

// noteProfileSizeLocked refreshes the reporting profile's size estimate and
// the shard's resident-bytes gauge after ingest mutated it. Caller holds
// sh.mu for writing.
func (e *Engine) noteProfileSizeLocked(sh *shard, prof *Profile) {
	if e.spill == nil {
		return
	}
	est := prof.estimateSize()
	sh.residentBytes.Add(int64(est - prof.sizeEst))
	prof.sizeEst = est
}
