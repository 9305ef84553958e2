package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"oak/internal/rules"
	"oak/internal/seglog"
)

// newSpillEngine builds a single-shard engine with a residency cap over a
// temp spill directory. Single-shard so the per-shard cap equals cfg's cap
// and eviction order is fully deterministic (lastReport, then user ID).
func newSpillEngine(t *testing.T, clock *testClock, cfg ResidencyConfig, opts ...Option) *Engine {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	all := append([]Option{WithClock(clock.Now), WithShards(1), WithProfileResidency(cfg)}, opts...)
	e, err := NewEngine([]*rules.Rule{jqRule(0)}, all...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// forceSpill durably evicts the named users regardless of the cap, so tests
// control exactly which profiles are on disk.
func forceSpill(t *testing.T, e *Engine, uids ...string) {
	t.Helper()
	for _, uid := range uids {
		sh := e.shardFor(uid)
		sh.mu.Lock()
		if _, ok := sh.profiles[uid]; ok {
			e.spillProfilesLocked(sh, []string{uid}, true)
		}
		sh.mu.Unlock()
		if got := e.Residency(uid); got != "spilled" {
			t.Fatalf("forceSpill(%s): residency = %q, want spilled", uid, got)
		}
	}
}

// segFiles lists the live segment files under dir, sorted.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), ".seg") {
			out = append(out, filepath.Join(dir, ent.Name()))
		}
	}
	return out
}

func TestResidencyConfigValidation(t *testing.T) {
	if _, err := NewEngine(nil, WithProfileResidency(ResidencyConfig{MaxProfiles: 10})); err == nil {
		t.Error("NewEngine accepted a residency cap with no spill directory")
	}
	if _, err := NewEngine(nil, WithProfileResidency(ResidencyConfig{Dir: t.TempDir()})); err == nil {
		t.Error("NewEngine accepted a spill directory with no cap")
	}
}

func TestSpillEvictsColdAndRehydratesLazily(t *testing.T) {
	clock := newTestClock()
	e := newSpillEngine(t, clock, ResidencyConfig{MaxProfiles: 4})
	const users = 10
	for i := 1; i <= users; i++ {
		if _, err := e.HandleReport(slowS1Report(fmt.Sprintf("u%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := e.SpillStatus()
	if !ok {
		t.Fatal("SpillStatus not ok on a residency-capped engine")
	}
	if st.ProfilesResident > 4 {
		t.Errorf("ProfilesResident = %d, want <= cap 4", st.ProfilesResident)
	}
	if st.ProfilesResident+st.ProfilesSpilled != users {
		t.Errorf("resident %d + spilled %d != %d users", st.ProfilesResident, st.ProfilesSpilled, users)
	}
	if e.Users() != users {
		t.Errorf("Users = %d, want %d (spilled users still count)", e.Users(), users)
	}
	if st.Spills == 0 || st.SpillBytes == 0 {
		t.Errorf("Spills = %d, SpillBytes = %d after evictions", st.Spills, st.SpillBytes)
	}
	if st.MemoryOnly || e.SpillDegraded() {
		t.Error("healthy spill tier reports degraded")
	}

	// With a pinned clock eviction tie-breaks on user ID: u01 is coldest.
	if got := e.Residency("u01"); got != "spilled" {
		t.Fatalf("Residency(u01) = %q, want spilled", got)
	}
	// Snapshot is a serve-side read: it sees the violation counters and the
	// activation through the record where it lies. (Until PR 18 this test
	// required the user to be resident afterwards; serve-side reads no longer
	// move a profile — only ingest does.)
	snap, ok := e.Snapshot("u01")
	if !ok {
		t.Fatal("spilled user unknown to Snapshot")
	}
	if snap.Violations["ip-s1.com"] != 1 {
		t.Errorf("violations read from the record = %v", snap.Violations)
	}
	if len(snap.ActiveRules) != 1 || snap.ActiveRules[0] != "jquery" {
		t.Errorf("activations read from the record = %+v", snap.ActiveRules)
	}
	// So is a page: the spilled user's activation still rewrites it.
	page := `<script src="http://s1.com/jquery.js">`
	out, _ := e.ModifyPage("u01", "/index.html", page)
	if !strings.Contains(out, "s2.net") {
		t.Error("spilled user u01 served unrewritten page")
	}
	if got := e.Residency("u01"); got != "spilled" {
		t.Errorf("Residency(u01) after Snapshot and a page = %q, want spilled", got)
	}
	after, _ := e.SpillStatus()
	if m := e.Metrics(); m.Rehydrations != 0 || after.Spills != st.Spills {
		t.Errorf("serve-side reads moved profiles: Rehydrations = %d, Spills %d -> %d",
			m.Rehydrations, st.Spills, after.Spills)
	}
	if after.RecordViews != 2 {
		t.Errorf("RecordViews = %d, want 2 (one Snapshot, one page)", after.RecordViews)
	}

	// Rehydration is ingest's: the user's next report installs the profile,
	// and Rehydrations counts exactly those installs. (The clock moves so the
	// report makes u01 the shard's warmest, not its tie-break coldest.)
	clock.Advance(time.Minute)
	if _, err := e.HandleReport(slowS1Report("u01")); err != nil {
		t.Fatal(err)
	}
	if got := e.Residency("u01"); got != "resident" {
		t.Errorf("Residency(u01) after a report = %q, want resident", got)
	}
	if snap, _ := e.Snapshot("u01"); snap.Violations["ip-s1.com"] != 2 {
		t.Errorf("violations after the rehydrating report = %v, want ip-s1.com:2", snap.Violations)
	}
	if m := e.Metrics(); m.Rehydrations != 1 {
		t.Errorf("Rehydrations = %d, want 1", m.Rehydrations)
	}
	if lat := e.Latencies(); lat.Rehydrate.Count != 1 {
		t.Errorf("rehydrate histogram count = %d, want 1", lat.Rehydrate.Count)
	}
}

func TestSpillByteCapEvicts(t *testing.T) {
	clock := newTestClock()
	// ~1.5 profiles' worth of bytes: the second ingest must spill.
	e := newSpillEngine(t, clock, ResidencyConfig{MaxBytes: 900})
	for i := 1; i <= 6; i++ {
		if _, err := e.HandleReport(slowS1Report(fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := e.SpillStatus()
	if st.ProfilesSpilled == 0 {
		t.Fatalf("byte cap never evicted: %+v", st)
	}
	if st.ResidentBytes > 900 {
		t.Errorf("ResidentBytes = %d, want <= 900", st.ResidentBytes)
	}
}

func TestSpillIngestRehydratesAndMerges(t *testing.T) {
	clock := newTestClock()
	e := newSpillEngine(t, clock, ResidencyConfig{MaxProfiles: 100})
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	forceSpill(t, e, "u1")
	clock.Advance(time.Minute)
	// The user's next report rehydrates the profile and increments its
	// existing counters instead of starting from zero.
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	snap, _ := e.Snapshot("u1")
	if snap.Violations["ip-s1.com"] != 2 {
		t.Errorf("violations after spilled re-report = %v, want ip-s1.com:2", snap.Violations)
	}
}

func TestImportStateEvictsBackUnderCap(t *testing.T) {
	src, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(newTestClock().Now), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	const users = 20
	for i := 1; i <= users; i++ {
		if _, err := src.HandleReport(slowS1Report(fmt.Sprintf("u%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	data, err := src.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	dst := newSpillEngine(t, newTestClock(), ResidencyConfig{MaxProfiles: 4})
	if err := dst.ImportState(data); err != nil {
		t.Fatal(err)
	}
	st, _ := dst.SpillStatus()
	if st.ProfilesResident > 4 {
		t.Errorf("ProfilesResident after import = %d, want <= cap 4", st.ProfilesResident)
	}
	if st.ProfilesResident+st.ProfilesSpilled != users {
		t.Errorf("resident %d + spilled %d != %d imported users",
			st.ProfilesResident, st.ProfilesSpilled, users)
	}
	// Re-export of the over-cap import is byte-identical to the source.
	got, err := dst.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("re-export after capped import differs from source")
	}
}

func TestImportStateRangeEvictsBackUnderCap(t *testing.T) {
	src, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(newTestClock().Now), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		if _, err := src.HandleReport(slowS1Report(fmt.Sprintf("u%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	r := EqualRanges(2)[0]
	arc, err := src.exportStateRange(r)
	if err != nil {
		t.Fatal(err)
	}

	dst := newSpillEngine(t, newTestClock(), ResidencyConfig{MaxProfiles: 3})
	// Pre-populate the arc with stale spilled state the import must replace:
	// the payload is authoritative for its range.
	stale := ""
	for i := 1; i <= 20; i++ {
		if uid := fmt.Sprintf("u%02d", i); r.Contains(UserHash(uid)) {
			stale = uid
			break
		}
	}
	if _, err := dst.HandleReport(slowS1Report(stale)); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.HandleReport(slowS1Report(stale)); err != nil { // 2 violations: differs from payload's 1
		t.Fatal(err)
	}
	forceSpill(t, dst, stale)

	if err := dst.ImportStateRange(r, arc); err != nil {
		t.Fatal(err)
	}
	st, _ := dst.SpillStatus()
	if st.ProfilesResident > 3 {
		t.Errorf("ProfilesResident after range import = %d, want <= cap 3", st.ProfilesResident)
	}
	snap, ok := dst.Snapshot(stale)
	if !ok {
		t.Fatalf("in-range user %s lost by range import", stale)
	}
	if snap.Violations["ip-s1.com"] != 1 {
		t.Errorf("stale spilled record survived an authoritative range import: %v", snap.Violations)
	}
	got, err := dst.exportStateRange(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, arc) {
		t.Error("re-export of imported arc differs from donated arc")
	}
}

func TestSpillCompactionReclaimsDeadSegments(t *testing.T) {
	clock := newTestClock()
	dir := t.TempDir()
	// SegmentBytes 1: every spill batch seals the previous segment, so dead
	// records accumulate in sealed files the compactor may claim.
	e := newSpillEngine(t, clock, ResidencyConfig{Dir: dir, MaxProfiles: 100, SegmentBytes: 1})
	for i := 1; i <= 4; i++ {
		uid := fmt.Sprintf("u%d", i)
		if _, err := e.HandleReport(slowS1Report(uid)); err != nil {
			t.Fatal(err)
		}
		forceSpill(t, e, uid)
	}
	before := len(segFiles(t, dir))
	if before < 2 {
		t.Fatalf("segment files = %d, want >= 2 (rotation never sealed one)", before)
	}
	// Rehydrate everything (a report each — reads leave records live) and
	// evict it again in one batch: every sealed record is now dead.
	for i := 1; i <= 4; i++ {
		if _, err := e.HandleReport(slowS1Report(fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	sh := e.shards[0]
	sh.mu.Lock()
	e.spillProfilesLocked(sh, []string{"u1", "u2", "u3", "u4"}, true)
	sh.mu.Unlock()
	// One compaction round per call, as the next reports would run them.
	for i := 0; i < before+1; i++ {
		e.maybeCompact()
	}
	m := e.Metrics()
	if m.SegmentCompactions == 0 {
		t.Fatal("no compaction ran over fully-dead sealed segments")
	}
	if after := len(segFiles(t, dir)); after >= before {
		t.Errorf("segment files %d -> %d, want fewer after compaction", before, after)
	}
}

func TestSpillFailureDegradesToMemoryOnly(t *testing.T) {
	clock := newTestClock()
	fs := &testFS{}
	e := newSpillEngine(t, clock, ResidencyConfig{MaxProfiles: 2}, withFS(fs))
	boom := errors.New("disk on fire")
	fs.setRefuse(func(op, path string) error {
		if op == "write" || op == "create" {
			return boom
		}
		return nil
	})

	const users = 8
	for i := 1; i <= users; i++ {
		if _, err := e.HandleReport(slowS1Report(fmt.Sprintf("u%d", i))); err != nil {
			t.Fatalf("ingest failed while spill tier degraded: %v", err)
		}
	}
	st, _ := e.SpillStatus()
	if !st.MemoryOnly {
		t.Fatal("spill I/O failure did not latch memory-only mode")
	}
	if !e.SpillDegraded() {
		t.Error("SpillDegraded = false in memory-only mode")
	}
	if st.SpillErrors == 0 {
		t.Error("SpillErrors = 0 after injected append failure")
	}
	// Nothing was forgotten: every profile is resident and serving works.
	if st.ProfilesResident != users || st.ProfilesSpilled != 0 {
		t.Errorf("resident %d spilled %d, want %d/0 (fsync before forget)",
			st.ProfilesResident, st.ProfilesSpilled, users)
	}
	page := `<script src="http://s1.com/jquery.js">`
	if out, _ := e.ModifyPage("u1", "/index.html", page); !strings.Contains(out, "s2.net") {
		t.Error("serving stopped in memory-only mode")
	}
}

func TestSpillRecoveryTruncatesTornTail(t *testing.T) {
	clock := newTestClock()
	dir := t.TempDir()
	e := newSpillEngine(t, clock, ResidencyConfig{Dir: dir, MaxProfiles: 100})
	for _, uid := range []string{"u1", "u2"} {
		if _, err := e.HandleReport(slowS1Report(uid)); err != nil {
			t.Fatal(err)
		}
	}
	forceSpill(t, e, "u1", "u2")
	e.Close()

	// A crash mid-append leaves a partial frame at the tail: a length prefix
	// promising more bytes than the file holds.
	segs := segFiles(t, dir)
	if len(segs) == 0 {
		t.Fatal("no segment files written")
	}
	tail := segs[len(segs)-1]
	f, err := os.OpenFile(tail, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x7F, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e2 := newSpillEngine(t, newTestClock(), ResidencyConfig{Dir: dir, MaxProfiles: 100})
	if e2.SpillDegraded() {
		t.Error("torn tail quarantined a segment; it should only be truncated")
	}
	for _, uid := range []string{"u1", "u2"} {
		if got := e2.Residency(uid); got != "spilled" {
			t.Errorf("Residency(%s) after torn-tail recovery = %q, want spilled", uid, got)
		}
		snap, ok := e2.Snapshot(uid)
		if !ok || snap.Violations["ip-s1.com"] != 1 {
			t.Errorf("%s state after torn-tail recovery: ok=%v violations=%v", uid, ok, snap.Violations)
		}
	}
}

func TestSpillRecoveryQuarantinesCorruptSegment(t *testing.T) {
	clock := newTestClock()
	dir := t.TempDir()
	e := newSpillEngine(t, clock, ResidencyConfig{Dir: dir, MaxProfiles: 100})
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	forceSpill(t, e, "u1")
	e.Close()

	segs := segFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("segment files = %d, want 1", len(segs))
	}
	// Flip a payload byte well past the frame's length prefix: the CRC
	// must reject the record and the whole segment with it.
	f, err := os.OpenFile(segs[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	off := int64(len(seglog.Magic)) + 10
	if _, err := f.ReadAt(buf, off); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0x40
	if _, err := f.WriteAt(buf, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e2 := newSpillEngine(t, newTestClock(), ResidencyConfig{Dir: dir, MaxProfiles: 100})
	if !e2.SpillDegraded() {
		t.Fatal("corrupt segment did not mark the tier degraded")
	}
	st, _ := e2.SpillStatus()
	if len(st.QuarantinedSegments) != 1 {
		t.Fatalf("QuarantinedSegments = %v, want one entry", st.QuarantinedSegments)
	}
	if st.SpillErrors == 0 {
		t.Error("SpillErrors = 0 after quarantine")
	}
	// The damaged file was renamed aside for the operator, not deleted.
	if _, err := os.Stat(segs[0] + ".quarantined"); err != nil {
		t.Errorf("quarantined file missing: %v", err)
	}
	if got := e2.Residency("u1"); got != "none" {
		t.Errorf("Residency(u1) = %q, want none (record lost with its segment)", got)
	}
	// Boot survived and the engine still serves.
	if _, err := e2.HandleReport(slowS1Report("u2")); err != nil {
		t.Errorf("ingest after quarantined boot: %v", err)
	}
}

func TestSpillStatefileNewerWins(t *testing.T) {
	clock := newTestClock()
	dir := t.TempDir()
	state := filepath.Join(t.TempDir(), "oak-state.json")
	e := newSpillEngine(t, clock, ResidencyConfig{Dir: dir, MaxProfiles: 100})
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveStateFile(state); err != nil {
		t.Fatal(err)
	}
	// After the snapshot: u1 reports again (2 violations) and is spilled —
	// durable. u2 appears only after the snapshot and is spilled — durable.
	clock.Advance(time.Minute)
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.HandleReport(slowS1Report("u2")); err != nil {
		t.Fatal(err)
	}
	forceSpill(t, e, "u1", "u2")
	// Crash: no Close, no save.

	clock2 := newTestClock()
	clock2.Advance(2 * time.Minute)
	e2 := newSpillEngine(t, clock2, ResidencyConfig{Dir: dir, MaxProfiles: 100})
	if _, err := e2.LoadStateFile(state); err != nil {
		t.Fatal(err)
	}
	// The spilled records postdate the snapshot: both survive the import.
	snap, ok := e2.Snapshot("u1")
	if !ok || snap.Violations["ip-s1.com"] != 2 {
		t.Errorf("u1 after boot: ok=%v violations=%v, want the newer spilled copy (2)", ok, snap.Violations)
	}
	if snap, ok := e2.Snapshot("u2"); !ok || snap.Violations["ip-s1.com"] != 1 {
		t.Errorf("u2 (spilled after snapshot, absent from it) lost: ok=%v violations=%v", ok, snap.Violations)
	}
}

func TestSpillStatefileAuthoritativeOverOlderSpill(t *testing.T) {
	// The inverse ordering: a spill record older than the snapshot must NOT
	// shadow the snapshot's newer copy at boot.
	clock := newTestClock()
	dir := t.TempDir()
	state := filepath.Join(t.TempDir(), "oak-state.json")
	e := newSpillEngine(t, clock, ResidencyConfig{Dir: dir, MaxProfiles: 100})
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	forceSpill(t, e, "u1")
	clock.Advance(time.Minute)
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil { // rehydrates; now 2 violations, resident
		t.Fatal(err)
	}
	if err := e.SaveStateFile(state); err != nil {
		t.Fatal(err)
	}
	e.Close()

	e2 := newSpillEngine(t, newTestClock(), ResidencyConfig{Dir: dir, MaxProfiles: 100})
	if _, err := e2.LoadStateFile(state); err != nil {
		t.Fatal(err)
	}
	snap, ok := e2.Snapshot("u1")
	if !ok || snap.Violations["ip-s1.com"] != 2 {
		t.Errorf("u1 after boot: ok=%v violations=%v, want the snapshot's copy (2)", ok, snap.Violations)
	}
}

func TestSpillStatefileSaveAfterCloseKeepsSpilled(t *testing.T) {
	// The graceful-shutdown ordering: oakd stops ingest with
	// Engine.Close and only then takes the final SaveStateFile. Close
	// releases the segment descriptors, but an export must still read every
	// spilled profile — the record bytes are durable on disk; only the
	// handles are gone — and the save, a checkpoint of the residents, must
	// boot back to every user beside the same segment directory.
	clock := newTestClock()
	dir := t.TempDir()
	state := filepath.Join(t.TempDir(), "oak-state.json")
	e := newSpillEngine(t, clock, ResidencyConfig{Dir: dir, MaxProfiles: 100})
	const users = 6
	for i := 1; i <= users; i++ {
		if _, err := e.HandleReport(slowS1Report(fmt.Sprintf("u%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	forceSpill(t, e, "u01", "u02", "u03", "u04") // 4 spilled, 2 resident

	before, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	after, err := e.ExportState()
	if err != nil {
		t.Fatalf("ExportState after Close: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Error("export after Close differs from export before Close")
	}
	if err := e.SaveStateFile(state); err != nil {
		t.Fatalf("SaveStateFile after Close: %v", err)
	}

	e2 := newSpillEngine(t, clock, ResidencyConfig{Dir: dir, MaxProfiles: 100})
	if _, err := e2.LoadStateFile(state); err != nil {
		t.Fatal(err)
	}
	if got := e2.Users(); got != users {
		t.Fatalf("rebooted engine has %d users, want %d — the shutdown lost spilled profiles", got, users)
	}
	for i := 1; i <= users; i++ {
		uid := fmt.Sprintf("u%02d", i)
		if snap, ok := e2.Snapshot(uid); !ok || snap.Violations["ip-s1.com"] != 1 {
			t.Errorf("%s after reboot: ok=%v violations=%v, want 1", uid, ok, snap.Violations)
		}
	}
}

func TestSpillExportFailsLoudOnReadError(t *testing.T) {
	// An I/O failure reading a spilled record must fail the export, not
	// silently install a snapshot missing acknowledged profiles — the
	// previous good snapshot staying in place is strictly safer.
	clock := newTestClock()
	fs := &testFS{}
	e := newSpillEngine(t, clock, ResidencyConfig{MaxProfiles: 100}, withFS(fs))
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	forceSpill(t, e, "u1")
	fs.setRefuse(func(op, path string) error {
		if op == "read" {
			return errors.New("injected read failure")
		}
		return nil
	})
	if _, err := e.ExportState(); err == nil {
		t.Error("ExportState succeeded with an unreadable spilled record; would silently lose acknowledged state")
	}
	// The audit walks the same records under the same rule.
	if _, err := e.Audit(); err == nil {
		t.Error("Audit succeeded with an unreadable spilled record; would silently leave out a user")
	}
}

// flipSegByte flips one payload byte well past the first frame's length
// prefix, so the record CRC (and the whole segment with it) must reject.
func flipSegByte(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 1)
	off := int64(len(seglog.Magic)) + 10
	if _, err := f.ReadAt(buf, off); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0x40
	if _, err := f.WriteAt(buf, off); err != nil {
		t.Fatal(err)
	}
}

func TestSpillRecoveryFallsBackToSupersededRecord(t *testing.T) {
	// A user spilled twice lands in two segments: the older record in a
	// sealed segment, superseded by the newer one. When recovery quarantines
	// the segment holding the newer record, the older — still valid — copy
	// must come back, and its healthy segment must not be garbage-collected.
	clock := newTestClock()
	dir := t.TempDir()
	// SegmentBytes 1: each spill batch rotates, so the two copies of u1
	// land in different segment files.
	e := newSpillEngine(t, clock, ResidencyConfig{Dir: dir, MaxProfiles: 100, SegmentBytes: 1})
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	forceSpill(t, e, "u1") // older record: segment A
	clock.Advance(time.Minute)
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil { // rehydrates
		t.Fatal(err)
	}
	forceSpill(t, e, "u1") // newer record: segment B
	e.Close()

	segs := segFiles(t, dir)
	if len(segs) != 2 {
		t.Fatalf("segment files = %d, want 2 (no rotation between spills)", len(segs))
	}
	flipSegByte(t, segs[1]) // damage the segment holding the newer record

	e2 := newSpillEngine(t, newTestClock(), ResidencyConfig{Dir: dir, MaxProfiles: 100})
	if !e2.SpillDegraded() {
		t.Fatal("corrupt segment did not mark the tier degraded")
	}
	if _, err := os.Stat(segs[0]); err != nil {
		t.Fatalf("healthy segment holding the surviving copy was deleted: %v", err)
	}
	if got := e2.Residency("u1"); got != "spilled" {
		t.Fatalf("Residency(u1) = %q, want spilled (older record survives)", got)
	}
	snap, ok := e2.Snapshot("u1")
	if !ok {
		t.Fatal("u1 lost: quarantining the newer record must fall back to the older one")
	}
	// The older record pre-dates the second report: one violation, not two.
	if snap.Violations["ip-s1.com"] != 1 {
		t.Errorf("violations = %v, want the first spill's state (1)", snap.Violations)
	}
}

func TestSpillExportQuarantinesDamagedSegment(t *testing.T) {
	// Export discovering a codec-damaged record must quarantine the segment
	// like the rehydrate path would, so healthz surfaces the loss instead of
	// the snapshot silently omitting a user still indexed as spilled.
	clock := newTestClock()
	dir := t.TempDir()
	e := newSpillEngine(t, clock, ResidencyConfig{Dir: dir, MaxProfiles: 100})
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.HandleReport(slowS1Report("u2")); err != nil {
		t.Fatal(err)
	}
	forceSpill(t, e, "u1")
	segs := segFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("segment files = %d, want 1", len(segs))
	}
	flipSegByte(t, segs[0])

	out, err := e.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	if bytes.Contains(out, []byte(`"u1"`)) {
		t.Error("export contains the damaged record")
	}
	if !bytes.Contains(out, []byte(`"u2"`)) {
		t.Error("export lost the resident profile")
	}
	if !e.SpillDegraded() {
		t.Error("damaged segment discovered by export did not degrade healthz")
	}
	st, _ := e.SpillStatus()
	if len(st.QuarantinedSegments) != 1 {
		t.Errorf("QuarantinedSegments = %v, want one entry", st.QuarantinedSegments)
	}
	if st.SpillErrors == 0 {
		t.Error("SpillErrors = 0 after export-path quarantine")
	}
}

// TestEvictionRewritesARecordInAQuarantinedSegment: a resident whose ref holds
// its state is evicted without a write — unless that record's segment has
// been quarantined since, when the eviction writes it again, so the user
// outlives the damaged segment.
func TestEvictionRewritesARecordInAQuarantinedSegment(t *testing.T) {
	clock := newTestClock()
	e := newSpillEngine(t, clock, ResidencyConfig{MaxProfiles: 100})
	for _, uid := range []string{"held", "damaged"} {
		if _, err := e.HandleReport(slowS1Report(uid)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.SaveStateFile(filepath.Join(t.TempDir(), "state.json")); err != nil { // both records hold their state
		t.Fatal(err)
	}
	ref, _ := e.shardFor("damaged").spilled.get("damaged")
	want, _ := e.Snapshot("damaged")
	bytes := e.spill.log.Bytes.Value()
	forceSpill(t, e, "held")
	if got := e.spill.log.Bytes.Value(); got != bytes {
		t.Errorf("evicting a resident whose record holds its state wrote %d bytes", got-bytes)
	}
	e.spill.log.Quarantine(ref.seg, errors.New("injected damage"))
	forceSpill(t, e, "damaged")
	if got, ok := e.Snapshot("damaged"); !ok || !reflect.DeepEqual(got, want) {
		t.Errorf("damaged came back as %+v (%v), was %+v", got, ok, want)
	}
}
