package faultinject_test

// Spill-tier chaos: kill the process mid-spill (torn segment tail) and
// hole-punch a sealed segment out from under a live engine, then assert the
// crash-safety contract — no acknowledged state lost, corrupt segments
// quarantined (not fatal), the engine keeps serving, and a reboot's exports
// are byte-identical to an all-resident engine that learned the same
// reports. Run with the rest of the chaos suite: `make chaos`.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"oak"
	"oak/internal/faultinject"
)

// spillClock is a deterministic engine clock so exports from independently
// built engines are byte-comparable.
type spillClock struct {
	mu sync.Mutex
	t  time.Time
}

func newSpillClock() *spillClock {
	return &spillClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *spillClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *spillClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// spillReport is a report whose s1.com fetch is slow enough to violate and
// activate the jquery rule.
func spillReport(t *testing.T, user string) *oak.Report {
	t.Helper()
	rep, err := oak.UnmarshalReport([]byte(fmt.Sprintf(`{"userId":%q,"page":"/index.html","entries":[
	  {"url":"http://s1.com/jquery.js","serverAddr":"ip-s1.com","sizeBytes":1024,"durationMillis":2000,"kind":"script"},
	  {"url":"http://a.example/a.png","serverAddr":"ip-a.example","sizeBytes":1024,"durationMillis":100},
	  {"url":"http://b.example/b.png","serverAddr":"ip-b.example","sizeBytes":1024,"durationMillis":110},
	  {"url":"http://c.example/c.png","serverAddr":"ip-c.example","sizeBytes":1024,"durationMillis":95}
	]}`, user)))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// spillSegs lists the live (non-quarantined) segment files in dir, oldest
// first — segment names are monotonic hex sequence numbers.
func spillSegs(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	return segs
}

// TestSpillChaosKillMidSpill crashes an engine that has spilled profiles
// beyond its last statefile save, with a torn half-written frame at the
// newest segment's tail. The reboot must truncate the torn tail (not
// quarantine, not fail boot), keep every user, and prefer the newer spilled
// copies over the older statefile snapshot — byte-identically to a
// reference engine that learned the surviving state with no spill tier.
func TestSpillChaosKillMidSpill(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(t.TempDir(), "oak-state.json")
	rule := chaosRule(t)

	clock := newSpillClock()
	engine, err := oak.NewEngine([]*oak.Rule{rule},
		oak.WithClock(clock.Now), oak.WithShards(1),
		oak.WithProfileResidency(oak.ResidencyConfig{Dir: dir, MaxProfiles: 3}))
	if err != nil {
		t.Fatal(err)
	}
	const users = 10
	uid := func(i int) string { return fmt.Sprintf("k%02d", i) }
	for i := 1; i <= users; i++ {
		if _, err := engine.HandleReport(spillReport(t, uid(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := engine.SaveStateFile(state); err != nil {
		t.Fatal(err)
	}

	// Past the checkpoint: six users report again (their violation counters
	// advance), and the cap keeps spilling the cold ones underneath.
	clock.Advance(time.Minute)
	for i := 1; i <= 6; i++ {
		if _, err := engine.HandleReport(spillReport(t, uid(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Durability line at the kill: spilled profiles are fsynced and must
	// survive; post-save state still resident rolls back to the statefile.
	durable := map[string]bool{}
	for i := 1; i <= users; i++ {
		durable[uid(i)] = engine.Residency(uid(i)) == "spilled"
	}
	if st, ok := engine.SpillStatus(); !ok || st.ProfilesSpilled == 0 {
		t.Fatal("nothing spilled before the kill; chaos is vacuous")
	}

	// Kill: no Close, no save — and the torn frame a mid-append power cut
	// leaves behind (a length prefix promising bytes that never arrived).
	segs := spillSegs(t, dir)
	if len(segs) == 0 {
		t.Fatal("no segment files on disk")
	}
	tail, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tail.Write([]byte{0x7F, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	tail.Close()

	// Reboot over the same spill dir + statefile.
	clock2 := newSpillClock()
	clock2.Advance(time.Minute)
	rebooted, err := oak.NewEngine([]*oak.Rule{rule},
		oak.WithClock(clock2.Now), oak.WithShards(1),
		oak.WithProfileResidency(oak.ResidencyConfig{Dir: dir, MaxProfiles: 3}))
	if err != nil {
		t.Fatalf("reboot over torn segment: %v", err)
	}
	defer rebooted.Close()
	if _, err := rebooted.LoadStateFile(state); err != nil {
		t.Fatal(err)
	}
	if rebooted.SpillDegraded() {
		st, _ := rebooted.SpillStatus()
		t.Fatalf("torn tail degraded the tier (want silent truncation): %+v", st)
	}
	if got := rebooted.Users(); got != users {
		t.Fatalf("rebooted with %d users, want %d", got, users)
	}
	for i := 1; i <= users; i++ {
		want := 1
		if durable[uid(i)] && i <= 6 {
			want = 2 // the newer spilled copy, not the statefile's
		}
		snap, ok := rebooted.Snapshot(uid(i))
		if !ok || snap.Violations["ip-s1.com"] != want {
			t.Errorf("%s after reboot: ok=%v violations=%v, want ip-s1.com:%d",
				uid(i), ok, snap.Violations, want)
		}
	}

	// Byte-identity: an engine with no spill tier that learned exactly the
	// surviving state must export the same snapshot.
	refClock := newSpillClock()
	ref, err := oak.NewEngine([]*oak.Rule{rule}, oak.WithClock(refClock.Now), oak.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= users; i++ {
		if _, err := ref.HandleReport(spillReport(t, uid(i))); err != nil {
			t.Fatal(err)
		}
	}
	refClock.Advance(time.Minute)
	for i := 1; i <= 6; i++ {
		if durable[uid(i)] {
			if _, err := ref.HandleReport(spillReport(t, uid(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := rebooted.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("post-crash export differs from all-resident reference:\n--- rebooted\n%s\n--- reference\n%s", got, want)
	}
}

// TestSpillChaosHolePunch zero-fills a span of a sealed segment under a
// live engine — the filesystem's version of a lost write. Touching the
// spilled users must quarantine the damaged segment (typed CRC failure, not
// a crash), count spill errors, and leave the engine serving. Quarantine is
// damage from outside the crash contract, and the state file is a checkpoint
// of the residents only: the users whose one record the punch destroyed stay
// gone after a reboot, and every other user comes back byte-identically to
// an all-resident reference that never saw the lost ones.
func TestSpillChaosHolePunch(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(t.TempDir(), "oak-state.json")
	rule := chaosRule(t)

	clock := newSpillClock()
	engine, err := oak.NewEngine([]*oak.Rule{rule},
		oak.WithClock(clock.Now), oak.WithShards(1),
		oak.WithProfileResidency(oak.ResidencyConfig{Dir: dir, MaxProfiles: 2, SegmentBytes: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	const users = 8
	uid := func(i int) string { return fmt.Sprintf("h%02d", i) }
	for i := 1; i <= users; i++ {
		if _, err := engine.HandleReport(spillReport(t, uid(i))); err != nil {
			t.Fatal(err)
		}
	}
	segs := spillSegs(t, dir)
	if len(segs) < 2 {
		t.Fatalf("segment files = %d, want >= 2 sealed segments", len(segs))
	}
	// Checkpoint before the damage: the residents are in the state file, the
	// spilled users in their segments alone.
	if err := engine.SaveStateFile(state); err != nil {
		t.Fatal(err)
	}

	// Punch the oldest (sealed) segment. HolePunch zeroes a seeded span of
	// file content; retry seeds until the bytes actually change, in case a
	// span lands on bytes that were already zero.
	victim := segs[0]
	before, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	punched := false
	for seed := int64(1); seed <= 32; seed++ {
		if err := faultinject.CorruptFile(victim, seed, faultinject.HolePunch); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(victim)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			punched = true
			break
		}
	}
	if !punched {
		t.Fatal("hole punch never changed the segment bytes")
	}

	// Touch every spilled user: rehydrations from the punched segment must
	// fail closed — quarantine, count, keep going. Twice: a record read whole
	// before the punched one quarantined its segment goes with it.
	lost := map[string]bool{}
	for pass := 0; pass < 2; pass++ {
		for i := 1; i <= users; i++ {
			engine.Snapshot(uid(i))
			if engine.Residency(uid(i)) == "none" {
				lost[uid(i)] = true
			}
		}
	}
	if len(lost) == 0 {
		t.Fatal("no user lost to the punched segment; damage never surfaced")
	}
	if !engine.SpillDegraded() {
		t.Error("SpillDegraded = false after a quarantined segment")
	}
	st, _ := engine.SpillStatus()
	if len(st.QuarantinedSegments) == 0 {
		t.Error("no segment quarantined after CRC failure")
	}
	if st.SpillErrors == 0 {
		t.Error("SpillErrors = 0 after hole punch")
	}
	if _, err := os.Stat(victim + ".quarantined"); err != nil {
		t.Errorf("quarantined segment not set aside for the operator: %v", err)
	}
	// Degraded, not down: ingest and page rewriting still answer.
	if _, err := engine.HandleReport(spillReport(t, "fresh-user")); err != nil {
		t.Errorf("ingest failed while degraded: %v", err)
	}
	page := `<script src="http://s1.com/jquery.js"></script>`
	if out, _ := engine.ModifyPage(uid(users), "/index.html", page); out == page {
		t.Error("page rewriting stopped while degraded")
	}

	// Reboot over the pre-punch checkpoint: the quarantined segment stays
	// aside, the log and the checkpoint restore what they hold, and the export
	// matches an engine that was never capped and never saw the lost users.
	rebooted, err := oak.NewEngine([]*oak.Rule{rule},
		oak.WithClock(newSpillClock().Now), oak.WithShards(1),
		oak.WithProfileResidency(oak.ResidencyConfig{Dir: dir, MaxProfiles: 2, SegmentBytes: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer rebooted.Close()
	if _, err := rebooted.LoadStateFile(state); err != nil {
		t.Fatal(err)
	}
	if rebooted.SpillDegraded() {
		t.Error("reboot re-entered degraded mode; quarantine should persist out of the scan set")
	}
	// Every user the punch did not take, plus fresh-user: acked after the
	// checkpoint, in the log or in memory until the engine's last eviction.
	if got := rebooted.Users(); got != users+1-len(lost) {
		t.Fatalf("rebooted with %d users, want %d (%d lost to the punch)", got, users+1-len(lost), len(lost))
	}
	for u := range lost {
		if r := rebooted.Residency(u); r != "none" {
			t.Errorf("%s, whose only record was quarantined, came back %s", u, r)
		}
	}
	ref, err := oak.NewEngine([]*oak.Rule{rule}, oak.WithClock(newSpillClock().Now), oak.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= users; i++ {
		if lost[uid(i)] {
			continue
		}
		if _, err := ref.HandleReport(spillReport(t, uid(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ref.HandleReport(spillReport(t, "fresh-user")); err != nil {
		t.Fatal(err)
	}
	got, err := rebooted.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("post-punch export differs from all-resident reference:\n--- rebooted\n%s\n--- reference\n%s", got, want)
	}
}
