package guard

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// testClock is a manually advanced clock for deterministic cool-downs.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock {
	return &testClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestSet(clk *testClock) *Set {
	return New(Config{
		TripThreshold:    3,
		OpenFor:          time.Minute,
		HalfOpenCanaries: 2,
		CloseAfter:       2,
		PanicThreshold:   2,
		Now:              clk.Now,
	})
}

// admit asks for one activation onto provider alone.
func admit(s *Set, provider string) (ok, canary bool) {
	_, canary, blockedBy := s.Admit("rule", []string{provider})
	return blockedBy == "", canary
}

func TestBreakerLifecycle(t *testing.T) {
	clk := newTestClock()
	s := newTestSet(clk)

	// Unknown provider: closed, admits, good outcomes are no-ops.
	if ok, canary := admit(s, "cdn.example"); !ok || canary || s.State("cdn.example") != Closed {
		t.Fatalf("unknown provider: admit %v canary %v", ok, canary)
	}
	if tr := s.Observe("cdn.example", true, 1); tr != TransitionNone {
		t.Fatalf("good outcome on unknown provider: transition %v", tr)
	}
	if got := len(s.Snapshot()); got != 0 {
		t.Fatalf("good outcome should not create a breaker, snapshot has %d", got)
	}

	// Bad outcomes below threshold: still closed, still admitting.
	s.Observe("cdn.example", false, 40)
	s.Observe("cdn.example", false, 41)
	if st := s.State("cdn.example"); st != Closed {
		t.Fatalf("state after 2 bad = %v, want Closed", st)
	}
	if ok, _ := admit(s, "cdn.example"); !ok {
		t.Fatal("closed breaker must admit")
	}

	// A good outcome resets the consecutive count.
	s.Observe("cdn.example", true, 1)
	s.Observe("cdn.example", false, 40)
	s.Observe("cdn.example", false, 41)
	if st := s.State("cdn.example"); st != Closed {
		t.Fatal("good outcome should have reset the bad streak")
	}

	// Third consecutive bad trips.
	if tr := s.Observe("cdn.example", false, 42); tr != TransitionTrip {
		t.Fatalf("3rd consecutive bad: transition %v, want Trip", tr)
	}
	if ok, _ := admit(s, "cdn.example"); ok || s.State("cdn.example") != Open {
		t.Fatalf("open breaker admitted (state %v)", s.State("cdn.example"))
	}
	if open := s.OpenProviders(); len(open) != 1 || open[0] != "cdn.example" {
		t.Fatalf("OpenProviders = %v", open)
	}
	// Outcomes while open are stale and ignored.
	if tr := s.Observe("cdn.example", true, 1); tr != TransitionNone {
		t.Fatalf("stale outcome while open: transition %v", tr)
	}

	// Cool-down not elapsed: still denied.
	clk.Advance(30 * time.Second)
	if ok, _ := admit(s, "cdn.example"); ok {
		t.Fatal("admitted before cool-down elapsed")
	}

	// Cool-down elapsed: half-open, two canaries then denial.
	clk.Advance(31 * time.Second)
	ok1, c1 := admit(s, "cdn.example")
	ok2, c2 := admit(s, "cdn.example")
	if !ok1 || !c1 || !ok2 || !c2 {
		t.Fatalf("canary decisions = %v/%v, %v/%v", ok1, c1, ok2, c2)
	}
	if ok, _ := admit(s, "cdn.example"); ok {
		t.Fatal("third activation admitted past canary budget")
	}
	if st := s.State("cdn.example"); st != HalfOpen {
		t.Fatalf("budget-exhausted state = %v, want HalfOpen", st)
	}

	// One good canary outcome: not enough to close.
	if tr := s.Observe("cdn.example", true, 2); tr != TransitionNone {
		t.Fatalf("1st good canary transition %v", tr)
	}
	// Second closes.
	if tr := s.Observe("cdn.example", true, 2); tr != TransitionClose {
		t.Fatalf("2nd good canary transition %v, want Close", tr)
	}
	if st := s.State("cdn.example"); st != Closed {
		t.Fatalf("state after close = %v", st)
	}
	if ok, canary := admit(s, "cdn.example"); !ok || canary {
		t.Fatalf("closed-after-recovery: admit %v canary %v", ok, canary)
	}
}

func TestHalfOpenBadReopens(t *testing.T) {
	clk := newTestClock()
	s := newTestSet(clk)
	for i := 0; i < 3; i++ {
		s.Observe("cdn.example", false, 50)
	}
	clk.Advance(2 * time.Minute)
	if _, canary := admit(s, "cdn.example"); !canary {
		t.Fatal("want canary admission")
	}
	if tr := s.Observe("cdn.example", false, 60); tr != TransitionReopen {
		t.Fatalf("bad canary transition %v, want Reopen", tr)
	}
	if ok, _ := admit(s, "cdn.example"); ok {
		t.Fatal("reopened breaker admitted")
	}
	// The reopen starts a fresh cool-down.
	clk.Advance(2 * time.Minute)
	if ok, canary := admit(s, "cdn.example"); !ok || !canary {
		t.Fatalf("post-reopen cool-down: admit %v canary %v", ok, canary)
	}
}

// canariesUsed reads provider's spent canary slots from the snapshot.
func canariesUsed(s *Set, provider string) int {
	for _, ps := range s.Snapshot() {
		if ps.Provider == provider {
			return ps.CanariesUsed
		}
	}
	return -1
}

func TestAdmitIsAllOrNothing(t *testing.T) {
	clk := newTestClock()
	s := newTestSet(clk)
	s.ForceOpen("half.example")
	clk.Advance(2 * time.Minute) // half-open: two canary slots
	s.ForceOpen("open.example")
	alt := []string{"closed.example", "half.example", "open.example"}

	// One provider refuses: nothing is admitted and no slot is spent.
	if _, canary, by := s.Admit("r", alt); canary || by != "open.example" {
		t.Fatalf("Admit = canary %v blockedBy %q, want refused by open.example", canary, by)
	}
	if n := canariesUsed(s, "half.example"); n != 0 {
		t.Fatalf("refused admission spent %d canary slots", n)
	}
	// A quarantined rule refuses before any breaker is asked.
	s.QuarantineRule("r")
	if _, _, by := s.Admit("r", []string{"half.example"}); by != "rule:r" {
		t.Fatalf("quarantined rule: blockedBy %q, want rule:r", by)
	}
	if n := canariesUsed(s, "half.example"); n != 0 {
		t.Fatalf("quarantined rule spent %d canary slots", n)
	}
	s.ReleaseRule("r")

	// Every provider admits: the half-open one spends one slot.
	s.ForceClose("open.example")
	if _, canary, by := s.Admit("r", alt); !canary || by != "" {
		t.Fatalf("Admit = canary %v blockedBy %q, want a canary admission", canary, by)
	}
	if n := canariesUsed(s, "half.example"); n != 1 {
		t.Fatalf("admitted canary spent %d slots, want 1", n)
	}
}

func TestForceOpenReopensAnElapsedCoolDown(t *testing.T) {
	clk := newTestClock()
	s := newTestSet(clk)
	s.ForceOpen("cdn.example")
	clk.Advance(2 * time.Minute) // half-open, though nothing has asked yet
	if !s.ForceOpen("cdn.example") {
		t.Fatal("ForceOpen after the cool-down should reopen the breaker")
	}
	if ok, _ := admit(s, "cdn.example"); ok {
		t.Fatal("a re-quarantined provider admitted a canary")
	}
}

func TestForceOpenForceClose(t *testing.T) {
	clk := newTestClock()
	s := newTestSet(clk)
	if !s.ForceOpen("cdn.example") {
		t.Fatal("ForceOpen on fresh provider should report a transition")
	}
	if s.ForceOpen("cdn.example") {
		t.Fatal("ForceOpen on already-open provider should report false")
	}
	if ok, _ := admit(s, "cdn.example"); ok {
		t.Fatal("force-opened breaker admitted")
	}
	if !s.ForceClose("cdn.example") {
		t.Fatal("ForceClose on open provider should report a transition")
	}
	if s.ForceClose("cdn.example") {
		t.Fatal("ForceClose on closed provider should report false")
	}
	if ok, _ := admit(s, "cdn.example"); !ok {
		t.Fatal("force-closed breaker denied")
	}
	// ForceClose also clears a pending bad streak.
	s.Observe("cdn.example", false, 10)
	s.Observe("cdn.example", false, 10)
	s.ForceClose("cdn.example")
	s.Observe("cdn.example", false, 10)
	if st := s.State("cdn.example"); st != Closed {
		t.Fatal("bad streak should have been reset by ForceClose")
	}
}

func TestRuleQuarantine(t *testing.T) {
	s := newTestSet(newTestClock()) // PanicThreshold 2
	if s.ObserveRulePanic("r1") {
		t.Fatal("first panic should not quarantine")
	}
	if s.RuleQuarantined("r1") {
		t.Fatal("not yet quarantined")
	}
	if !s.ObserveRulePanic("r1") {
		t.Fatal("second panic should quarantine")
	}
	if s.ObserveRulePanic("r1") {
		t.Fatal("crossing the threshold reports true exactly once")
	}
	if !s.RuleQuarantined("r1") {
		t.Fatal("rule should be quarantined")
	}
	if got := s.QuarantinedRules(); len(got) != 1 || got[0] != "r1" {
		t.Fatalf("QuarantinedRules = %v", got)
	}
	if s.QuarantineRule("r1") {
		t.Fatal("manual quarantine of quarantined rule reports false")
	}
	s.ReleaseRule("r1")
	if s.RuleQuarantined("r1") {
		t.Fatal("released rule still quarantined")
	}
	if !s.QuarantineRule("r2") {
		t.Fatal("manual quarantine of fresh rule reports true")
	}
	if !s.RuleQuarantined("r2") {
		t.Fatal("manually quarantined rule not quarantined")
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	clk := newTestClock()
	s := newTestSet(clk)

	// Healthy set exports nil.
	if p := s.Export(); p != nil {
		t.Fatalf("healthy export = %+v, want nil", p)
	}
	// Good outcomes and resolved streaks keep it nil.
	s.Observe("cdn.example", false, 5)
	s.Observe("cdn.example", true, 1)
	if p := s.Export(); p != nil {
		t.Fatalf("reset-streak export = %+v, want nil", p)
	}

	// Build interesting state: one open, one mid-streak, one quarantined rule.
	for i := 0; i < 3; i++ {
		s.Observe("dead.example", false, 90)
	}
	s.Observe("slow.example", false, 20)
	s.ObserveRulePanic("r1")
	s.ObserveRulePanic("r1")

	p := s.Export()
	if p == nil {
		t.Fatal("export = nil with open breaker")
	}
	if len(p.Breakers) != 2 || p.Breakers[0].Provider != "dead.example" || p.Breakers[1].Provider != "slow.example" {
		t.Fatalf("breakers = %+v", p.Breakers)
	}
	if p.Breakers[0].State != "open" || p.Breakers[1].ConsecutiveBad != 1 {
		t.Fatalf("breakers = %+v", p.Breakers)
	}
	if len(p.Rules) != 1 || !p.Rules[0].Quarantined || p.Rules[0].Panics != 2 {
		t.Fatalf("rules = %+v", p.Rules)
	}

	// JSON round-trip into a fresh set preserves behaviour.
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Persisted
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	s2 := newTestSet(clk)
	s2.Import(&decoded, false)
	if ok, _ := admit(s2, "dead.example"); ok {
		t.Fatal("imported open breaker admitted")
	}
	if !s2.RuleQuarantined("r1") {
		t.Fatal("imported rule quarantine lost")
	}
	// Mid-streak breaker trips after (threshold - streak) more bad outcomes.
	s2.Observe("slow.example", false, 20)
	if tr := s2.Observe("slow.example", false, 20); tr != TransitionTrip {
		t.Fatalf("imported streak transition %v, want Trip", tr)
	}
	// The imported openedAt honours the cool-down.
	clk.Advance(2 * time.Minute)
	if ok, canary := admit(s2, "dead.example"); !ok || !canary {
		t.Fatalf("imported breaker after cool-down: admit %v canary %v", ok, canary)
	}

	// Import(nil) clears every state and keeps the counts: the breakers read
	// closed and the rule released, each with the trip or quarantine it had.
	s2.Import(nil, true)
	p = s2.Export()
	if p == nil || len(p.Breakers) != 2 || len(p.Rules) != 1 {
		t.Fatalf("cleared export = %+v, want the two breakers and the rule with their counts", p)
	}
	for _, pb := range p.Breakers {
		if pb.State != "closed" || pb.ConsecutiveBad != 0 || pb.Trips != 1 {
			t.Fatalf("cleared breaker = %+v, want closed with one trip", pb)
		}
	}
	if pr := p.Rules[0]; pr.Quarantined || pr.Panics != 0 || pr.Quarantines != 1 {
		t.Fatalf("cleared rule = %+v, want released with one quarantine", pr)
	}
	if ok, _ := admit(s2, "dead.example"); !ok {
		t.Fatal("cleared set denied")
	}
}

func TestSnapshotStatuses(t *testing.T) {
	clk := newTestClock()
	s := newTestSet(clk)
	for i := 0; i < 3; i++ {
		s.Observe("b.example", false, 70)
	}
	s.Observe("a.example", false, 15)
	snap := s.Snapshot()
	if len(snap) != 2 || snap[0].Provider != "a.example" || snap[1].Provider != "b.example" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[0].State != "closed" || snap[0].ConsecutiveBad != 1 {
		t.Fatalf("a.example status = %+v", snap[0])
	}
	if snap[1].State != "open" || snap[1].Trips != 1 {
		t.Fatalf("b.example status = %+v", snap[1])
	}
	clk.Advance(10 * time.Second)
	snap = s.Snapshot()
	if snap[1].OpenForMs < 9999 || snap[1].OpenForMs > 10001 {
		t.Fatalf("OpenForMs = %v, want ~10000", snap[1].OpenForMs)
	}
}

func TestConcurrentAccess(t *testing.T) {
	clk := newTestClock()
	s := newTestSet(clk)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			providers := []string{"x.example", "y.example", "z.example"}
			for i := 0; i < 500; i++ {
				p := providers[(g+i)%len(providers)]
				s.Admit("r", []string{p, providers[(g+i+1)%len(providers)]})
				s.Observe(p, i%3 == 0, float64(i%50))
				if i%17 == 0 {
					s.Snapshot()
					s.Export()
					s.OpenProviders()
				}
				if i%31 == 0 {
					s.ObserveRulePanic("r")
					s.QuarantinedRules()
				}
				if i%101 == 0 {
					clk.Advance(time.Second)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEpochOnlyGrows: a pair's epoch is its rule's quarantines plus its
// providers' trips; a close, a release and an Export/Import round trip keep
// every count, and a breaker or rule persisted without one reads as the
// least its state allows.
func TestEpochOnlyGrows(t *testing.T) {
	clk := newTestClock()
	s := newTestSet(clk)
	alt := []string{"a.example", "b.example"}
	epoch := func(s *Set) uint64 { return s.Epoch("r", alt) }
	if e, _, by := s.Admit("r", alt); e != 0 || by != "" {
		t.Fatalf("fresh set: epoch %d, blocked by %q", e, by)
	}
	s.ForceOpen("a.example")
	s.ForceClose("a.example")
	s.ForceOpen("b.example")
	clk.Advance(2 * time.Minute)
	if tr := s.Observe("b.example", false, 9); tr != TransitionReopen {
		t.Fatalf("bad canary outcome: %v, want a reopen", tr)
	}
	s.ForceClose("b.example")
	s.QuarantineRule("r")
	s.ReleaseRule("r")
	if got := epoch(s); got != 4 {
		t.Fatalf("epoch after 3 trips, 1 quarantine, closes and a release = %d, want 4", got)
	}
	if e, _, by := s.Admit("r", alt); e != 4 || by != "" {
		t.Fatalf("admit after the release: epoch %d, blocked by %q", e, by)
	}

	raw, err := json.Marshal(s.Export())
	if err != nil {
		t.Fatal(err)
	}
	var p Persisted
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatal(err)
	}
	s2 := newTestSet(clk)
	s2.Import(&p, false)
	if got := epoch(s2); got != 4 {
		t.Fatalf("epoch after a round trip through %s = %d, want 4", raw, got)
	}

	// Persisted before the counts existed: open and half-open breakers and a
	// quarantined rule read as tripped and quarantined once; closed ones as
	// never. An open breaker at its floor exports without a count.
	s3 := newTestSet(clk)
	s3.Import(&Persisted{
		Breakers: []PersistedBreaker{
			{Provider: "a.example", State: "open", OpenedAt: clk.Now()},
			{Provider: "b.example", State: "half-open"},
			{Provider: "c.example", State: "closed", ConsecutiveBad: 1},
		},
		Rules: []PersistedRule{{RuleID: "r", Quarantined: true}},
	}, false)
	if got := s3.Epoch("r", []string{"a.example", "b.example", "c.example"}); got != 3 {
		t.Fatalf("legacy epoch = %d, want 3", got)
	}
	for _, pb := range s3.Export().Breakers {
		if pb.Trips != 0 {
			t.Fatalf("breaker at its floor exported a count: %+v", pb)
		}
	}
}

// TestLiftAndKeepCounts: Lift raises a pair's epoch to a recorded one through
// the rule's count — the rule stays admitted, its other pairs move with it,
// and a lower epoch moves nothing — and a trip after it moves past it. Import
// replaces the counts unless asked to keep the larger of each.
func TestLiftAndKeepCounts(t *testing.T) {
	clk := newTestClock()
	s := newTestSet(clk)
	alt := []string{"a.example"}
	if !s.Lift("r", alt, 2) || s.Lift("r", alt, 2) || s.Lift("r", nil, 1) {
		t.Fatal("Lift moved what it must not, or not what it must")
	}
	if got := s.Epoch("r", alt); got != 2 {
		t.Fatalf("lifted epoch = %d, want 2", got)
	}
	if got := s.Epoch("r", []string{"b.example"}); got != 2 {
		t.Fatalf("the rule's other pair reads %d, want 2", got)
	}
	if e, _, by := s.Admit("r", alt); e != 2 || by != "" {
		t.Fatalf("admit after a lift: epoch %d, blocked by %q", e, by)
	}
	s.ForceOpen("a.example")
	if got := s.Epoch("r", alt); got != 3 {
		t.Fatalf("epoch after a lift and a trip = %d, want 3", got)
	}

	fewer := &Persisted{Breakers: []PersistedBreaker{{Provider: "a.example", State: "closed", Trips: 0, ConsecutiveBad: 1}}}
	kept := newTestSet(clk)
	kept.Import(s.Export(), false)
	kept.Import(fewer, true)
	if got := kept.Epoch("r", alt); got != 3 {
		t.Fatalf("epoch after an import keeping counts = %d, want 3", got)
	}
	kept.Import(fewer, false)
	if got := kept.Epoch("r", alt); got != 0 {
		t.Fatalf("epoch after an import replacing counts = %d, want 0", got)
	}
}
