package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"oak/internal/obs"
	"oak/internal/report"
	"oak/internal/rules"
)

// A rollback is an epoch every activation records, so whichever road brought
// an activation into a profile, a trip of the provider it rewrites onto must
// kill it, and the user's next report must drop and count it.
// TestTripReachesEveryRoad walks each road on a plain and a residency-capped
// engine side by side.

const roadPage = `<html><script src="http://s1.com/jquery.js"></script></html>`

// roadRule is the jquery rule with two alternatives on two providers.
func roadRule() *rules.Rule {
	return jqRule(0,
		`<script src="http://s2.net/jquery.js">`,
		`<script src="http://s3.org/jquery.js">`,
	)
}

// s2SlowReport makes s2.net a violator further from the median than
// slowS1Report made s1.com, so a user on the s2.net alternative advances.
func s2SlowReport(user string) *report.Report {
	return loadReport(user, map[string]float64{
		"s2.net": 5000, "a.example": 100, "b.example": 110, "c.example": 105, "d.example": 95,
	})
}

// roadWorld is one row's pair of engines: the same options but for the
// residency cap, on one clock, fed the same operations.
type roadWorld struct {
	t             *testing.T
	clock         *testClock
	shards        int
	plain, capped *Engine
}

func newRoadWorld(t *testing.T, shards int) *roadWorld {
	w := &roadWorld{t: t, clock: newTestClock(), shards: shards}
	w.plain = w.engine()
	// The cap is far above the population: nobody leaves memory unless a row
	// spills them by hand.
	w.capped = w.engine(WithProfileResidency(ResidencyConfig{MaxProfiles: 4096, Dir: t.TempDir()}))
	return w
}

// engine builds one more engine of the world's kind (rows use it for donors).
func (w *roadWorld) engine(extra ...Option) *Engine {
	w.t.Helper()
	opts := append([]Option{
		WithClock(w.clock.Now),
		WithShards(w.shards),
		WithTraceCapacity(1024),
		WithGuard(GuardConfig{TripThreshold: 3, OpenFor: time.Minute}),
		WithSynthesis(SynthesisConfig{Window: time.Minute}),
	}, extra...)
	e, err := NewEngine([]*rules.Rule{roadRule()}, opts...)
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(func() { e.Close() })
	return e
}

func (w *roadWorld) each(op func(e *Engine)) {
	op(w.plain)
	op(w.capped)
}

// activate brings each user onto the rule's first alternative by the organic
// road: their own slow report.
func activate(t *testing.T, e *Engine, users ...string) {
	t.Helper()
	for _, u := range users {
		handle(t, e, slowS1Report(u))
	}
}

// rollbackEvents counts the per-user rollback traces by user.
func rollbackEvents(e *Engine) map[string]int {
	perUser := make(map[string]int)
	for _, ev := range e.TraceRecent(1024) {
		if ev.Kind == obs.EventRollback {
			perUser[ev.User]++
		}
	}
	return perUser
}

// trip feeds provider's breaker the bad outcomes that open it. The trip walks
// no profile — it counts and traces no rollback — yet at once every user in
// reverted is served the untouched page and every user in kept (user → host)
// still the alternative on their host. Then each of them reports, and the
// report drops and counts exactly the reverted users' activations: the
// counter's delta and one rollback trace per reverted user.
func (w *roadWorld) trip(provider string, reverted []string, kept map[string]string) {
	w.t.Helper()
	w.each(func(e *Engine) {
		before := e.Metrics()
		tracedBefore := rollbackEvents(e)
		for i := 0; i < 3; i++ {
			e.ObserveProviderOutcome(provider, false, 500)
		}
		atTrip := e.Metrics()
		if got := atTrip.BreakerTrips - before.BreakerTrips; got != 1 {
			w.t.Fatalf("trip %s: BreakerTrips grew by %d, want 1", provider, got)
		}
		if atTrip.BulkDeactivations != before.BulkDeactivations || len(rollbackEvents(e)) != len(tracedBefore) {
			w.t.Errorf("trip %s: the trip itself counted or traced a rollback", provider)
		}
		for _, u := range reverted {
			if rw := e.RewritePage(u, "/index.html", roadPage); rw.HTML != roadPage {
				w.t.Errorf("trip %s: user %s still rewritten: %q", provider, u, rw.HTML)
			}
		}
		for u, host := range kept {
			if rw := e.RewritePage(u, "/index.html", roadPage); !strings.Contains(rw.HTML, host) {
				w.t.Errorf("trip %s: user %s lost their alternative on %s: %q", provider, u, host, rw.HTML)
			}
		}
		for _, u := range reverted {
			handle(w.t, e, healthyReport(u))
		}
		for u := range kept {
			handle(w.t, e, healthyReport(u))
		}
		after := e.Metrics()
		if got := after.BulkDeactivations - atTrip.BulkDeactivations; got != uint64(len(reverted)) {
			w.t.Errorf("trip %s: BulkDeactivations grew by %d over the reports, want %d", provider, got, len(reverted))
		}
		if got := after.RuleDeactivations - before.RuleDeactivations; got != 0 {
			w.t.Errorf("trip %s: RuleDeactivations grew by %d, want 0 (a rollback is not a history revert)", provider, got)
		}
		traced := rollbackEvents(e)
		for _, u := range reverted {
			if got := traced[u] - tracedBefore[u]; got != 1 {
				w.t.Errorf("trip %s: user %s has %d new rollback traces, want 1", provider, u, got)
			}
		}
		for u := range kept {
			if got := traced[u] - tracedBefore[u]; got != 0 {
				w.t.Errorf("trip %s: kept user %s has %d new rollback traces, want 0", provider, u, got)
			}
		}
		for u, host := range kept {
			if rw := e.RewritePage(u, "/index.html", roadPage); !strings.Contains(rw.HTML, host) {
				w.t.Errorf("trip %s: user %s lost their alternative on %s after reporting: %q", provider, u, host, rw.HTML)
			}
		}
	})
}

// sameExport requires the two engines to export the same bytes.
func (w *roadWorld) sameExport() {
	w.t.Helper()
	p, err := w.plain.ExportState()
	if err != nil {
		w.t.Fatal(err)
	}
	c, err := w.capped.ExportState()
	if err != nil {
		w.t.Fatal(err)
	}
	if !bytes.Equal(p, c) {
		w.t.Errorf("capped and plain engines export different states:\nplain:  %s\ncapped: %s", p, c)
	}
}

func TestTripReachesEveryRoad(t *testing.T) {
	// The suffix spreads the IDs over the hash ring (see seedUsers).
	users := func(tag string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s-%d-%08x", tag, i, uint32(i)*2654435761)
		}
		return out
	}
	roads := []struct {
		name string
		walk func(t *testing.T, w *roadWorld)
	}{
		{"organic activation", func(t *testing.T, w *roadWorld) {
			us := users("u", 9)
			w.each(func(e *Engine) {
				activate(t, e, us...)
				handle(t, e, healthyReport("bystander"))
			})
			w.trip("s2.net", us, nil)
		}},
		{"advance to a second alternative", func(t *testing.T, w *roadWorld) {
			w.each(func(e *Engine) {
				activate(t, e, "mover", "stayer")
				// mover's alternative on s2.net does worse than the default
				// did: they advance to the one on s3.org. (The report is one
				// bad outcome for s2.net; the breaker needs three.)
				handle(t, e, s2SlowReport("mover"))
				if rw := e.RewritePage("mover", "/index.html", roadPage); !strings.Contains(rw.HTML, "s3.org") {
					t.Fatalf("mover did not advance: %q", rw.HTML)
				}
			})
			// The provider mover left is none of their business any more...
			w.trip("s2.net", []string{"stayer"}, map[string]string{"mover": "s3.org"})
			// ...the one they moved to is.
			w.trip("s3.org", []string{"mover"}, nil)
		}},
		{"synthesized activation", func(t *testing.T, w *roadWorld) {
			us := users("synth", 5)
			w.each(func(e *Engine) {
				e.MarkDegraded("s1.com")
				for _, u := range us {
					res, err := e.HandleReport(loadReport(u, map[string]float64{"s1.com": 60}))
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Changes) != 1 || !res.Changes[0].Synthesized {
						t.Fatalf("user %s: changes = %+v, want one synthesized activation", u, res.Changes)
					}
				}
			})
			w.trip("s2.net", us, nil)
		}},
		{"whole ImportState", func(t *testing.T, w *roadWorld) {
			donor := w.engine()
			us := users("imported", 7)
			activate(t, donor, us...)
			snap, err := donor.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			w.each(func(e *Engine) {
				activate(t, e, users("replaced", 3)...)
				if err := e.ImportState(snap); err != nil {
					t.Fatal(err)
				}
			})
			w.trip("s2.net", us, nil)
		}},
		{"ImportStateRange into a populated shard", func(t *testing.T, w *roadWorld) {
			arc := EqualRanges(2)[0]
			var inArc, outside, donated []string
			for _, u := range users("local", 16) {
				if arc.Contains(UserHash(u)) {
					inArc = append(inArc, u)
				} else {
					outside = append(outside, u)
				}
			}
			for _, u := range users("donated", 16) {
				if arc.Contains(UserHash(u)) {
					donated = append(donated, u)
				}
			}
			if len(inArc) == 0 || len(outside) == 0 || len(donated) == 0 {
				t.Fatalf("arc %v splits the users %d/%d/%d", arc, len(inArc), len(outside), len(donated))
			}
			donor := w.engine()
			activate(t, donor, donated...)
			part, err := donor.exportStateRange(arc)
			if err != nil {
				t.Fatal(err)
			}
			w.each(func(e *Engine) {
				activate(t, e, inArc...)
				activate(t, e, outside...)
				if err := e.ImportStateRange(arc, part); err != nil {
					t.Fatal(err)
				}
				for _, u := range inArc {
					if got := e.Residency(u); got != "none" {
						t.Fatalf("user %s survived the import of their arc: %s", u, got)
					}
				}
			})
			// Users outside the arc kept their activations through the import,
			// and the trip reverts them with the donated ones.
			w.trip("s2.net", append(append([]string(nil), outside...), donated...), nil)
		}},
		{"spill, then rehydration by a report", func(t *testing.T, w *roadWorld) {
			us := users("cold", 4)
			w.each(func(e *Engine) { activate(t, e, us...) })
			forceSpill(t, w.capped, us...)
			w.each(func(e *Engine) {
				for _, u := range us {
					handle(t, e, healthyReport(u))
				}
			})
			if got := w.capped.Metrics().Rehydrations; got != uint64(len(us)) {
				t.Fatalf("Rehydrations = %d, want %d", got, len(us))
			}
			w.trip("s2.net", us, nil)
		}},
	}
	for _, shards := range []int{1, 8} {
		for _, road := range roads {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, road.name), func(t *testing.T) {
				w := newRoadWorld(t, shards)
				road.walk(t, w)
				w.sameExport()
			})
		}
	}
}

// TestBulkRollbackKeepsByteCapAccounting: the report that drops a rolled-back
// activation shrinks the profile, and the byte cap's gauge must shrink with
// it.
func TestBulkRollbackKeepsByteCapAccounting(t *testing.T) {
	clock := newTestClock()
	e := newSpillEngine(t, clock, ResidencyConfig{MaxBytes: 1 << 20},
		WithGuard(GuardConfig{TripThreshold: 1}))
	for i := 0; i < 40; i++ {
		activate(t, e, fmt.Sprintf("user-%d", i))
	}
	check := func(when string) {
		t.Helper()
		want := int64(0)
		for _, sh := range e.shards {
			sh.mu.RLock()
			for _, prof := range sh.profiles {
				want += int64(prof.estimateSize())
			}
			sh.mu.RUnlock()
		}
		st, _ := e.SpillStatus()
		if st.ProfilesResident != 40 {
			t.Fatalf("%s: %d resident, want 40 (the cap must not bind here)", when, st.ProfilesResident)
		}
		if st.ResidentBytes != want {
			t.Errorf("%s: ResidentBytes = %d, fresh estimates sum to %d", when, st.ResidentBytes, want)
		}
	}
	reportAll := func() {
		for i := 0; i < 40; i++ {
			handle(t, e, healthyReport(fmt.Sprintf("user-%d", i)))
		}
	}
	check("before the trip")
	e.ObserveProviderOutcome("s2.net", false, 500)
	check("after the trip")
	reportAll()
	if got := e.Metrics().BulkDeactivations; got != 40 {
		t.Fatalf("BulkDeactivations = %d, want 40", got)
	}
	check("after the reports")

	// A rule quarantine is the same epoch.
	e.ReleaseProvider("s2.net")
	for i := 0; i < 40; i++ {
		activate(t, e, fmt.Sprintf("user-%d", i))
	}
	check("after re-activation")
	e.QuarantineRule("jquery")
	reportAll()
	if got := e.Metrics().BulkDeactivations; got != 80 {
		t.Fatalf("BulkDeactivations = %d, want 80", got)
	}
	check("after the rule quarantine")
}
