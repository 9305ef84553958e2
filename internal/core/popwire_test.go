package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"oak/internal/obs"
	"oak/internal/rules"
)

// Population-detection and synthesis behaviour: flagging against the
// trailing baseline, recovery, synthesis for users who never tripped the
// per-user detector, guard admission of synthesized activations, and the
// manual operator verbs.

// popEngine builds a synthesis-enabled engine on a test clock with a small
// window and sample floors sized for hand-fed traffic.
func popEngine(t *testing.T, extra ...Option) (*Engine, *testClock) {
	t.Helper()
	clock := newTestClock()
	opts := append([]Option{
		WithClock(clock.Now),
		WithSynthesis(SynthesisConfig{
			Window:             time.Minute,
			DegradeFactor:      1.5,
			Quantile:           0.75,
			MinSamples:         3,
			MinBaselineSamples: 3,
			MaxProviders:       8,
		}),
	}, extra...)
	e, err := NewEngine([]*rules.Rule{jqRule(0)}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e, clock
}

// feedWindow handles n single-server reports for s1.com at the given mean
// time, one per distinct user, then rolls the window by advancing past it
// and ingesting one neutral report (the tick is ingest-driven).
func feedWindow(t *testing.T, e *Engine, clock *testClock, tag string, n int, ms float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		u := fmt.Sprintf("%s-%d", tag, i)
		if _, err := e.HandleReport(loadReport(u, map[string]float64{"s1.com": ms})); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(61 * time.Second)
	if _, err := e.HandleReport(loadReport(tag+"-tick", map[string]float64{"neutral.example": 50})); err != nil {
		t.Fatal(err)
	}
}

func TestPopulationFlagsAndRecoversDegradedProvider(t *testing.T) {
	e, clock := popEngine(t, WithTraceCapacity(64))

	// Window 1 warms the baseline (~100ms); nothing can be flagged yet.
	feedWindow(t, e, clock, "warm", 8, 100)
	if got := e.DegradedProviders(); len(got) != 0 {
		t.Fatalf("DegradedProviders after warm-up = %v, want none", got)
	}

	// Window 2 degrades 10x; the tick flags s1.com against its baseline.
	feedWindow(t, e, clock, "bad", 4, 1000)
	if got := e.DegradedProviders(); len(got) != 1 || got[0] != "s1.com" {
		t.Fatalf("DegradedProviders = %v, want [s1.com]", got)
	}
	ps, ok := e.PopulationStatus()
	if !ok {
		t.Fatal("PopulationStatus not ok on synthesis-enabled engine")
	}
	if len(ps.Degraded) != 1 || ps.Degraded[0].Provider != "s1.com" {
		t.Fatalf("status degraded = %+v, want s1.com", ps.Degraded)
	}
	if ps.Degraded[0].Ratio < 1.5 {
		t.Errorf("degraded ratio = %.2f, want >= degrade factor 1.5", ps.Degraded[0].Ratio)
	}
	if ps.PopulationTrips != 1 {
		t.Errorf("PopulationTrips = %d, want 1", ps.PopulationTrips)
	}
	var sawTrace bool
	for _, ev := range e.TraceRecent(64) {
		if ev.Kind == obs.EventPopDegrade && ev.Provider == "s1.com" {
			sawTrace = true
		}
	}
	if !sawTrace {
		t.Error("no population-degrade trace event")
	}

	// Windows of healthy traffic recover the provider: the baseline was
	// frozen while degraded, so the healthy quantile falls back under it.
	feedWindow(t, e, clock, "heal", 4, 100)
	if got := e.DegradedProviders(); len(got) != 0 {
		t.Fatalf("DegradedProviders after recovery = %v, want none", got)
	}
	ps, _ = e.PopulationStatus()
	if ps.PopulationRecoveries != 1 {
		t.Errorf("PopulationRecoveries = %d, want 1", ps.PopulationRecoveries)
	}
}

func TestSynthesisActivatesUserBelowPerUserGate(t *testing.T) {
	e, clock := popEngine(t)
	feedWindow(t, e, clock, "warm", 8, 100)
	feedWindow(t, e, clock, "bad", 4, 1000)

	// A fresh user's report touches only the degraded provider: one server,
	// so the per-user MAD detector has no peers and never fires — only the
	// population layer can mitigate this user.
	res, err := e.HandleReport(loadReport("fresh", map[string]float64{"s1.com": 900}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("single-server report produced per-user violations: %+v", res.Violations)
	}
	if len(res.Changes) != 1 || res.Changes[0].Action != "activate" || !res.Changes[0].Synthesized {
		t.Fatalf("changes = %+v, want one synthesized activate", res.Changes)
	}
	page := `<script src="http://s1.com/jquery.js">`
	if out, _ := e.ModifyPage("fresh", "/index.html", page); !strings.Contains(out, "s2.net") {
		t.Errorf("synthesized activation did not rewrite the page: %q", out)
	}
	m := e.Metrics()
	if m.SynthesizedActivations != 1 {
		t.Errorf("SynthesizedActivations = %d, want 1", m.SynthesizedActivations)
	}

	// A second report while the activation is live must not re-activate.
	res, err = e.HandleReport(loadReport("fresh", map[string]float64{"s1.com": 900}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changes) != 0 {
		t.Errorf("repeat report changes = %+v, want none (already active)", res.Changes)
	}

	// A user whose report never touches the degraded provider is left alone.
	res, err = e.HandleReport(loadReport("bystander", map[string]float64{"other.example": 900}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changes) != 0 {
		t.Errorf("bystander changes = %+v, want none", res.Changes)
	}
}

func TestSynthesizedActivationsRollBackViaGuard(t *testing.T) {
	e, clock := popEngine(t, WithGuard(GuardConfig{TripThreshold: 3, OpenFor: time.Minute}))
	feedWindow(t, e, clock, "warm", 8, 100)
	feedWindow(t, e, clock, "bad", 4, 1000)

	// Synthesize activations for several users onto the s2.net alternate.
	const users = 4
	page := `<script src="http://s1.com/jquery.js">`
	for i := 0; i < users; i++ {
		u := fmt.Sprintf("synth-%d", i)
		if _, err := e.HandleReport(loadReport(u, map[string]float64{"s1.com": 900})); err != nil {
			t.Fatal(err)
		}
		if out, _ := e.ModifyPage(u, "/index.html", page); !strings.Contains(out, "s2.net") {
			t.Fatalf("user %s not synthesized onto s2.net", u)
		}
	}

	// The alternate goes bad: population-level outcomes trip its breaker,
	// and the rollback takes the synthesized activations with it — no
	// operator action. Each is counted when its user next reports.
	for i := 0; i < 3; i++ {
		e.ObserveProviderOutcome("s2.net", false, 500)
	}
	if m := e.Metrics(); m.BreakerTrips != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", m.BreakerTrips)
	}
	for i := 0; i < users; i++ {
		u := fmt.Sprintf("synth-%d", i)
		if out, _ := e.ModifyPage(u, "/index.html", page); out != page {
			t.Errorf("user %s still rewritten after rollback: %q", u, out)
		}
		handle(t, e, healthyReport(u))
	}
	if m := e.Metrics(); m.BulkDeactivations != users {
		t.Errorf("BulkDeactivations = %d, want %d", m.BulkDeactivations, users)
	}

	// While the breaker is open and the rule has no other alternative, new
	// synthesis attempts are refused and counted.
	res, err := e.HandleReport(loadReport("late", map[string]float64{"s1.com": 900}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changes) != 0 {
		t.Errorf("late changes = %+v, want none while breaker open", res.Changes)
	}
	if m := e.Metrics(); m.SynthesisBlocked == 0 {
		t.Error("SynthesisBlocked = 0, want > 0")
	}
}

func TestSynthesisFallsBackToAdmittedAlternative(t *testing.T) {
	// Two alternatives; the preferred one's provider is quarantined, so the
	// synthesized activation advances to the admitted one instead of giving
	// up (it has no per-user history to respect).
	rule := jqRule(0,
		`<script src="http://s2.net/jquery.js">`,
		`<script src="http://s3.net/jquery.js">`)
	clock := newTestClock()
	e, err := NewEngine([]*rules.Rule{rule},
		WithClock(clock.Now),
		WithGuard(GuardConfig{TripThreshold: 3, OpenFor: time.Minute}),
		WithSynthesis(SynthesisConfig{
			Window: time.Minute, MinSamples: 3, MinBaselineSamples: 3, MaxProviders: 8,
		}))
	if err != nil {
		t.Fatal(err)
	}
	e.QuarantineProvider("s2.net")
	e.MarkDegraded("s1.com")

	res, err := e.HandleReport(loadReport("u1", map[string]float64{"s1.com": 900}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changes) != 1 || !res.Changes[0].Synthesized || res.Changes[0].AltIndex != 1 {
		t.Fatalf("changes = %+v, want synthesized activate on alt 1", res.Changes)
	}
	page := `<script src="http://s1.com/jquery.js">`
	if out, _ := e.ModifyPage("u1", "/index.html", page); !strings.Contains(out, "s3.net") {
		t.Errorf("page = %q, want rewrite onto admitted s3.net", out)
	}
}

func TestMarkAndClearDegraded(t *testing.T) {
	e, _ := popEngine(t)

	// Manual flag: no traffic needed, synthesis starts immediately.
	e.MarkDegraded("s1.com")
	if got := e.DegradedProviders(); len(got) != 1 || got[0] != "s1.com" {
		t.Fatalf("DegradedProviders = %v, want [s1.com]", got)
	}
	ps, _ := e.PopulationStatus()
	if len(ps.Degraded) != 1 || !ps.Degraded[0].Manual {
		t.Fatalf("status degraded = %+v, want one manual episode", ps.Degraded)
	}
	res, err := e.HandleReport(loadReport("u1", map[string]float64{"s1.com": 60}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changes) != 1 || !res.Changes[0].Synthesized {
		t.Fatalf("changes = %+v, want synthesized activate under manual flag", res.Changes)
	}

	// Duplicate marks don't double-count.
	e.MarkDegraded("s1.com")
	if ps, _ := e.PopulationStatus(); ps.PopulationTrips != 1 {
		t.Errorf("PopulationTrips after duplicate mark = %d, want 1", ps.PopulationTrips)
	}

	e.ClearDegraded("s1.com")
	if got := e.DegradedProviders(); len(got) != 0 {
		t.Fatalf("DegradedProviders after clear = %v, want none", got)
	}
	if ps, _ := e.PopulationStatus(); ps.PopulationRecoveries != 1 {
		t.Errorf("PopulationRecoveries = %d, want 1", ps.PopulationRecoveries)
	}
}

func TestPopulationDisabledWithoutSynthesis(t *testing.T) {
	e, err := NewEngine([]*rules.Rule{jqRule(0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.PopulationStatus(); ok {
		t.Error("PopulationStatus ok on plain engine")
	}
	if got := e.DegradedProviders(); got != nil {
		t.Errorf("DegradedProviders = %v, want nil", got)
	}
	// Manual verbs are no-ops, not panics.
	e.MarkDegraded("s1.com")
	e.ClearDegraded("s1.com")
}

func TestPopulationStatusReportsDistributions(t *testing.T) {
	e, clock := popEngine(t)
	feedWindow(t, e, clock, "warm", 6, 100)

	ps, _ := e.PopulationStatus()
	if ps.TrackedProviders == 0 {
		t.Fatal("TrackedProviders = 0 after a folded window")
	}
	if ps.SketchMemoryBytes <= 0 {
		t.Error("SketchMemoryBytes not reported")
	}
	var s1 *ProviderPopulation
	for i := range ps.Providers {
		if ps.Providers[i].Provider == "s1.com" {
			s1 = &ps.Providers[i]
		}
	}
	if s1 == nil {
		t.Fatalf("providers = %+v, want s1.com baseline", ps.Providers)
	}
	if s1.Samples == 0 || s1.P75Ms <= 0 {
		t.Errorf("s1.com baseline = %+v, want samples and quantiles", *s1)
	}
	if len(ps.TopProviders) == 0 {
		t.Error("TopProviders empty after traffic")
	}
}
