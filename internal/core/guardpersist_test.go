package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"oak/internal/rules"
)

// Snapshot compatibility across the guard boundary: pre-guard snapshots (no
// "guard" key) and legacy plain-JSON state files must load into guard-enabled
// engines with empty guard state, and re-export byte-identically; snapshots
// carrying guard state must restore breakers and quarantines, and imported
// activations must stay within a later trip's reach.

// pinnedEngines builds a guardless source engine and a guard-enabled target
// engine on identically pinned clocks, so exports are byte-comparable.
func pinnedEngines(t *testing.T) (src, dst *Engine) {
	t.Helper()
	srcClock, dstClock := newTestClock(), newTestClock()
	var err error
	src, err = NewEngine([]*rules.Rule{jqRule(0)}, WithClock(srcClock.Now))
	if err != nil {
		t.Fatal(err)
	}
	dst, err = NewEngine([]*rules.Rule{jqRule(0)}, WithClock(dstClock.Now),
		WithGuard(GuardConfig{TripThreshold: 3}))
	if err != nil {
		t.Fatal(err)
	}
	return src, dst
}

func TestPreGuardSnapshotLoadsWithEmptyGuardState(t *testing.T) {
	src, dst := pinnedEngines(t)
	if _, err := src.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	snap, err := src.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// A guardless engine's snapshot is the pre-guard format: no guard key.
	if bytes.Contains(snap, []byte(`"guard"`)) {
		t.Fatalf("guardless snapshot contains a guard section:\n%s", snap)
	}

	if err := dst.ImportState(snap); err != nil {
		t.Fatalf("pre-guard snapshot rejected by guard-enabled engine: %v", err)
	}
	if dst.Users() != 1 {
		t.Errorf("Users = %d, want 1", dst.Users())
	}
	st, ok := dst.GuardStatus()
	if !ok {
		t.Fatal("GuardStatus not ok")
	}
	if len(st.Breakers) != 0 || len(st.Quarantines) != 0 || len(st.QuarantinedRules) != 0 {
		t.Errorf("guard state after pre-guard import = %+v, want empty", st)
	}

	// Healthy guard state exports nothing: the re-export is byte-identical
	// to the pre-guard snapshot.
	reexport, err := dst.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, reexport) {
		t.Errorf("re-export differs from pre-guard snapshot:\n--- original\n%s\n--- re-export\n%s",
			snap, reexport)
	}
}

func TestLegacyPlainJSONLoadsWithEmptyGuardState(t *testing.T) {
	src, dst := pinnedEngines(t)
	if _, err := src.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	legacy, err := src.ExportState() // headerless: the legacy format
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.ImportState(legacy); err != nil {
		t.Fatalf("legacy state rejected by guard-enabled engine: %v", err)
	}
	st, _ := dst.GuardStatus()
	if len(st.Breakers) != 0 {
		t.Errorf("guard state after legacy import = %+v, want empty", st)
	}
	reexport, err := dst.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacy, reexport) {
		t.Errorf("re-export differs from legacy state:\n--- original\n%s\n--- re-export\n%s",
			legacy, reexport)
	}
}

func TestGuardStateSurvivesSnapshotRoundTrip(t *testing.T) {
	clock := newTestClock()
	mk := func() *Engine {
		e, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now),
			WithGuard(GuardConfig{TripThreshold: 3, OpenFor: time.Minute}))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e1 := mk()
	e1.QuarantineProvider("s2.net")
	e1.QuarantineRule("jquery")
	snap, err := e1.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(snap, []byte(`"guard"`)) {
		t.Fatalf("snapshot missing guard section:\n%s", snap)
	}

	e2 := mk()
	if err := e2.ImportState(snap); err != nil {
		t.Fatal(err)
	}
	if got := e2.OpenBreakers(); len(got) != 1 || got[0] != "s2.net" {
		t.Errorf("OpenBreakers after import = %v, want [s2.net]", got)
	}
	st, _ := e2.GuardStatus()
	if len(st.QuarantinedRules) != 1 || st.QuarantinedRules[0] != "jquery" {
		t.Errorf("QuarantinedRules after import = %v, want [jquery]", st.QuarantinedRules)
	}
	// The restored quarantine still blocks activations.
	res, _ := e2.HandleReport(slowS1Report("u1"))
	if len(res.Changes) != 0 {
		t.Errorf("activation admitted despite imported quarantine: %+v", res.Changes)
	}
}

func TestTripReachesImportedActivations(t *testing.T) {
	// Activations restored from a snapshot must be reachable by a later
	// breaker trip.
	clock := newTestClock()
	mk := func() *Engine {
		e, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now), WithShards(4),
			WithGuard(GuardConfig{TripThreshold: 2}))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e1 := mk()
	const users = 6
	for i := 0; i < users; i++ {
		if _, err := e1.HandleReport(slowS1Report(fmt.Sprintf("user-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := e1.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	e2 := mk()
	if err := e2.ImportState(snap); err != nil {
		t.Fatal(err)
	}
	e2.ObserveProviderOutcome("s2.net", false, 500)
	e2.ObserveProviderOutcome("s2.net", false, 500)
	m := e2.Metrics()
	if m.BreakerTrips != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", m.BreakerTrips)
	}
	page := `<script src="http://s1.com/jquery.js">`
	for i := 0; i < users; i++ {
		u := fmt.Sprintf("user-%d", i)
		if out, _ := e2.ModifyPage(u, "/index.html", page); out != page {
			t.Errorf("imported user %s not rolled back", u)
		}
		handle(t, e2, healthyReport(u))
	}
	if m := e2.Metrics(); m.BulkDeactivations != users {
		t.Errorf("BulkDeactivations = %d after every user reported, want %d (imported activations missed)",
			m.BulkDeactivations, users)
	}
}

func TestGuardlessEngineAcceptsGuardSnapshot(t *testing.T) {
	// Downgrade path: a snapshot with guard state loads into an engine built
	// without WithGuard (the guard section is simply ignored).
	clock := newTestClock()
	e1, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now),
		WithGuard(GuardConfig{TripThreshold: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	e1.QuarantineProvider("other.example")
	snap, err := e1.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.ImportState(snap); err != nil {
		t.Fatalf("guardless engine rejected guard snapshot: %v", err)
	}
	if e2.Users() != 1 {
		t.Errorf("Users = %d, want 1", e2.Users())
	}
}
