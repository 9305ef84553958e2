package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"oak/internal/rules"
)

// A rollback is an epoch: a trip or a quarantine moves the epoch of every
// (rule, alternative) pair it touches, and an activation recorded under an
// older epoch is dead wherever it lives. These tests pin the orderings that
// once split resident and spilled users: a trip, cool-down and close while a
// user is spilled; an export taken while the breaker is open; that export
// shipped to a replacement node; and files written before activations had
// epochs.

const epochPage = `<script src="http://s1.com/jquery.js">`

// epochEngine is a capped engine with a guard over dir: s2.net trips after
// two bad outcomes and cools down for a minute.
func epochEngine(t *testing.T, clock *testClock, dir string) *Engine {
	t.Helper()
	e, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now), WithShards(2),
		WithGuard(GuardConfig{TripThreshold: 2, OpenFor: time.Minute}),
		WithProfileResidency(ResidencyConfig{Dir: dir, MaxProfiles: 100}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// warmAndCold activates "warm" and "cold" onto s2.net, spills "cold" and
// trips s2.net's breaker.
func warmAndCold(t *testing.T, e *Engine) {
	t.Helper()
	handle(t, e, slowS1Report("warm"))
	handle(t, e, slowS1Report("cold"))
	forceSpill(t, e, "cold")
	e.ObserveProviderOutcome("s2.net", false, 500)
	e.ObserveProviderOutcome("s2.net", false, 500)
	if got := e.OpenBreakers(); len(got) != 1 {
		t.Fatalf("open breakers %v, want s2.net", got)
	}
}

// requireRolledBack holds each user to the untouched page, no live
// activation and no activation in the export.
func requireRolledBack(t *testing.T, e *Engine, when string, users ...string) {
	t.Helper()
	for _, u := range users {
		if out, _ := e.ModifyPage(u, "/index.html", epochPage); out != epochPage {
			t.Errorf("%s: %s (%s) served %q, want the untouched page", when, u, e.Residency(u), out)
		}
		if snap, ok := e.Snapshot(u); !ok || len(snap.ActiveRules) != 0 {
			t.Errorf("%s: %s snapshot %+v (%v), want the user and no activation", when, u, snap, ok)
		}
	}
	st, err := decodeState(mustExport(t, e))
	if err != nil {
		t.Fatal(err)
	}
	for _, pp := range st.Profiles {
		if slices.Contains(users, pp.UserID) && len(pp.Active) != 0 {
			t.Errorf("%s: export carries %s's activations %+v", when, pp.UserID, pp.Active)
		}
	}
}

// TestSpilledActivationStaysRolledBackAfterClose: a trip, its cool-down and
// the close while "cold" is spilled leave "cold" served and exported exactly
// like resident "warm" — the close re-admits the provider, not what the trip
// rolled back.
func TestSpilledActivationStaysRolledBackAfterClose(t *testing.T) {
	clock := newTestClock()
	e := epochEngine(t, clock, t.TempDir())
	warmAndCold(t, e)
	requireRolledBack(t, e, "breaker open", "warm", "cold")

	clock.Advance(2 * time.Minute)
	e.ObserveProviderOutcome("s2.net", true, 0)
	e.ObserveProviderOutcome("s2.net", true, 0)
	if got := e.OpenBreakers(); len(got) != 0 || e.Metrics().BreakerCloses != 1 {
		t.Fatalf("breaker did not close: open %v, closes %d", got, e.Metrics().BreakerCloses)
	}
	if got := e.Residency("cold"); got != "spilled" {
		t.Fatalf("cold is %s, want spilled", got)
	}
	requireRolledBack(t, e, "breaker closed", "warm", "cold")

	// A report after the close may activate the user again, under the new
	// epoch, spilled or not.
	handle(t, e, slowS1Report("cold"))
	handle(t, e, slowS1Report("warm"))
	for _, u := range []string{"warm", "cold"} {
		if out, _ := e.ModifyPage(u, "/index.html", epochPage); out == epochPage {
			t.Errorf("%s not re-activated after the close", u)
		}
	}
	if got := e.Metrics().BulkDeactivations; got != 2 {
		t.Errorf("BulkDeactivations = %d, want 2 (each rolled-back activation counted by its user's report)", got)
	}
}

// TestOpenBreakerExportShipsNoActivation: a snapshot taken while the breaker
// is open carries no activation onto its provider, and a replacement node
// whose own breaker reads open, importing it as a shipped state, serves
// "cold" the untouched page.
func TestOpenBreakerExportShipsNoActivation(t *testing.T) {
	clock := newTestClock()
	e := epochEngine(t, clock, t.TempDir())
	warmAndCold(t, e)
	snap, err := e.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(snap, []byte(`"ruleId": "jquery"`)) {
		t.Errorf("snapshot taken with s2.net open carries a jquery activation:\n%s", snap)
	}

	replacement, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now),
		WithGuard(GuardConfig{TripThreshold: 2, OpenFor: time.Minute}))
	if err != nil {
		t.Fatal(err)
	}
	replacement.QuarantineProvider("s2.net")
	if err := replacement.ImportShippedState(snap); err != nil {
		t.Fatal(err)
	}
	if got := replacement.OpenBreakers(); len(got) != 1 || got[0] != "s2.net" {
		t.Fatalf("replacement's open breakers %v, want s2.net", got)
	}
	requireRolledBack(t, replacement, "shipped", "warm", "cold")
}

// testdata/pr41-files was written by the last commit before activations had
// epochs, with s2.net's breaker open over "cold"'s spilled activation:
// "warm" resident and rolled back, "bystander" never activated, the state file
// saved with the breaker open. Its records and its breaker carry no count, so
// the breaker reads as tripped once and "cold"'s activation, epoch 0, as dead —
// at boot and after the breaker closes.
func TestBootsOnFilesWrittenBeforeEpochs(t *testing.T) {
	const fixture = "testdata/pr41-files"
	work := t.TempDir()
	if err := os.Mkdir(filepath.Join(work, "spill"), 0o700); err != nil {
		t.Fatal(err)
	}
	copyDir(t, filepath.Join(fixture, "spill"), filepath.Join(work, "spill"))
	copyDir(t, fixture, work)
	clock := newTestClock()
	clock.Advance(time.Minute)
	e, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now), WithShards(2),
		WithGuard(GuardConfig{TripThreshold: 2, OpenFor: time.Hour}),
		WithProfileResidency(ResidencyConfig{Dir: filepath.Join(work, "spill"), MaxProfiles: 100}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if src, err := e.LoadStateFile(filepath.Join(work, "state.json")); err != nil || src != StateSnapshot {
		t.Fatalf("LoadStateFile = %q, %v", src, err)
	}
	if got := e.Residency("cold"); got != "spilled" || e.Users() != 3 {
		t.Fatalf("cold is %s, %d users; want spilled, 3", got, e.Users())
	}
	if got := e.OpenBreakers(); len(got) != 1 || got[0] != "s2.net" {
		t.Fatalf("open breakers %v, want s2.net", got)
	}
	requireRolledBack(t, e, "boot", "warm", "cold", "bystander")

	clock.Advance(2 * time.Hour)
	e.ObserveProviderOutcome("s2.net", true, 0)
	e.ObserveProviderOutcome("s2.net", true, 0)
	if got := e.OpenBreakers(); len(got) != 0 {
		t.Fatalf("breaker did not close: open %v", got)
	}
	requireRolledBack(t, e, "breaker closed", "warm", "cold", "bystander")
	handle(t, e, healthyReport("cold"))
	if got := e.Metrics().BulkDeactivations; got != 1 {
		t.Errorf("BulkDeactivations = %d after cold reported, want 1", got)
	}
	requireRolledBack(t, e, "cold reported", "warm", "cold", "bystander")
}

// TestImportKeepsRollbacks: an import whose guard section counts fewer trips
// than this node's — here a donated arc — brings back no activation this
// node's trips rolled back. The counts merge to the larger, so the donated
// user's activation, admitted under fewer s2.net trips than this node has
// seen, is dead here too: the conservative side of a disagreement.
func TestImportKeepsRollbacks(t *testing.T) {
	clock := newTestClock()
	mk := func() *Engine {
		e, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now), WithShards(2),
			WithGuard(GuardConfig{TripThreshold: 2, OpenFor: time.Minute}))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	arc := EqualRanges(2)[0]
	var outside, inside string
	for i := 0; outside == "" || inside == ""; i++ {
		u := fmt.Sprintf("user-%d", i)
		if arc.Contains(UserHash(u)) {
			inside = u
		} else {
			outside = u
		}
	}
	node, donor := mk(), mk()
	handle(t, node, slowS1Report(outside))
	handle(t, donor, slowS1Report(inside))
	node.QuarantineProvider("s2.net")
	node.ReleaseProvider("s2.net")
	donor.QuarantineProvider("other.example") // a guard section with no s2.net trip
	part, err := donor.exportStateRange(arc)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.ImportStateRange(arc, part); err != nil {
		t.Fatal(err)
	}
	requireRolledBack(t, node, "range import", outside, inside)
	if st, _ := node.GuardStatus(); len(st.Quarantines) != 1 || st.Quarantines[0] != "other.example" {
		t.Errorf("the donor's breaker states did not come across: %+v", st)
	}
}

// TestCountsSurviveTheStateFile: a trip and a rule quarantine, each closed or
// released again, leave counts the state file carries; a restart on it keeps
// their rollbacks, and what was admitted after them stays live.
func TestCountsSurviveTheStateFile(t *testing.T) {
	clock := newTestClock()
	dir := t.TempDir()
	e := epochEngine(t, clock, filepath.Join(dir, "spill"))
	warmAndCold(t, e) // s2.net trips over warm and spilled cold
	clock.Advance(2 * time.Minute)
	e.ObserveProviderOutcome("s2.net", true, 0)
	e.ObserveProviderOutcome("s2.net", true, 0)
	handle(t, e, slowS1Report("later")) // admitted under the trip's epoch
	e.QuarantineRule("other")
	e.ReleaseRule("other")
	state := filepath.Join(dir, "state")
	if err := e.SaveStateFile(state); err != nil {
		t.Fatal(err)
	}
	before := mustExport(t, e)
	e.Close()

	e = epochEngine(t, clock, filepath.Join(dir, "spill"))
	if _, err := e.LoadStateFile(state); err != nil {
		t.Fatal(err)
	}
	st, _ := e.GuardStatus()
	if len(st.Breakers) != 1 || st.Breakers[0].State != "closed" || st.Breakers[0].Trips != 1 {
		t.Errorf("breakers after the restart %+v, want s2.net closed with its trip", st.Breakers)
	}
	if got := e.guard.Epoch("other", nil); got != 1 {
		t.Errorf("rule other's epoch after the restart = %d, want its quarantine", got)
	}
	requireRolledBack(t, e, "restart", "warm", "cold")
	if out, _ := e.ModifyPage("later", "/index.html", epochPage); out == epochPage {
		t.Error("an activation admitted after the trip was lost across the restart")
	}
	if got := mustExport(t, e); !bytes.Equal(got, before) {
		t.Errorf("export after the restart:\n%s\nbefore:\n%s", got, before)
	}
}

// TestCrashKeepsCanaryBelowTheNextTrip: the state file is saved before a
// trip; the trip, a canary admitted through the half-open breaker and the
// close all happen after it, and the engine crashes with the canary spilled.
// The boot lifts the guard's counts to the canary's epoch, so the canary is
// served — and the next trip rolls it back, booted on the state file and the
// log or on the log alone.
func TestCrashKeepsCanaryBelowTheNextTrip(t *testing.T) {
	for _, withState := range []bool{true, false} {
		t.Run(fmt.Sprintf("state file %v", withState), func(t *testing.T) {
			clock := newTestClock()
			dir := t.TempDir()
			spill, state := filepath.Join(dir, "spill"), filepath.Join(dir, "state")
			e := epochEngine(t, clock, spill)
			handle(t, e, healthyReport("canary"))
			if err := e.SaveStateFile(state); err != nil {
				t.Fatal(err)
			}
			e.ObserveProviderOutcome("s2.net", false, 500)
			e.ObserveProviderOutcome("s2.net", false, 500)
			clock.Advance(2 * time.Minute)
			handle(t, e, slowS1Report("canary"))
			e.ObserveProviderOutcome("s2.net", true, 0)
			e.ObserveProviderOutcome("s2.net", true, 0)
			if m := e.Metrics(); m.CanaryActivations != 1 || m.BreakerCloses != 1 {
				t.Fatalf("want one canary and one close, got %d and %d", m.CanaryActivations, m.BreakerCloses)
			}
			forceSpill(t, e, "canary")
			e.Close() // a crash: no save after the trip

			e = epochEngine(t, clock, spill)
			if withState {
				if _, err := e.LoadStateFile(state); err != nil {
					t.Fatal(err)
				}
			}
			if out, _ := e.ModifyPage("canary", "/index.html", epochPage); out == epochPage {
				t.Fatal("the canary, admitted after the last save, was lost across the crash")
			}
			e.ObserveProviderOutcome("s2.net", false, 500)
			e.ObserveProviderOutcome("s2.net", false, 500)
			if got := e.OpenBreakers(); len(got) != 1 {
				t.Fatalf("open breakers %v, want s2.net", got)
			}
			requireRolledBack(t, e, "tripped after the crash", "canary")
		})
	}
}

// TestStrippedImportOntoOpenBreaker: a range payload without a guard section
// — its donor has no guard — keeps this node's guard, and an activation in it
// onto a provider this node has tripped is dead here: its epoch, 0, is below
// the node's.
func TestStrippedImportOntoOpenBreaker(t *testing.T) {
	clock := newTestClock()
	node, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now),
		WithGuard(GuardConfig{TripThreshold: 2, OpenFor: time.Minute}))
	if err != nil {
		t.Fatal(err)
	}
	donor, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	arc := EqualRanges(2)[0]
	inside := ""
	for i := 0; inside == ""; i++ {
		if u := fmt.Sprintf("user-%d", i); arc.Contains(UserHash(u)) {
			inside = u
		}
	}
	handle(t, donor, slowS1Report(inside))
	node.QuarantineProvider("s2.net")
	part, err := donor.exportStateRange(arc)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(part, []byte(`"guard"`)) || !bytes.Contains(part, []byte(`"ruleId": "jquery"`)) {
		t.Fatalf("want a payload with the activation and no guard section:\n%s", part)
	}
	if err := node.ImportStateRange(arc, part); err != nil {
		t.Fatal(err)
	}
	if got := node.OpenBreakers(); len(got) != 1 {
		t.Fatalf("open breakers %v after the import, want s2.net", got)
	}
	requireRolledBack(t, node, "stripped import", inside)
}

// TestImportDropsActivationAboveItsCounts: a payload whose activation claims
// an epoch above the counts its own guard section carries contradicts itself;
// the import drops that activation, so no later trip can leave it live.
func TestImportDropsActivationAboveItsCounts(t *testing.T) {
	clock := newTestClock()
	e := epochEngine(t, clock, t.TempDir())
	e.QuarantineProvider("s2.net")
	e.ReleaseProvider("s2.net")
	handle(t, e, slowS1Report("u"))
	snap := mustExport(t, e)
	if !bytes.Contains(snap, []byte(`"epoch": 1`)) {
		t.Fatalf("want an activation at epoch 1:\n%s", snap)
	}
	forged := bytes.Replace(snap, []byte(`"epoch": 1`), []byte(`"epoch": 5`), 1)
	replacement, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now),
		WithGuard(GuardConfig{TripThreshold: 2, OpenFor: time.Minute}))
	if err != nil {
		t.Fatal(err)
	}
	if err := replacement.ImportState(forged); err != nil {
		t.Fatal(err)
	}
	requireRolledBack(t, replacement, "import", "u")
	if err := replacement.ImportState(snap); err != nil {
		t.Fatal(err)
	}
	if out, _ := replacement.ModifyPage("u", "/index.html", epochPage); out == epochPage {
		t.Error("the payload's own activation, at its counts, was dropped")
	}
}
