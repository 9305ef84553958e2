package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"oak/internal/guard"
	"oak/internal/rules"
)

// bootGuardByReading is the guard a capped boot on a checkpoint came up with
// while it read the record of every spilled user with an activation: the
// checkpoint's guard section, lifted to the epoch of every activation of a
// known rule in every record a ref points at. Call it before anything moves
// the engine's guard or refs.
func bootGuardByReading(t *testing.T, e *Engine, section *guard.Persisted) *guard.Persisted {
	t.Helper()
	c := e.guardConfig
	g := guard.New(guard.Config{TripThreshold: c.TripThreshold, OpenFor: c.OpenFor, HalfOpenCanaries: c.HalfOpenCanaries,
		CloseAfter: c.CloseAfter, PanicThreshold: c.PanicThreshold, Now: e.now})
	g.Import(section, false)
	for _, sh := range e.shards {
		sh.mu.RLock()
		sh.spilled.each(func(uid []byte, ref spillRef) bool {
			if !ref.active {
				return false
			}
			pp, err := e.spill.readRecord(ref)
			if err != nil {
				t.Errorf("read %s's record: %v", uid, err)
				return false
			}
			for _, pa := range pp.Active {
				if _, known := e.rulesByID[pa.RuleID]; known {
					g.Lift(pa.RuleID, e.altHostsFor(pa.RuleID, pa.AltIndex), pa.Epoch)
				}
			}
			return false
		})
		sh.mu.RUnlock()
	}
	return g.Export()
}

// checkpointGuard is the guard section of the checkpoint in dir.
func checkpointGuard(t *testing.T, dir string) *guard.Persisted {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	return st.Guard
}

// TestCappedBootReadsNoRecord: a capped boot whose checkpoint covers every
// record reads each segment once, whole, and no record alone, however many
// spilled users hold an activation — the boot that lifted the guard by
// reading their records read 500 here, one a user — and comes up with the
// guard that reading them gave.
func TestCappedBootReadsNoRecord(t *testing.T) {
	dir, _ := writeSpilledWorld(t, 4000)
	fs, reads := recordReads(t, dir)
	e := bootedWorldEngine(t, dir, withFS(fs))
	defer e.Close()
	bs := e.BootStatus()
	if n := reads(1); n != 0 || bs.IndexFallback != "" || bs.IndexAdopted != 4000 || bs.Decoded != 0 {
		t.Errorf("%.0f records read alone, %+v; want none read and every entry adopted, none decoded", n, bs)
	}
	if got, want := e.guard.Export(), bootGuardByReading(t, e, checkpointGuard(t, dir)); !reflect.DeepEqual(got, want) {
		t.Errorf("guard after the boot %+v, reading every record gives %+v", got, want)
	}
}

// TestBootLiftsTheGuardFromDecodedRecords: a trip after the last save is in
// no checkpoint; the users activated under it and evicted before a crash have
// records past the bytes the checkpoint covers, which the boot decodes, and
// the guard is lifted to their epoch from those decodes — to the counts
// reading every record gives — so the users stay activated, the ones the trip
// rolled back stay rolled back, and the next trip rolls back the later ones.
func TestBootLiftsTheGuardFromDecodedRecords(t *testing.T) {
	clock := newTestClock()
	dir := t.TempDir()
	boot := func(opts ...Option) *Engine {
		t.Helper()
		e, err := NewEngine([]*rules.Rule{jqRule(0)}, append([]Option{WithClock(clock.Now), WithShards(2),
			WithGuard(GuardConfig{TripThreshold: 2, OpenFor: time.Minute}),
			WithProfileResidency(ResidencyConfig{Dir: dir, MaxProfiles: 100})}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	e := boot()
	for _, u := range []string{"a", "b", "c"} {
		handle(t, e, slowS1Report(u))
	}
	forceSpill(t, e, "a", "b")
	if err := e.SaveStateFile(filepath.Join(t.TempDir(), "state")); err != nil {
		t.Fatal(err)
	}
	e.ObserveProviderOutcome("s2.net", false, 500)
	e.ObserveProviderOutcome("s2.net", false, 500)
	clock.Advance(2 * time.Minute)
	handle(t, e, slowS1Report("d")) // a canary through the half-open breaker
	e.ObserveProviderOutcome("s2.net", true, 0)
	e.ObserveProviderOutcome("s2.net", true, 0)
	handle(t, e, slowS1Report("e"))
	forceSpill(t, e, "d", "e")
	e.Close() // a crash: no save after the trip

	fs, reads := recordReads(t, dir)
	e = boot(withFS(fs))
	if bs := e.BootStatus(); reads(1) != 0 || bs.IndexFallback != "" || bs.Decoded == 0 {
		t.Fatalf("%.0f records read alone, %+v; want none, the checkpoint's index adopted and its tail decoded", reads(1), bs)
	}
	if got, want := e.guard.Export(), bootGuardByReading(t, e, checkpointGuard(t, dir)); !reflect.DeepEqual(got, want) || want == nil {
		t.Fatalf("guard after the boot %+v, reading every record gives %+v", got, want)
	}
	for _, u := range []string{"d", "e"} {
		if out, _ := e.ModifyPage(u, "/index.html", epochPage); out == epochPage {
			t.Errorf("%s, activated after the trip, was served the untouched page after the crash", u)
		}
	}
	requireRolledBack(t, e, "rolled back before the crash", "a", "b", "c")
	e.ObserveProviderOutcome("s2.net", false, 500)
	e.ObserveProviderOutcome("s2.net", false, 500)
	requireRolledBack(t, e, "tripped after the crash", "d", "e")
}

// TestBootLiftsTheGuardOverAnEditedAlternative: records the checkpoint covers
// hold activations admitted under their alternative's providers of the time.
// When the rules file points the alternative at another provider between the
// save and the boot, the checkpoint's guard section no longer bounds those
// epochs, so the boot reads them from the records where the walk checksums
// them — no record read alone, none decoded — from those alone that still
// hold their user's ref: c keeps the alternative until the new provider's
// next trip rolls them back, and u's covered record, which a later one without
// an activation replaced before a crash, lifts nothing.
func TestBootLiftsTheGuardOverAnEditedAlternative(t *testing.T) {
	clock := newTestClock()
	dir := t.TempDir()
	boot := func(provider string, opts ...Option) *Engine {
		t.Helper()
		e, err := NewEngine([]*rules.Rule{jqRule(0, `<script src="http://`+provider+`/jquery.js">`)},
			append([]Option{WithClock(clock.Now), WithShards(2), WithGuard(GuardConfig{TripThreshold: 2, OpenFor: time.Minute}),
				WithProfileResidency(ResidencyConfig{Dir: dir, MaxProfiles: 100})}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	trip := func(e *Engine, provider string) {
		e.ObserveProviderOutcome(provider, false, 500)
		e.ObserveProviderOutcome(provider, false, 500)
	}
	e := boot("s2.net")
	for _, canary := range []string{"c", "u"} { // c admitted under s2.net's first trip, u under its second
		trip(e, "s2.net")
		clock.Advance(2 * time.Minute)
		handle(t, e, slowS1Report(canary))
		e.ObserveProviderOutcome("s2.net", true, 0)
		e.ObserveProviderOutcome("s2.net", true, 0)
	}
	forceSpill(t, e, "c", "u")
	if err := e.SaveStateFile(filepath.Join(t.TempDir(), "state")); err != nil {
		t.Fatal(err)
	}
	trip(e, "s2.net")
	handle(t, e, healthyReport("u")) // drops u's rolled-back activation
	forceSpill(t, e, "u")
	e.Close() // a crash: no save after the trip

	fs, reads := recordReads(t, dir)
	e = boot("s3.net", withFS(fs))
	if bs := e.BootStatus(); reads(1) != 0 || bs.IndexFallback != "" || bs.IndexAdopted != 2 {
		t.Fatalf("%.0f records read alone, %+v; want none and the checkpoint's index adopted", reads(1), bs)
	}
	if got, want := e.guard.Export(), bootGuardByReading(t, e, checkpointGuard(t, dir)); !reflect.DeepEqual(got, want) {
		t.Fatalf("guard after the boot %+v, reading every record gives %+v", got, want)
	}
	if out, _ := e.ModifyPage("c", "/index.html", epochPage); out == epochPage {
		t.Errorf("c, activated before the edit, was served the untouched page after the boot")
	}
	requireRolledBack(t, e, "replaced before the crash", "u")
	trip(e, "s3.net")
	requireRolledBack(t, e, "the edited alternative's provider tripped", "c")
}
