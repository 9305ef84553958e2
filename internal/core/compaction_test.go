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

// segOf returns the segment a spilled user's record lies in.
func segOf(t *testing.T, e *Engine, uid string) *seglog.Segment {
	t.Helper()
	sh := e.shardFor(uid)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ref, ok := sh.spilled.get(uid)
	if !ok {
		t.Fatalf("%s is not spilled", uid)
	}
	return ref.seg
}

// compactionWorld spills u1..u5 — one report each, a second apart — into
// segments of 400 bytes: u1, u2 and u3 fill the first, u4 and u5 sit in the
// second, which stays the shard's append target with room for one more
// record. Nothing is evicted unless a test forces it. The engine's I/O goes
// through fs.
func compactionWorld(t *testing.T, dir string, fs *testFS) (*Engine, *testClock, func(uid string)) {
	t.Helper()
	clock := newTestClock()
	e := newSpillEngine(t, clock, ResidencyConfig{Dir: dir, MaxProfiles: 100, SegmentBytes: 400, CompactRatio: 0.5}, withFS(fs))
	report := func(uid string) {
		t.Helper()
		clock.Advance(time.Second)
		if _, err := e.HandleReport(slowS1Report(uid)); err != nil {
			t.Fatal(err)
		}
	}
	for _, uid := range []string{"u1", "u2", "u3", "u4", "u5"} {
		report(uid)
		forceSpill(t, e, uid)
	}
	first, second := segOf(t, e, "u1"), segOf(t, e, "u4")
	if segOf(t, e, "u2") != first || segOf(t, e, "u3") != first || segOf(t, e, "u5") != second ||
		first == second || first.Active.Load() || !second.Active.Load() ||
		second.Size()+(first.Size()-int64(len(seglog.Magic)))/3 > 400 {
		t.Fatalf("layout: want u1-u3 in a sealed segment and u4, u5 in the active one with room for a third; segments %v",
			segFiles(t, dir))
	}
	return e, clock, report
}

// rebootOnSegments boots an engine over dir with no state file: what a crash
// before the next SaveStateFile leaves.
func rebootOnSegments(t *testing.T, clock *testClock, dir string) *Engine {
	t.Helper()
	return newSpillEngine(t, clock, ResidencyConfig{Dir: dir, MaxProfiles: 100, SegmentBytes: 400, CompactRatio: 0.5})
}

func mustExport(t *testing.T, e *Engine) []byte {
	t.Helper()
	data, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCompactionKeepsLogOrder: recovery takes (segment seq, offset) for a
// record's age, so the cleaner must not give a survivor a place in the log
// that outranks a record written after it. It used to: survivors were copied
// into a fresh, highest-numbered segment while evictions kept appending to an
// older-numbered active one, and after a crash the stale copy of u2 won.
func TestCompactionKeepsLogOrder(t *testing.T) {
	dir := t.TempDir()
	e, clock, report := compactionWorld(t, dir, &testFS{})

	report("u1")
	report("u3")
	forceSpill(t, e, "u1", "u3") // two of the first segment's three records are dead
	e.maybeCompact()
	if got := e.Metrics().SegmentCompactions; got != 1 {
		t.Fatalf("SegmentCompactions = %d, want 1", got)
	}
	report("u2") // rehydrates the survivor the cleaner moved, and changes it
	// Everything acknowledged goes to disk, u2 first: into the segment that
	// was the shard's append target all along, if the cleaner left it room.
	forceSpill(t, e, "u2", "u1", "u3")
	want, ok := e.Snapshot("u2")
	if !ok || want.Violations["ip-s1.com"] != 2 {
		t.Fatalf("Snapshot(u2) before the crash = %+v, %v; want two violations", want, ok)
	}
	wantExport := mustExport(t, e)
	e.Close()

	e2 := rebootOnSegments(t, clock, dir)
	if got, ok := e2.Snapshot("u2"); !ok || !reflect.DeepEqual(got, want) {
		t.Errorf("Snapshot(u2) after reboot = %+v, %v\nwant %+v", got, ok, want)
	}
	if got := mustExport(t, e2); !bytes.Equal(got, wantExport) {
		t.Errorf("export changed across the reboot:\n--- before\n%s\n--- after\n%s", wantExport, got)
	}
	if st, _ := e2.SpillStatus(); len(st.QuarantinedSegments) != 0 || st.SpillErrors != 0 {
		t.Errorf("recovery was not clean: %+v", st)
	}
}

// copyDir copies the regular files of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompactionCrashPoints stops the cleaner at each point where it can be
// stopped — its append refused, its fsync refused, and the process dying once
// the survivor is appended but before the victim is removed — through the
// fake file system, and reboots on what is on disk then. Every time the recovered state is the state before
// the compaction, nothing is quarantined, and a victim whose survivor made it
// to the tail of the log is garbage-collected by boot. With a refused append
// or fsync the live engine degrades to memory-only, as after a failed
// eviction, and still reads every record.
func TestCompactionCrashPoints(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   string // the segment file operation the cleaner is stopped at
		fail bool   // refuse it (else: copy the directory there and carry on)
		// victimSuperseded: the survivor's bytes reached the tail of the log,
		// so after a reboot the victim holds nothing live.
		victimSuperseded bool
	}{
		{name: "append refused", op: "write", fail: true},
		{name: "fsync refused", op: "sync", fail: true, victimSuperseded: true},
		{name: "killed before the victim is removed", op: "sync", victimSuperseded: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, crashDir := t.TempDir(), t.TempDir()
			fs := &testFS{}
			e, clock, report := compactionWorld(t, dir, fs)
			report("u1")
			report("u3")
			forceSpill(t, e, "u1", "u3") // all five on disk; u2 alone is live in the first segment
			victim := segOf(t, e, "u2")
			before := mustExport(t, e)

			boom := errors.New("injected " + tc.op + " failure")
			stops := 0
			fs.setRefuse(func(op, path string) error {
				if op != tc.op || !strings.HasSuffix(path, ".seg") {
					return nil
				}
				stops++
				if tc.fail {
					return boom
				}
				copyDir(t, dir, crashDir)
				return nil
			})
			e.maybeCompact()
			fs.setRefuse(nil)
			if stops != 1 {
				t.Fatalf("the cleaner reached %q %d times, want once", tc.op, stops)
			}

			st, _ := e.SpillStatus()
			if tc.fail {
				copyDir(t, dir, crashDir)
				if !st.MemoryOnly || st.SpillErrors != 1 || st.SegmentCompactions != 0 || len(st.QuarantinedSegments) != 0 {
					t.Errorf("after the refused %s: %+v; want memory-only, one error, no compaction, no quarantine", tc.op, st)
				}
				if segOf(t, e, "u2") != victim {
					t.Error("u2's ref left the victim although its new copy is not durable")
				}
			} else if st.MemoryOnly || st.SegmentCompactions != 1 || segOf(t, e, "u2") == victim {
				t.Errorf("undisturbed compaction: %+v, u2 still in the victim: %v", st, segOf(t, e, "u2") == victim)
			}
			for _, uid := range []string{"u1", "u2", "u3", "u4", "u5"} {
				if snap, ok := e.Snapshot(uid); !ok || snap.Violations["ip-s1.com"] == 0 {
					t.Errorf("Snapshot(%s) in the live engine = %+v, %v", uid, snap, ok)
				}
			}
			if got := mustExport(t, e); !bytes.Equal(got, before) {
				t.Errorf("live export changed:\n--- before\n%s\n--- after\n%s", before, got)
			}
			e.Close()

			e2 := rebootOnSegments(t, clock, crashDir)
			if got := mustExport(t, e2); !bytes.Equal(got, before) {
				t.Errorf("export after reboot differs from the one before the compaction:\n--- before\n%s\n--- after\n%s", before, got)
			}
			if st, _ := e2.SpillStatus(); len(st.QuarantinedSegments) != 0 || st.SpillErrors != 0 || st.ProfilesSpilled != 5 {
				t.Errorf("recovery: %+v; want five spilled profiles and no damage", st)
			}
			_, err := os.Stat(filepath.Join(crashDir, victim.Name()))
			if gone := os.IsNotExist(err); gone != tc.victimSuperseded {
				t.Errorf("victim gone after boot = %v (stat: %v), want %v", gone, err, tc.victimSuperseded)
			}
		})
	}
}

// TestWholeRingImportsAgree: ImportStateRange over the whole ring and
// ImportState are one code path and must leave the same engine behind, with
// the payload's guard and population sections present and absent, over a
// target that already holds profiles of its own.
func TestWholeRingImportsAgree(t *testing.T) {
	clock := newTestClock()
	opts := func() []Option {
		return []Option{
			WithClock(clock.Now), WithShards(4),
			WithGuard(GuardConfig{TripThreshold: 2, OpenFor: time.Hour}),
			WithSynthesis(SynthesisConfig{Window: time.Minute}),
		}
	}
	build := func(residency bool) *Engine {
		t.Helper()
		o := opts()
		if residency {
			o = append(o, WithProfileResidency(ResidencyConfig{Dir: t.TempDir(), MaxProfiles: 8}))
		}
		e, err := NewEngine([]*rules.Rule{jqRule(0)}, o...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	donor := build(false)
	for i := 0; i < 24; i++ {
		clock.Advance(time.Second)
		if _, err := donor.HandleReport(slowS1Report(fmt.Sprintf("donor%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	stripped := mustExport(t, donor)
	donor.ObserveProviderOutcome("s2.net", false, 500)
	donor.ObserveProviderOutcome("s2.net", false, 500)
	withGuard := mustExport(t, donor)
	if bytes.Equal(stripped, withGuard) || !bytes.Contains(withGuard, []byte(`"guard"`)) || bytes.Contains(stripped, []byte(`"guard"`)) {
		t.Fatal("setup: the tripped breaker did not add a guard section to the export")
	}

	for _, tc := range []struct {
		name    string
		payload []byte
	}{{"sections absent", stripped}, {"guard section present", withGuard}} {
		for _, residency := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/residency=%v", tc.name, residency), func(t *testing.T) {
				whole, ranged := build(residency), build(residency)
				for _, e := range []*Engine{whole, ranged} {
					for i := 0; i < 12; i++ {
						if _, err := e.HandleReport(slowS1Report(fmt.Sprintf("local%02d", i))); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := whole.ImportState(tc.payload); err != nil {
					t.Fatal(err)
				}
				if err := ranged.ImportStateRange(HashRange{}, tc.payload); err != nil {
					t.Fatal(err)
				}
				w, r := mustExport(t, whole), mustExport(t, ranged)
				if !bytes.Equal(w, r) {
					t.Errorf("exports differ:\n--- ImportState\n%s\n--- ImportStateRange(whole ring)\n%s", w, r)
				}
				if !bytes.Equal(w, tc.payload) {
					t.Errorf("ImportState did not reproduce the payload:\n--- payload\n%s\n--- export\n%s", tc.payload, w)
				}
				if whole.Users() != 24 || ranged.Users() != 24 {
					t.Errorf("users after import: %d and %d, want 24 (local profiles replaced)", whole.Users(), ranged.Users())
				}
			})
		}
	}
}
