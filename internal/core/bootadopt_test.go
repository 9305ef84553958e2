package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"oak/internal/rules"
	"oak/internal/seglog"
	"oak/internal/wire"
)

// Boot adopts the log (PR 21): a restart keeps the spill refs the log proves
// current. Since the checkpoint moved into the spill directory (PR 43) it
// installs no resident at all, and the newer-wins merge is left to the one
// read of a state file written before. These tests pin the merge, one case per
// row, and a 2,000-user boot that must leave the spill directory as it found
// it.

// writeSpillSegment writes segment seq of dir holding recs, in order.
func writeSpillSegment(t *testing.T, dir string, seq uint64, recs ...persistedProfile) string {
	t.Helper()
	data := []byte(seglog.Magic)
	for i := range recs {
		data = wire.AppendFrame(data, encodeSpillRecord(nil, &recs[i]))
	}
	path := filepath.Join(dir, fmt.Sprintf("seg-%016x.seg", seq))
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestNewerWinsMerge is supersedes and the legacy read around it — the one
// read of a state file written before the checkpoint moved into the spill
// directory — a case a row: which of a user's two durable copies it brings
// back, and whether it costs an install. The log's copy counts one violation,
// the state file's two.
func TestNewerWinsMerge(t *testing.T) {
	at := newTestClock().Now()
	copyOf := func(violations int, last time.Time, ver uint64) *persistedProfile {
		return &persistedProfile{UserID: "u", Violations: map[string]int{"ip-s1.com": violations}, LastReport: last, Version: ver}
	}
	for _, tc := range []struct {
		name       string
		record     *persistedProfile // the log's copy, nil for none
		damaged    bool              // the record's segment fails its checksum
		payload    *persistedProfile // the state file's copy, nil for none
		supersedes bool              // the predicate, when both copies exist
		residency  string            // where the user lives after the boot
		violations int               // which copy came back
	}{
		{
			name:   "resident at the save, an older record left in the log",
			record: copyOf(1, at, 1), payload: copyOf(2, at.Add(time.Minute), 2),
			residency: "resident", violations: 2,
		},
		{
			name:      "only the log knows the user",
			record:    copyOf(1, at, 1),
			residency: "spilled", violations: 1,
		},
		{
			name:      "only the state file knows the user",
			payload:   copyOf(2, at, 1),
			residency: "resident", violations: 2,
		},
		{
			name:   "the record is newer than the state file",
			record: copyOf(1, at.Add(time.Minute), 3), payload: copyOf(2, at, 2), supersedes: true,
			residency: "spilled", violations: 1,
		},
		{
			name:   "a newer record outranks a higher version",
			record: copyOf(1, at.Add(time.Minute), 1), payload: copyOf(2, at, 9), supersedes: true,
			residency: "spilled", violations: 1,
		},
		{
			name:   "spilled at the save: same last report, same version",
			record: copyOf(1, at, 4), payload: copyOf(2, at, 4), supersedes: true,
			residency: "spilled", violations: 1,
		},
		{
			name:   "evicted, then reported for again at the same instant",
			record: copyOf(1, at, 4), payload: copyOf(2, at, 5),
			residency: "resident", violations: 2,
		},
		{
			name:   "same instant, the record at the higher version",
			record: copyOf(1, at, 5), payload: copyOf(2, at, 4), supersedes: true,
			residency: "spilled", violations: 1,
		},
		{
			name:   "unversioned tie, as every PR 20 directory holds",
			record: copyOf(1, at, 0), payload: copyOf(2, at, 0),
			residency: "resident", violations: 2,
		},
		{
			name:   "unversioned record against a versioned copy",
			record: copyOf(1, at, 0), payload: copyOf(2, at, 1),
			residency: "resident", violations: 2,
		},
		{
			name:   "the user's only record sits in a quarantined segment",
			record: copyOf(1, at.Add(time.Minute), 3), damaged: true, payload: copyOf(2, at, 2),
			residency: "resident", violations: 2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.record != nil {
				seg := writeSpillSegment(t, dir, 1, *tc.record)
				if tc.damaged {
					flipSegByte(t, seg)
				}
			}
			e := newSpillEngine(t, newTestClock(), ResidencyConfig{Dir: dir, MaxProfiles: 10})
			ref, indexed := e.shards[0].spilled.get("u")
			if indexed != (tc.record != nil && !tc.damaged) {
				t.Fatalf("record indexed = %v", indexed)
			}
			if indexed && tc.payload != nil {
				if got := ref.supersedes(tc.payload.LastReport, tc.payload.Version); got != tc.supersedes {
					t.Errorf("supersedes = %v, want %v", got, tc.supersedes)
				}
			}
			st := persistedState{Version: stateVersion}
			if tc.payload != nil {
				st.Profiles = append(st.Profiles, *tc.payload)
			}
			data, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.importRange(HashRange{}, data, true, false); err != nil {
				t.Fatal(err)
			}
			if r := e.Residency("u"); r != tc.residency {
				t.Errorf("residency = %q, want %q", r, tc.residency)
			}
			if snap, ok := e.Snapshot("u"); !ok || snap.Violations["ip-s1.com"] != tc.violations {
				t.Errorf("came back as %+v (%v), want the copy with %d violations", snap, ok, tc.violations)
			}
			if bs := e.BootStatus(); (bs.QuarantinedSegments == 1) != tc.damaged {
				t.Errorf("BootStatus = %+v with damaged = %v", bs, tc.damaged)
			}
			// The authoritative import of the same payload never keeps a ref.
			if err := e.ImportState(data); err != nil {
				t.Fatal(err)
			}
			want := "none"
			if tc.payload != nil {
				want = "resident"
			}
			if r := e.Residency("u"); r != want {
				t.Errorf("after ImportState: residency = %q, want %q", r, want)
			}
		})
	}
}

// dirBytes reads every file of a directory.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(ents))
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[ent.Name()] = b
	}
	return out
}

// TestBootAdoptsTheLog: 2,000 users under a cap of 200. A restart installs
// no resident — the save appended the residents and its checkpoint indexes
// every user's record — and writes nothing: no spill, no compaction, not a
// byte of the segment directory moved. It gives the export the engine gave
// before it stopped. PR 20 installed all 2,000 and evicted 1,800 of them
// again before it served; PRs 21–42 installed the residents of the save.
func TestBootAdoptsTheLog(t *testing.T) {
	const users, maxResident = 2000, 200
	type world struct {
		clock      *testClock
		dir, state string
		e          *Engine
	}
	engineOn := func(t *testing.T, w *world, dir string, opts ...Option) *Engine {
		t.Helper()
		e, err := NewEngine([]*rules.Rule{jqRule(0)}, append(opts, WithClock(w.clock.Now), WithShards(4),
			WithProfileResidency(ResidencyConfig{Dir: dir, MaxProfiles: maxResident, SegmentBytes: 8 << 10}))...)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	boot := func(t *testing.T, w *world, opts ...Option) {
		t.Helper()
		w.e = engineOn(t, w, w.dir, opts...)
		t.Cleanup(func() { w.e.Close() })
	}
	// bothWays: the files boot the same with the checkpoint's index as without it.
	bothWays := func(t *testing.T, w *world, step string) BootStatus {
		t.Helper()
		users := make([]string, users)
		for i := range users {
			users[i] = fmt.Sprintf("user-%04d", i)
		}
		return bootsAgree(t, step, w.dir, users, func(dir string) *Engine {
			e := engineOn(t, w, dir)
			if _, err := e.LoadStateFile(w.state); err != nil {
				t.Fatal(err)
			}
			return e
		})
	}
	// traffic is n seeded reports, a third of them with a violator.
	traffic := func(t *testing.T, w *world, rng *rand.Rand, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			uid := fmt.Sprintf("user-%04d", rng.Intn(users))
			r := healthyReport(uid)
			if rng.Intn(3) == 0 {
				r = slowS1Report(uid)
			}
			if _, err := w.e.HandleReport(r); err != nil {
				t.Fatal(err)
			}
			w.clock.Advance(time.Second)
		}
	}
	// start builds the world every case begins from: each user has reported
	// once, and a further 1,500 reports have rehydrated, re-evicted and
	// compacted on top of that.
	start := func(t *testing.T) (*world, *rand.Rand) {
		t.Helper()
		w := &world{clock: newTestClock(), dir: t.TempDir()}
		w.state = filepath.Join(t.TempDir(), "state.json")
		boot(t, w)
		for i := 0; i < users; i++ {
			if _, err := w.e.HandleReport(healthyReport(fmt.Sprintf("user-%04d", i))); err != nil {
				t.Fatal(err)
			}
			w.clock.Advance(time.Second)
		}
		rng := rand.New(rand.NewSource(21))
		traffic(t, w, rng, 1500)
		if st, _ := w.e.SpillStatus(); st.ProfilesSpilled < users-maxResident || st.SegmentCompactions == 0 || st.Segments < 8 {
			t.Fatalf("world too quiet: %+v", st)
		}
		return w, rng
	}
	residents := func(e *Engine) []string {
		var out []string
		for i := 0; i < users; i++ {
			if uid := fmt.Sprintf("user-%04d", i); e.Residency(uid) == "resident" {
				out = append(out, uid)
			}
		}
		sort.Strings(out)
		return out
	}
	// wroteNothing: the boot did not spill, compact or touch a segment file.
	wroteNothing := func(t *testing.T, w *world, before map[string][]byte) {
		t.Helper()
		st, _ := w.e.SpillStatus()
		if st.Spills != 0 || st.SegmentCompactions != 0 || st.SpillErrors != 0 || st.MemoryOnly {
			t.Errorf("boot wrote to the spill tier: spills %d, compactions %d, errors %d, memory-only %v",
				st.Spills, st.SegmentCompactions, st.SpillErrors, st.MemoryOnly)
		}
		after := dirBytes(t, w.dir)
		if len(after) != len(before) {
			t.Errorf("segment directory holds %d files after the boot, %d before", len(after), len(before))
		}
		for name, b := range before {
			if !bytes.Equal(after[name], b) {
				t.Errorf("%s changed across the boot (%d bytes before, %d after)", name, len(b), len(after[name]))
			}
		}
	}

	t.Run("clean shutdown", func(t *testing.T) {
		w, _ := start(t)
		want := mustExport(t, w.e)
		wantResident := residents(w.e)
		// oakd's order: in-flight reports finish and descriptors close, then
		// the final save.
		w.e.Close()
		if err := w.e.SaveStateFile(w.state); err != nil {
			t.Fatal(err)
		}
		before := dirBytes(t, w.dir)
		if bs := bothWays(t, w, "clean shutdown"); bs.IndexFallback != "" || bs.IndexAdopted != users || bs.Decoded != 0 {
			t.Errorf("the boot after a clean shutdown did not adopt the index: %+v", bs)
		}

		boot(t, w)
		if src, err := w.e.LoadStateFile(w.state); err != nil || src != StateSnapshot {
			t.Fatalf("LoadStateFile = %q, %v", src, err)
		}
		wroteNothing(t, w, before)
		if got := residents(w.e); len(got) != 0 || len(wantResident) == 0 {
			t.Errorf("%d residents after the boot, %d at the save; want none after it", len(got), len(wantResident))
		}
		if got := mustExport(t, w.e); !bytes.Equal(got, want) {
			t.Error("export after the boot differs from the export before the shutdown")
		}
		bs := w.e.BootStatus()
		if residents(w.e) != nil || bs.IndexAdopted != users || bs.QuarantinedSegments != 0 || filepath.Base(bs.Checkpoint) != checkpointName {
			t.Errorf("BootStatus = %+v, want nothing installed and all %d adopted from the checkpoint", bs, users)
		}
	})

	t.Run("kill before the last save", func(t *testing.T) {
		w, rng := start(t)
		if err := w.e.SaveStateFile(w.state); err != nil {
			t.Fatal(err)
		}
		// The log runs ahead of the snapshot, then the process dies: what was
		// evicted since is on disk, what was only resident is gone.
		traffic(t, w, rng, 1500)
		durable := map[string]ProfileSnapshot{}
		for i := 0; i < users; i++ {
			if uid := fmt.Sprintf("user-%04d", i); w.e.Residency(uid) == "spilled" {
				durable[uid], _ = w.e.Snapshot(uid)
			}
		}
		w.e.Close()
		before := dirBytes(t, w.dir)
		bothWays(t, w, "kill before the last save")

		boot(t, w)
		if _, err := w.e.LoadStateFile(w.state); err != nil {
			t.Fatal(err)
		}
		wroteNothing(t, w, before)
		if got := w.e.Users(); got != users {
			t.Errorf("Users = %d after the boot, want %d", got, users)
		}
		if got := len(residents(w.e)); got > maxResident {
			t.Errorf("%d residents after the boot, cap %d", got, maxResident)
		}
		for uid, want := range durable {
			if got, ok := w.e.Snapshot(uid); !ok || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s was spilled and fsynced as %+v, came back as %+v (%v)", uid, want, got, ok)
			}
		}
	})

	// Quarantine is damage from outside the crash contract, and the log is the
	// one durable home: a user whose only record the damaged segment held is
	// gone after the boot, resident at the save or not, and the quarantine line
	// says how many users its readable frames name that no other record does.
	// (While the state file copied every spilled user, they came back from that
	// copy; while it copied the residents, those did.)
	t.Run("one segment damaged", func(t *testing.T) {
		w, _ := start(t)
		before := map[string]ProfileSnapshot{}
		for i := 0; i < users; i++ {
			uid := fmt.Sprintf("user-%04d", i)
			before[uid], _ = w.e.Snapshot(uid)
		}
		w.e.Close()
		if err := w.e.SaveStateFile(w.state); err != nil {
			t.Fatal(err)
		}
		// The victim is the segment that is the only record of the most users.
		files := dirBytes(t, w.dir)
		delete(files, checkpointName) // the checkpoint indexes the segments
		delete(files, checkpointName+BackupSuffix)
		frames := map[string][]segFrame{}
		holders := map[string]map[string]bool{} // user → segments with a record of it
		for name, data := range files {
			var err error
			if frames[name], _, err = walkSegment(data); err != nil {
				t.Fatal(err)
			}
			for _, fr := range frames[name] {
				if holders[fr.uid] == nil {
					holders[fr.uid] = map[string]bool{}
				}
				holders[fr.uid][name] = true
			}
		}
		victim, most := "", -1
		for name := range files {
			only := 0
			for _, fr := range frames[name] {
				if len(holders[fr.uid]) == 1 {
					only++
				}
			}
			if only > most {
				victim, most = name, only
			}
		}
		// Break its last frame's checksum, so every frame before it reads.
		inVictim, elsewhere, readable := map[string]bool{}, map[string]bool{}, map[string]bool{}
		for uid, segs := range holders {
			inVictim[uid] = segs[victim]
			elsewhere[uid] = len(segs) > 1 || !segs[victim]
		}
		for _, fr := range frames[victim][:len(frames[victim])-1] {
			readable[fr.uid] = true
		}
		data := files[victim]
		data[len(data)-1] ^= 0x40
		if err := os.WriteFile(filepath.Join(w.dir, victim), data, 0o600); err != nil {
			t.Fatal(err)
		}
		noOther := 0
		for uid := range readable {
			if !elsewhere[uid] {
				noOther++
			}
		}
		if noOther == 0 {
			t.Fatalf("the damaged segment is no user's only record (%d readable)", len(readable))
		}

		var lines []string
		boot(t, w, WithLogf(func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }))
		if _, err := w.e.LoadStateFile(w.state); err != nil {
			t.Fatal(err)
		}
		st, _ := w.e.SpillStatus()
		if len(st.QuarantinedSegments) != 1 || !w.e.SpillDegraded() || st.MemoryOnly {
			t.Errorf("spill tier after the boot: %+v, want one quarantined segment, degraded", st)
		}
		want := fmt.Sprintf("core: spill segment %s quarantined: ", victim)
		said := fmt.Sprintf("; %d users its readable frames name have no other record", noOther)
		if n := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, want) }); n < 0 || !strings.HasSuffix(lines[n], said) {
			t.Errorf("no line %q…%q in the boot's log:\n%s", want, said, strings.Join(lines, "\n"))
		}
		for uid, snap := range before {
			got, ok := w.e.Snapshot(uid)
			switch {
			case readable[uid] && !elsewhere[uid]:
				if ok || w.e.Residency(uid) != "none" {
					t.Errorf("%s's only record was quarantined, yet it came back as %+v", uid, got)
				}
			case !inVictim[uid]:
				if !ok || !reflect.DeepEqual(got, snap) {
					t.Errorf("%s came back as %+v (%v), was %+v", uid, got, ok, snap)
				}
			}
		}
		t.Logf("%d users gone with %s: its readable frames' users with no other record", noOther, victim)
	})
}
