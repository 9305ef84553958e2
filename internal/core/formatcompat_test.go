package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"oak/internal/rules"
	"oak/internal/seglog"
)

// The files under testdata/pr18-files were written by the commit before the
// spill cleaner re-appended survivors (PR 18): a segment directory that has
// seen rotation, rehydration, a compaction and a torn-free close, and the
// state file and backup saved part-way through, so the boot import has
// newer-wins work to do. Booting on them pins the on-disk formats — OAKPROF1
// segments and the state files of their day — across the change of writer.
//
// To regenerate at some commit, or to check the other direction (files written
// by this commit, read by an older one): run this test there with
// -write-format-fixture=<empty dir>; it writes the files and the export a boot
// on them gives, and an engine at any other commit must give the same export
// (copy the directory over that commit's testdata/pr18-files).
var writeFormatFixtureTo = flag.String("write-format-fixture", "", "write the format-compatibility fixture to this directory and stop")

// formatFixtureEngine boots a two-shard capped engine over dir/spill on a
// clock at the given offset from the test epoch.
func formatFixtureEngine(t *testing.T, dir string, at time.Duration) (*Engine, *testClock) {
	t.Helper()
	clock := newTestClock()
	clock.Advance(at)
	e, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now), WithShards(2),
		WithProfileResidency(ResidencyConfig{Dir: filepath.Join(dir, "spill"), MaxProfiles: 100, SegmentBytes: 400, CompactRatio: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, clock
}

// writeFormatFixture drives a small fixed world and leaves its files in dir.
func writeFormatFixture(t *testing.T, dir string) {
	t.Helper()
	e, clock := formatFixtureEngine(t, dir, 0)
	report := func(uids ...string) {
		for _, uid := range uids {
			clock.Advance(time.Second)
			if _, err := e.HandleReport(slowS1Report(uid)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var users []string
	for i := 0; i < 12; i++ {
		users = append(users, fmt.Sprintf("user-%02d", i))
	}
	report(users...)
	forceSpill(t, e, users[:10]...) // several segments per shard; two users stay resident
	report(users[0], users[1], users[2], users[3], users[4])
	state := filepath.Join(dir, "state.json")
	for i := 0; i < 2; i++ { // twice: a backup exists
		if err := e.SaveStateFile(state); err != nil {
			t.Fatal(err)
		}
	}
	// After the save: records newer than the snapshot's copy, a user only the
	// segments know, and three records that tie with the snapshot's copy. Each
	// kills the record its user's report read, and the cleaner runs.
	report(users[1], users[0], "late-user")
	forceSpill(t, e, users[1], users[0], "late-user", users[2], users[3], users[4])
	for i := 0; i < 4; i++ {
		e.maybeCompact()
	}
	if st, _ := e.SpillStatus(); st.SegmentCompactions == 0 || st.Segments < 3 || st.MemoryOnly {
		t.Fatalf("fixture world too quiet: %+v", st)
	}
	e.Close()
}

// bootFormatFixture boots on a copy of the files in dir, as a restart would,
// and returns the export.
func bootFormatFixture(t *testing.T, dir string) []byte {
	t.Helper()
	work := t.TempDir()
	if err := os.Mkdir(filepath.Join(work, "spill"), 0o700); err != nil {
		t.Fatal(err)
	}
	copyDir(t, filepath.Join(dir, "spill"), filepath.Join(work, "spill"))
	copyDir(t, dir, work) // state.json and its backup
	e, _ := formatFixtureEngine(t, work, time.Hour)
	if src, err := e.LoadStateFile(filepath.Join(work, "state.json")); err != nil || src != StateSnapshot {
		t.Fatalf("LoadStateFile = %q, %v", src, err)
	}
	if st, _ := e.SpillStatus(); len(st.QuarantinedSegments) != 0 || st.SpillErrors != 0 || st.ProfilesSpilled == 0 {
		t.Fatalf("boot on the fixture: %+v", st)
	}
	return mustExport(t, e)
}

func TestBootsOnFilesWrittenBeforeTheCleanerChanged(t *testing.T) {
	if out := *writeFormatFixtureTo; out != "" {
		writeFormatFixture(t, out)
		if err := os.WriteFile(filepath.Join(out, "export.json"), bootFormatFixture(t, out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	const fixture = "testdata/pr18-files"
	want, err := os.ReadFile(filepath.Join(fixture, "export.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := bootFormatFixture(t, fixture); !bytes.Equal(got, want) {
		t.Errorf("export after booting on PR 18's files:\n--- got\n%s\n--- want\n%s", got, want)
	}

	// And this commit's own files, the same world: what it writes it reads
	// back to the same state, byte for byte. Its profiles carry versions, so
	// the golden is its own (the export.json -write-format-fixture leaves).
	want, err = os.ReadFile("testdata/own-files-export.json")
	if err != nil {
		t.Fatal(err)
	}
	own := t.TempDir()
	writeFormatFixture(t, own)
	if got := bootFormatFixture(t, own); !bytes.Equal(got, want) {
		t.Errorf("export after booting on this commit's files:\n--- got\n%s\n--- want\n%s", got, want)
	}
}

// testdata/pr27-files was written by the last commit whose state file carried
// a full copy of every spilled user: 64 users on eight shards capped
// at 16 resident, with rehydrations, compactions, two saves (a state file and
// its .bak) and forty reports after the last. This commit's boot visits only
// the payload's users in the merge — all 64 of them here, resident or not —
// and must give the export that commit's boot recorded.
func TestBootsOnFilesWrittenBeforeTheCheckpoint(t *testing.T) {
	bootEightShardFixture(t, "testdata/pr27-files")
}

// testdata/pr31-files was written by the last commit that pinned the record a
// rehydration read until two checkpoints held its user: the same kind of
// world, and a spill.idx whose last save wrote eleven pins as refs, then six
// reports and no save. The spill directory holds no checkpoint, so the boot
// reads no spill.idx: it decodes the whole log, reads the state file
// newer-wins once, and must give the export that commit's boot recorded.
func TestBootsOnFilesWrittenWithPins(t *testing.T) {
	e := bootEightShardFixture(t, "testdata/pr31-files")
	bs := e.BootStatus()
	if bs.IndexFallback != "no checkpoint" || bs.Checkpoint != "" || bs.IndexAdopted != 0 || bs.Decoded != bs.Checksummed {
		t.Errorf("boot status %+v, want no checkpoint and every record decoded", bs)
	}
}

// bootEightShardFixture boots an eight-shard engine, capped at 16 resident
// profiles, on a copy of the files in fixture, requires all 64 users and no
// damage, and holds the export to the one recorded beside the files.
func bootEightShardFixture(t *testing.T, fixture string) *Engine {
	t.Helper()
	work := t.TempDir()
	if err := os.Mkdir(filepath.Join(work, "spill"), 0o700); err != nil {
		t.Fatal(err)
	}
	copyDir(t, filepath.Join(fixture, "spill"), filepath.Join(work, "spill"))
	copyDir(t, fixture, work)
	return bootEightShard(t, work, filepath.Join(fixture, "export.json"))
}

// bootEightShard is bootEightShardFixture's boot, on the files in work.
func bootEightShard(t *testing.T, work, export string) *Engine {
	t.Helper()
	want, err := os.ReadFile(export)
	if err != nil {
		t.Fatal(err)
	}
	clock := newTestClock()
	clock.Advance(time.Hour)
	e, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now), WithShards(8),
		WithProfileResidency(ResidencyConfig{Dir: filepath.Join(work, "spill"), MaxProfiles: 16, SegmentBytes: 600, CompactRatio: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if src, err := e.LoadStateFile(filepath.Join(work, "state.json")); err != nil || src != StateSnapshot {
		t.Fatalf("LoadStateFile = %q, %v", src, err)
	}
	if st, _ := e.SpillStatus(); len(st.QuarantinedSegments) != 0 || st.SpillErrors != 0 || st.ProfilesSpilled == 0 || e.Users() != 64 {
		t.Fatalf("boot on %s: %d users, %+v", work, e.Users(), st)
	}
	if got := mustExport(t, e); !bytes.Equal(got, want) {
		t.Errorf("export after booting on %s:\n--- got\n%s\n--- want\n%s", work, got, want)
	}
	return e
}

// testdata/pr33-files was written by the last commit whose state file was
// OAKSNAP2 JSON: the eight-shard world, its state file, backup, segments and
// spill index, with six reports after the last save, and an uncapped engine's
// state file beside them. Each boots through the migration to the export that
// commit's boot recorded; one save later the uncapped file is a checkpoint,
// the capped one and its backup are gone for the spill directory's
// checkpoint, and the boot on it gives the same export.
func TestBootsOnFilesWrittenAsJSON(t *testing.T) {
	const fixture = "testdata/pr33-files"
	work := t.TempDir()
	if err := os.Mkdir(filepath.Join(work, "spill"), 0o700); err != nil {
		t.Fatal(err)
	}
	copyDir(t, filepath.Join(fixture, "spill"), filepath.Join(work, "spill"))
	copyDir(t, fixture, work)

	capped := func() *Engine { return bootEightShard(t, work, filepath.Join(fixture, "export.json")) }
	uncapped := func() *Engine {
		clock := newTestClock()
		clock.Advance(time.Hour)
		e, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now), WithShards(2),
			WithGuard(GuardConfig{TripThreshold: 3, OpenFor: time.Hour}))
		if err != nil {
			t.Fatal(err)
		}
		if src, err := e.LoadStateFile(filepath.Join(work, "uncapped.json")); err != nil || src != StateSnapshot {
			t.Fatalf("LoadStateFile = %q, %v", src, err)
		}
		want, err := os.ReadFile(filepath.Join(fixture, "uncapped-export.json"))
		if err != nil {
			t.Fatal(err)
		}
		if got := mustExport(t, e); !bytes.Equal(got, want) {
			t.Errorf("export after booting on the uncapped file:\n--- got\n%s\n--- want\n%s", got, want)
		}
		return e
	}
	for name, boot := range map[string]func() *Engine{"state.json": capped, "uncapped.json": uncapped} {
		e := boot()
		if !e.BootStatus().Migrated {
			t.Errorf("%s: boot status %+v, want a migration", name, e.BootStatus())
		}
		if err := e.SaveStateFile(filepath.Join(work, name)); err != nil {
			t.Fatal(err)
		}
		e.Close()
		saved := filepath.Join(work, name)
		if e.spill != nil {
			for _, gone := range []string{saved, saved + BackupSuffix} {
				if _, err := os.Stat(gone); !os.IsNotExist(err) {
					t.Errorf("%s: the save after the migration left %s (%v)", name, gone, err)
				}
			}
			saved = filepath.Join(work, "spill", checkpointName)
		}
		if data, _ := os.ReadFile(saved); !bytes.HasPrefix(data, []byte(seglog.Magic)) {
			t.Errorf("%s: the save after the migration wrote %.20q, not a checkpoint", name, data)
		}
		if e = boot(); e.BootStatus().Migrated {
			t.Errorf("%s: the boot on the checkpoint migrated: %+v", name, e.BootStatus())
		}
	}
}

// testdata/pr20-files is the same world written by the last commit whose
// profiles had no version (PR 20; its writer re-appends compaction survivors,
// so the segments differ from pr18-files). Every record and every state-file
// profile in it reads as version 0, a tie between them proves nothing, and the
// boot is the one that commit did: the state file's copy wins, to the export
// recorded there, with no version anywhere in it.
func TestBootsOnFilesWrittenBeforeProfilesHadVersions(t *testing.T) {
	const fixture = "testdata/pr20-files"
	want, err := os.ReadFile(filepath.Join(fixture, "export.json"))
	if err != nil {
		t.Fatal(err)
	}
	got := bootFormatFixture(t, fixture)
	if !bytes.Equal(got, want) {
		t.Errorf("export after booting on PR 20's files:\n--- got\n%s\n--- want\n%s", got, want)
	}
	st, err := decodeState(got)
	if err != nil {
		t.Fatal(err)
	}
	for _, pp := range st.Profiles {
		if pp.Version != 0 {
			t.Errorf("%s came back at version %d from files that carry none", pp.UserID, pp.Version)
		}
	}
}

// testdata/pr42-files was written by the last commit whose capped checkpoint
// was the state file: state.json and its .bak beside a spill directory that
// holds spill.idx, with a resident user over an older record, a spilled one, a
// user only the log knows, s2.net's breaker open and s3.org degraded. The
// spill directory holds no checkpoint, so the boot decodes the whole log and
// reads the state file newer-wins, to the export that commit's boot recorded.
// One save later state.json and its .bak are gone, spill.idx lies unread, and
// the boot on the spill directory alone gives the same export.
func TestBootsOnFilesWrittenBeforeTheCheckpointMoved(t *testing.T) {
	const fixture = "testdata/pr42-files"
	want, err := os.ReadFile(filepath.Join(fixture, "export.json"))
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	spill, state := filepath.Join(work, "spill"), filepath.Join(work, "state.json")
	if err := os.Mkdir(spill, 0o700); err != nil {
		t.Fatal(err)
	}
	copyDir(t, filepath.Join(fixture, "spill"), spill)
	copyDir(t, fixture, work)
	index, err := os.ReadFile(filepath.Join(spill, "spill.idx"))
	if err != nil {
		t.Fatal(err)
	}
	boot := func(want StateSource) *Engine {
		t.Helper()
		clock := newTestClock()
		clock.Advance(time.Minute)
		e, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now), WithShards(2),
			WithGuard(GuardConfig{TripThreshold: 2, OpenFor: time.Hour}),
			WithSynthesis(SynthesisConfig{Window: time.Minute}),
			WithProfileResidency(ResidencyConfig{Dir: spill, MaxProfiles: 100}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		if src, err := e.LoadStateFile(state); err != nil || src != want {
			t.Fatalf("LoadStateFile = %q, %v; want %q", src, err, want)
		}
		return e
	}
	e := boot(StateSnapshot)
	if got := mustExport(t, e); !bytes.Equal(got, want) {
		t.Errorf("export after booting on PR 42's files:\n--- got\n%s\n--- want\n%s", got, want)
	}
	if bs := e.BootStatus(); bs.Checkpoint != "" || bs.IndexFallback != "no checkpoint" || bs.Load == 0 {
		t.Errorf("boot status %+v, want no checkpoint and the state file read", bs)
	}
	if err := e.SaveStateFile(state); err != nil {
		t.Fatal(err)
	}
	e.Close()
	for _, gone := range []string{state, state + BackupSuffix} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Errorf("the save left %s (%v)", filepath.Base(gone), err)
		}
	}
	if left, err := os.ReadFile(filepath.Join(spill, "spill.idx")); err != nil || !bytes.Equal(left, index) {
		t.Errorf("spill.idx changed by the save (%v)", err)
	}
	e = boot(StateSnapshot)
	if got := mustExport(t, e); !bytes.Equal(got, want) {
		t.Errorf("export after the save's reboot:\n--- got\n%s\n--- want\n%s", got, want)
	}
	if bs := e.BootStatus(); filepath.Base(bs.Checkpoint) != checkpointName || bs.IndexFallback != "" || bs.Load != 0 || bs.IndexAdopted != 4 {
		t.Errorf("boot status %+v, want the checkpoint and its 4 entries adopted, no state file read", bs)
	}
}
