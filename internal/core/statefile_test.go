package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"oak/internal/rules"
)

func statePathIn(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "oak-state.json")
}

func TestSaveLoadStateFileRoundTrip(t *testing.T) {
	clock := newTestClock()
	e1, _ := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now))
	if _, err := e1.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	path := statePathIn(t)
	if err := e1.SaveStateFile(path); err != nil {
		t.Fatal(err)
	}

	e2, _ := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now))
	src, err := e2.LoadStateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if src != StateSnapshot {
		t.Errorf("source = %q, want snapshot", src)
	}
	if e2.Users() != 1 {
		t.Errorf("Users = %d, want 1", e2.Users())
	}
	if _, n := e2.StateStatus(); n != 0 {
		t.Errorf("StateRecoveries = %d, want 0", n)
	}
}

func TestLoadStateFileFreshDeployment(t *testing.T) {
	e, _ := NewEngine(nil)
	src, err := e.LoadStateFile(statePathIn(t))
	if err != nil {
		t.Fatal(err)
	}
	if src != StateFresh {
		t.Errorf("source = %q, want fresh", src)
	}
}

// saveTwice persists twice so a previous good snapshot sits in the backup.
func saveTwice(t *testing.T, e *Engine, path string) {
	t.Helper()
	for i := 0; i < 2; i++ {
		if err := e.SaveStateFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path + BackupSuffix); err != nil {
		t.Fatalf("no backup after second save: %v", err)
	}
}

func TestLoadStateFileCorruptPrimaryRecoversFromBackup(t *testing.T) {
	e1, _ := NewEngine([]*rules.Rule{jqRule(0)})
	if _, err := e1.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	path := statePathIn(t)
	saveTwice(t, e1, path)

	// Flip one payload byte, as a disk fault or torn write would.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x01
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}

	e2, _ := NewEngine([]*rules.Rule{jqRule(0)})
	src, err := e2.LoadStateFile(path)
	if err != nil {
		t.Fatalf("corrupt primary with good backup: %v", err)
	}
	if src != StateBackup {
		t.Errorf("source = %q, want backup", src)
	}
	if e2.Users() != 1 {
		t.Errorf("recovered Users = %d, want 1", e2.Users())
	}
	if _, n := e2.StateStatus(); n != 1 {
		t.Errorf("StateRecoveries = %d, want 1", n)
	}
	if e2.Metrics().StateRecoveries != 1 {
		t.Errorf("Metrics().StateRecoveries = %d, want 1", e2.Metrics().StateRecoveries)
	}
}

func TestLoadStateFileMissingPrimaryUsesBackup(t *testing.T) {
	// A crash between SaveStateFile's two renames leaves only the backup.
	e1, _ := NewEngine([]*rules.Rule{jqRule(0)})
	if _, err := e1.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	path := statePathIn(t)
	saveTwice(t, e1, path)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}

	e2, _ := NewEngine([]*rules.Rule{jqRule(0)})
	src, err := e2.LoadStateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if src != StateBackup {
		t.Errorf("source = %q, want backup", src)
	}
	if e2.Users() != 1 {
		t.Errorf("recovered Users = %d, want 1", e2.Users())
	}
}

func TestLoadStateFileCorruptWithoutBackupFails(t *testing.T) {
	path := statePathIn(t)
	if err := os.WriteFile(path, []byte("OAKSNAP2 crc32c=deadbeef len=3\nxyz"), 0o600); err != nil {
		t.Fatal(err)
	}
	e, _ := NewEngine(nil)
	if _, err := e.LoadStateFile(path); err == nil {
		t.Error("corrupt primary with no backup: want error")
	}
}

func TestLoadStateFileBothCorruptFails(t *testing.T) {
	path := statePathIn(t)
	if err := os.WriteFile(path, []byte("garbage{"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+BackupSuffix, []byte("also-garbage{"), 0o600); err != nil {
		t.Fatal(err)
	}
	e, _ := NewEngine(nil)
	if _, err := e.LoadStateFile(path); err == nil {
		t.Error("both files corrupt: want error")
	}
}

func TestSaveStateFileLeavesNoTemp(t *testing.T) {
	e, _ := NewEngine(nil)
	path := statePathIn(t)
	if err := e.SaveStateFile(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".tmp") {
			t.Errorf("temp file leaked: %s", ent.Name())
		}
	}
}

func TestSaveStateFileBackupHoldsPreviousState(t *testing.T) {
	// The backup must be the previous snapshot, not a copy of the new one.
	e, _ := NewEngine([]*rules.Rule{jqRule(0)})
	path := statePathIn(t)
	if err := e.SaveStateFile(path); err != nil { // empty state
		t.Fatal(err)
	}
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveStateFile(path); err != nil { // one user
		t.Fatal(err)
	}

	fromBak, _ := NewEngine([]*rules.Rule{jqRule(0)})
	if src, err := fromBak.LoadStateFile(path + BackupSuffix); err != nil || src != StateSnapshot {
		t.Fatalf("loading the backup: %q, %v", src, err)
	}
	if fromBak.Users() != 0 {
		t.Errorf("backup has %d users, want the previous (empty) state", fromBak.Users())
	}
}

// corruptPrimaryAfterTwoSaves saves u1 and u2 twice to path, flips a byte of
// the primary and returns the backup's bytes: the one good snapshot left.
func corruptPrimaryAfterTwoSaves(t *testing.T, path string) []byte {
	t.Helper()
	e, _ := NewEngine([]*rules.Rule{jqRule(0)})
	for _, uid := range []string{"u1", "u2"} {
		if _, err := e.HandleReport(slowS1Report(uid)); err != nil {
			t.Fatal(err)
		}
	}
	saveTwice(t, e, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x01
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path + BackupSuffix)
	if err != nil {
		t.Fatal(err)
	}
	return good
}

// rebootFromBackup boots a fresh engine on path and requires that it came up
// from the backup with u1 and u2 as saved before the damage.
func rebootFromBackup(t *testing.T, path string) {
	t.Helper()
	e, _ := NewEngine([]*rules.Rule{jqRule(0)})
	src, err := e.LoadStateFile(path)
	if err != nil || src != StateBackup {
		t.Fatalf("reboot: LoadStateFile = %q, %v; want the backup", src, err)
	}
	if snap, ok := e.Snapshot("u1"); !ok || e.Users() != 2 || snap.Violations["ip-s1.com"] != 1 {
		t.Errorf("reboot: %d users, u1 = %+v (%v); want u1 and u2 as saved", e.Users(), snap, ok)
	}
}

// TestSaveAfterBackupBootThenLostPrimary: after a boot from the backup and one
// completed save, losing the primary must leave a backup that boots — the
// good one, not the damaged primary rotated over it.
func TestSaveAfterBackupBootThenLostPrimary(t *testing.T) {
	path := statePathIn(t)
	good := corruptPrimaryAfterTwoSaves(t, path)
	e, _ := NewEngine([]*rules.Rule{jqRule(0)})
	if src, err := e.LoadStateFile(path); err != nil || src != StateBackup {
		t.Fatalf("LoadStateFile = %q, %v; want the backup", src, err)
	}
	if err := e.SaveStateFile(path); err != nil {
		t.Fatal(err)
	}
	if bak, _ := os.ReadFile(path + BackupSuffix); !bytes.Equal(bak, good) {
		t.Error("the save after a backup boot replaced the good backup")
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	rebootFromBackup(t, path)
}

// TestSaveAfterBackupBootKeepsTheBackup: a boot from the backup leaves the
// damaged primary in place, and the next save must not rotate it over the one
// good snapshot. The save's install is refused — the files a crash between
// its rotate and install renames would leave — and the reboot must still find
// the state from before the damage in the backup.
func TestSaveAfterBackupBootKeepsTheBackup(t *testing.T) {
	path := statePathIn(t)
	good := corruptPrimaryAfterTwoSaves(t, path)

	fs := &testFS{}
	e2, _ := NewEngine([]*rules.Rule{jqRule(0)}, withFS(fs))
	if src, err := e2.LoadStateFile(path); err != nil || src != StateBackup {
		t.Fatalf("LoadStateFile = %q, %v; want the backup", src, err)
	}
	if _, err := e2.HandleReport(slowS1Report("u3")); err != nil {
		t.Fatal(err)
	}
	fs.setRefuse(func(op, p string) error {
		if op == "rename" && strings.HasSuffix(p, ".tmp") {
			return errors.New("injected crash before the install")
		}
		return nil
	})
	if err := e2.SaveStateFile(path); err == nil {
		t.Fatal("SaveStateFile succeeded with its install refused")
	}
	if bak, _ := os.ReadFile(path + BackupSuffix); !bytes.Equal(bak, good) {
		t.Error("the save after a backup boot replaced the good backup")
	}

	rebootFromBackup(t, path)

	// Installed, the save's primary is known good and the next one rotates it,
	// whether or not the path is spelled as it was at load.
	fs.setRefuse(nil)
	spellings := []string{path, filepath.Dir(path) + "/./" + filepath.Base(path)}
	for i, p := range spellings {
		if err := e2.SaveStateFile(p); err != nil {
			t.Fatal(err)
		}
		if bak, _ := os.ReadFile(path + BackupSuffix); bytes.Equal(bak, good) != (i == 0) {
			t.Errorf("save %d after the backup boot: backup is the old good one = %v, want %v", i+1, i != 0, i == 0)
		}
	}
}

// TestCappedCheckpointHoldsNoProfile: a capped engine's SaveStateFile appends
// the residents whose records are not their state and writes a checkpoint of
// the log into the spill directory, which holds no profile record. It reads
// no spilled record — it succeeds with every segment read refused — writes
// nothing at the state file's path, and leaves every resident resident, its
// ref at its current state. (The state file once held the residents, and
// before that every spilled user too.)
func TestCappedCheckpointHoldsNoProfile(t *testing.T) {
	clock := newTestClock()
	fs := &testFS{}
	dir := t.TempDir()
	e, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now), WithShards(4), withFS(fs),
		WithProfileResidency(ResidencyConfig{Dir: dir, MaxProfiles: 8}))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var residents []string
	for i := 0; i < 40; i++ {
		if _, err := e.HandleReport(slowS1Report(fmt.Sprintf("user-%02d", i))); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second)
	}
	for i := 0; i < 40; i++ {
		if uid := fmt.Sprintf("user-%02d", i); e.Residency(uid) == "resident" {
			residents = append(residents, uid)
		}
	}
	if st, _ := e.SpillStatus(); st.ProfilesSpilled == 0 || len(residents) == 0 {
		t.Fatalf("want residents and spilled users: %+v", st)
	}
	fs.setRefuse(func(op, path string) error {
		if op == "read" && strings.HasSuffix(path, ".seg") {
			return errors.New("injected segment read failure")
		}
		return nil
	})
	path := statePathIn(t)
	if err := e.SaveStateFile(path); err != nil {
		t.Fatalf("SaveStateFile read the spill log: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("the save wrote the state file's path: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	if st := readCheckpoint(t, data); st.records != 0 || st.index == 0 {
		t.Errorf("checkpoint holds %d profile records and %d index frames, want none and some", st.records, st.index)
	}
	for _, uid := range residents {
		sh := e.shardFor(uid)
		sh.mu.RLock()
		prof, resident := sh.profiles[uid]
		ref, ok := sh.spilled.get(uid)
		held := resident && ok && ref.holds(prof.lastReport, prof.version)
		sh.mu.RUnlock()
		if !held {
			t.Errorf("%s after the save: resident %v, a ref at its state %v", uid, resident, ok)
		}
	}
}

// TestUncappedSaveIsTheSnapshot: without the spill tier the checkpoint is the
// whole state: it loads back to ExportSnapshot's bytes.
func TestUncappedSaveIsTheSnapshot(t *testing.T) {
	clock := newTestClock()
	e, err := NewEngine([]*rules.Rule{jqRule(time.Hour)}, WithClock(clock.Now),
		WithGuard(GuardConfig{TripThreshold: 3, OpenFor: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		r := healthyReport(fmt.Sprintf("user-%02d", i))
		if i%2 == 0 {
			r = slowS1Report(r.UserID)
		}
		if _, err := e.HandleReport(r); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second)
	}
	e.QuarantineProvider("s2.net")
	path := statePathIn(t)
	if err := e.SaveStateFile(path); err != nil {
		t.Fatal(err)
	}
	want, err := e.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := NewEngine([]*rules.Rule{jqRule(time.Hour)}, WithClock(clock.Now),
		WithGuard(GuardConfig{TripThreshold: 3, OpenFor: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.LoadStateFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := loaded.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || !strings.Contains(string(got), `"guard"`) {
		t.Errorf("the saved state file loads back to other than ExportSnapshot:\n--- loaded\n%s\n--- snapshot\n%s", got, want)
	}
}

// TestCheckpointsUnderIngest: checkpoints race reports on a capped engine —
// rehydrations that keep their users' refs, evictions that replace them and
// the cleaner that moves them, from several goroutines at once, while saves
// append residents and capture the refs into the checkpoint's index — and a
// restart on the last checkpoint and the segment directory gives back the
// export the engine had when it stopped.
func TestCheckpointsUnderIngest(t *testing.T) {
	clock := newTestClock()
	dir, state := t.TempDir(), statePathIn(t)
	boot := func() *Engine {
		e, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now), WithShards(4),
			WithProfileResidency(ResidencyConfig{Dir: dir, MaxProfiles: 16, SegmentBytes: 2048}))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := boot()
	stop := make(chan struct{})
	saved := make(chan int)
	go func() {
		n := 0
		defer func() { saved <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.SaveStateFile(state); err != nil {
				t.Error(err)
				return
			}
			n++
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 400; i++ {
				clock.Advance(time.Millisecond)
				r := healthyReport(fmt.Sprintf("user-%03d", rng.Intn(120)))
				if rng.Intn(3) == 0 {
					r = slowS1Report(r.UserID)
				}
				if _, err := e.HandleReport(r); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	saves := <-saved
	if st, _ := e.SpillStatus(); saves < 2 || st.SegmentCompactions == 0 || st.Rehydrations == 0 {
		t.Fatalf("%d saves; tier %+v: want saves, rehydrations and compactions", saves, st)
	}
	want := mustExport(t, e)
	e.Close()
	if err := e.SaveStateFile(state); err != nil {
		t.Fatal(err)
	}
	e2 := boot()
	defer e2.Close()
	if _, err := e2.LoadStateFile(state); err != nil {
		t.Fatal(err)
	}
	if got := mustExport(t, e2); !bytes.Equal(got, want) {
		t.Errorf("export after the restart differs from the one before it (%d saves raced ingest)", saves)
	}
}
