package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

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
	bdata, err := os.ReadFile(path + BackupSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if err := fromBak.ImportState(bdata); err != nil {
		t.Fatal(err)
	}
	if fromBak.Users() != 0 {
		t.Errorf("backup has %d users, want the previous (empty) state", fromBak.Users())
	}
}
