package core

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"oak/internal/rules"
)

func TestExportImportRoundTrip(t *testing.T) {
	clock := newTestClock()
	e1, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.HandleReport(slowS1Report("u2")); err != nil {
		t.Fatal(err)
	}
	data, err := e1.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	// A fresh engine with the same rules imports the state and behaves
	// identically.
	e2, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.ImportState(data); err != nil {
		t.Fatal(err)
	}
	if e2.Users() != 2 {
		t.Errorf("Users = %d, want 2", e2.Users())
	}
	page := `<script src="http://s1.com/jquery.js">`
	out, _ := e2.ModifyPage("u1", "/index.html", page)
	if !strings.Contains(out, "s2.net") {
		t.Error("imported activation not applied")
	}
	snap, ok := e2.Snapshot("u2")
	if !ok || snap.Violations["ip-s1.com"] != 1 {
		t.Errorf("u2 snapshot = %+v", snap)
	}
}

func TestImportDropsUnknownRules(t *testing.T) {
	e1, _ := NewEngine([]*rules.Rule{jqRule(0)})
	if _, err := e1.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	data, err := e1.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	// The new deployment no longer has the jquery rule.
	other := &rules.Rule{ID: "other", Type: rules.TypeRemove, Default: "X", Scope: "*"}
	e2, _ := NewEngine([]*rules.Rule{other})
	if err := e2.ImportState(data); err != nil {
		t.Fatal(err)
	}
	snap, ok := e2.Snapshot("u1")
	if !ok {
		t.Fatal("profile lost")
	}
	if len(snap.ActiveRules) != 0 {
		t.Errorf("activation of removed rule survived: %v", snap.ActiveRules)
	}
	if snap.Violations["ip-s1.com"] != 1 {
		t.Error("violation counters lost")
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	e, _ := NewEngine(nil)
	if err := e.ImportState([]byte("{")); err == nil {
		t.Error("ImportState(bad json) = nil error")
	}
	if err := e.ImportState([]byte(`{"version":99}`)); err == nil {
		t.Error("ImportState(bad version) = nil error")
	}
	if err := e.ImportState([]byte(`{"version":1,"profiles":[{"userId":""}]}`)); err == nil {
		t.Error("ImportState(empty user id) = nil error")
	}
}

func TestImportReplacesExistingProfiles(t *testing.T) {
	e1, _ := NewEngine([]*rules.Rule{jqRule(0)})
	if _, err := e1.HandleReport(slowS1Report("old-user")); err != nil {
		t.Fatal(err)
	}
	empty := persistedState{Version: stateVersion}
	data, _ := json.Marshal(empty)
	if err := e1.ImportState(data); err != nil {
		t.Fatal(err)
	}
	if e1.Users() != 0 {
		t.Errorf("Users = %d after importing empty state, want 0", e1.Users())
	}
}

func TestExportDeterministic(t *testing.T) {
	clock := newTestClock()
	e, _ := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now))
	for _, u := range []string{"c", "a", "b"} {
		if _, err := e.HandleReport(slowS1Report(u)); err != nil {
			t.Fatal(err)
		}
	}
	d1, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if string(d1) != string(d2) {
		t.Error("ExportState not deterministic")
	}
	// Profiles sorted by user id in the envelope.
	var st persistedState
	if err := json.Unmarshal(d1, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Profiles) != 3 || st.Profiles[0].UserID != "a" || st.Profiles[2].UserID != "c" {
		t.Errorf("profiles not sorted: %+v", st.Profiles)
	}
}

// TestImportExportByteIdentityAcrossVersions: ImportState(ExportState()) gives
// the same bytes back whether the profiles carry versions (every export of
// this engine) or none (every export written before PR 21), and the unversioned
// one does not grow the field.
func TestImportExportByteIdentityAcrossVersions(t *testing.T) {
	clock := newTestClock()
	src, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	for i, uid := range []string{"u1", "u2", "u2", "u3", "u3", "u3"} {
		r := slowS1Report(uid)
		if i%2 == 1 {
			r = healthyReport(uid)
		}
		if _, err := src.HandleReport(r); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second)
	}
	versioned := mustExport(t, src)
	for uid, want := range map[string]uint64{"u1": 1, "u2": 2, "u3": 3} {
		if snap, _ := src.Snapshot(uid); snap.Version != want {
			t.Errorf("%s: version %d after %d reports", uid, snap.Version, want)
		}
	}
	old, err := os.ReadFile("testdata/pr20-files/export.json")
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"versioned": versioned, "unversioned": old} {
		if has := bytes.Contains(data, []byte(`"version": 3`)); has != (name == "versioned") {
			t.Fatalf("%s export: carries a profile version = %v", name, has)
		}
		st, err := decodeState(data)
		if err != nil {
			t.Fatal(err)
		}
		at := newTestClock()
		at.Advance(st.SavedAt.Sub(at.Now())) // the export stamps its own clock
		e, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(at.Now), WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ImportState(data); err != nil {
			t.Fatal(err)
		}
		if got := mustExport(t, e); !bytes.Equal(got, data) {
			t.Errorf("%s export changed across ImportState:\n--- got\n%s\n--- want\n%s", name, got, data)
		}
	}
}
