package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"oak/internal/report"
	"oak/internal/rules"
	"oak/internal/seglog"
	"oak/internal/wire"
)

// A state file is a checkpoint (statefile.go). These tests pin what the
// engine writes to what it reads back (TestEngineWritesCheckpoints), at a
// pinned allocation cost (TestStateDecodeAllocs, TestSegmentWalkAllocs), and
// any bytes at all, as the file or its backup, to a load or to the typed
// errors the backup fallback runs on (FuzzLoadCheckpoint). A file written
// before the state file was a checkpoint — OAKSNAP2 or headerless JSON — is
// read once by the migration, which reads it as ImportState reads the same
// bytes (FuzzDecodeStateEquivalence, TestStateRowsPuntWhereTheyMust).

// readCheckpoint is a checkpoint as the JSON state it holds: its header and
// every profile record, each decoded into its own copy — or, for a capped
// checkpoint, its header, its index frames left for indexFrames.
func readCheckpoint(t testing.TB, data []byte) *persistedState {
	t.Helper()
	st, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	var profiles []persistedProfile
	if st.index > 0 {
		return st // a capped checkpoint: its frames are the index
	}
	err = st.eachProfile(func(pp *persistedProfile) error {
		c := *pp
		c.Violations, c.Active = maps.Clone(pp.Violations), slices.Clone(pp.Active)
		profiles = append(profiles, c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Profiles, st.records = profiles, 0
	return st
}

// stateRow is one hand-written JSON state payload no writer of the engine
// produces. Each row once marked the border of a schema reader's subset, the
// "punts" of the test's name; each is now an input of the migration.
type stateRow struct {
	name, payload string
}

// onePro wraps the text of one profile object into a payload.
func onePro(profile string) string {
	return `{"version":1,"profiles":[` + profile + `]}`
}

// oneAct wraps the members of one activation object into a payload.
func oneAct(members string) string {
	return onePro(`{"userId":"u","active":[{"ruleId":"jquery","activatedAt":"2026-01-01T00:00:00Z",` + members + `}]}`)
}

// stateRows: new rows go at the end (fuzz seeds are named by position).
var stateRows = []stateRow{
	{"empty profiles array", `{"version":1,"savedAt":"2026-01-01T00:00:00Z","profiles":[]}`},
	{"empty violations and active", onePro(`{"userId":"u","violations":{},"active":[]}`)},
	{"absent violations and active", onePro(`{"userId":"u"}`)},
	{"profiles before version", `{"profiles":[{"userId":"u","version":7}],"version":1}`},
	{"duplicate server in violations", onePro(`{"userId":"u","violations":{"a.example":1,"b.example":5,"a.example":2}}`)},
	{"escaped server in violations", onePro(`{"userId":"u","violations":{"a\u002eexample\/\n":1}}`)},
	{"negative counter", onePro(`{"userId":"u","violations":{"a.example":-3}}`)},
	{"offset time", onePro(`{"userId":"u","lastReport":"2026-01-01T02:00:00.123456789+02:00"}`)},
	{"every activation field", oneAct(`"altIndex":2,"expiresAt":"2026-01-01T01:00:00Z","triggerServer":"ip-s1.com","triggerDistance":1895.25,"activations":3,"synthesized":true`)},
	{"exponent in a float field", oneAct(`"altIndex":0,"triggerDistance":1.5e-3,"activations":1`)},
	{"negative zero in a float field", oneAct(`"altIndex":0,"triggerDistance":-0,"activations":1`)},
	{"seventeen-digit float", oneAct(`"altIndex":0,"triggerDistance":0.30000000000000004,"activations":1`)},
	{"non-ASCII user", onePro(`{"userId":"Zoë","violations":{"bücher.example":1}}`)},
	{"escaped user", onePro(`{"userId":"a\"b\\c\u00e9"}`)},
	{"version zero spelled out", onePro(`{"userId":"u","version":0}`)},
	{"whitespace in every legal position", " \t\r\n{ \"version\" : 1 , \"profiles\" : [ { \"userId\" : \"u\" , \"violations\" : { \"a\" : 1 , \"b\" : 2 } , \"active\" : [ { \"ruleId\" : \"r\" , \"altIndex\" : 0 , \"activatedAt\" : \"2026-01-01T00:00:00Z\" , \"activations\" : 1 , \"synthesized\" : false } , { \"ruleId\" : \"s\" , \"altIndex\" : 1 , \"activatedAt\" : \"2026-01-01T00:00:00Z\" , \"activations\" : 2 } ] , \"lastReport\" : \"2026-01-01T00:00:00Z\" , \"version\" : 3 } , { \"userId\" : \"v\" } ] , \"savedAt\" : \"2026-01-01T00:00:00Z\" } \n"},
	{"guard and population sections", `{"version":1,"savedAt":"2026-01-01T00:00:00Z","range":{"lo":5,"hi":4000000000},"profiles":[{"userId":"u"}],"guard":{"breakers":[{"provider":"s2.net","state":"open","trips":1,"profiles":"[not the array]"}]},"population":{"degraded":[{"provider":"s1.com","profiles":[1,2,{"profiles":[]}]}]}}`},
	{"null profiles", `{"version":1,"profiles":null}`},
	{"null profiles run into the next token", `{"version":1,"profiles":nullx}`},
	{"envelope sections of the wrong type", `{"version":"one","profiles":[{"userId":"u"}]}`},

	{"unknown profile key", onePro(`{"userId":"u","extra":1}`)},
	{"unknown activation key", oneAct(`"altIndex":0,"activations":1,"why":"x"`)},
	{"unknown top-level key", `{"version":1,"profiles":[],"shards":8}`},
	{"duplicate profile key", onePro(`{"userId":"a","userId":"b"}`)},
	{"duplicate activation key", oneAct(`"altIndex":0,"altIndex":1,"activations":1`)},
	{"profiles twice", `{"version":1,"profiles":[{"userId":"a"}],"profiles":[{"userId":"b"}]}`},
	{"version twice", `{"version":9,"profiles":[],"version":1}`},
	{"case-variant profile key", onePro(`{"UserID":"u"}`)},
	{"case-variant top-level key", `{"version":1,"Profiles":[{"userId":"u"}]}`},
	{"key spelled with an escape", onePro(`{"user\u0049d":"u"}`)},
	{"no profiles array", `{"version":1}`},
	{"null profile", `{"version":1,"profiles":[null]}`},
	{"null user", onePro(`{"userId":null}`)},
	{"null violations", onePro(`{"userId":"u","violations":null}`)},
	{"null counter", onePro(`{"userId":"u","violations":{"a":null}}`)},
	{"null active", onePro(`{"userId":"u","active":null}`)},
	{"null activation", onePro(`{"userId":"u","active":[null]}`)},
	{"null time", onePro(`{"userId":"u","lastReport":null}`)},
	{"null version", onePro(`{"userId":"u","version":null}`)},
	{"null bool", oneAct(`"altIndex":0,"activations":1,"synthesized":null`)},
	{"null float", oneAct(`"altIndex":0,"activations":1,"triggerDistance":null`)},
	{"surrogate escape", onePro(`{"userId":"\ud83d\ude00"}`)},
	{"lone surrogate escape", onePro(`{"userId":"\ud83d"}`)},
	{"invalid UTF-8", onePro("{\"userId\":\"a\xffb\"}")},
	{"invalid UTF-8 server", onePro("{\"userId\":\"u\",\"violations\":{\"\xc3\x28\":1}}")},
	{"non-ASCII beside an escape", onePro(`{"userId":"Zo\u00eb ë"}`)},
	{"control character", onePro("{\"userId\":\"a\tb\"}")},
	{"invalid escape", onePro(`{"userId":"a\qb"}`)},
	{"exponent in an integer field", oneAct(`"altIndex":1e2,"activations":1`)},
	{"fraction in an integer field", oneAct(`"altIndex":0,"activations":1.0`)},
	{"fraction in a counter", onePro(`{"userId":"u","violations":{"a":1.5}}`)},
	{"integer out of range", oneAct(`"altIndex":99999999999999999999,"activations":1`)},
	{"version near overflow", onePro(`{"userId":"u","version":18446744073709551615}`)},
	{"negative version", onePro(`{"userId":"u","version":-1}`)},
	{"negative zero version", onePro(`{"userId":"u","version":-0}`)},
	{"fractional version", onePro(`{"userId":"u","version":1.0}`)},
	{"leading zeros", oneAct(`"altIndex":01,"activations":1`)},
	{"leading zeros in a float", oneAct(`"altIndex":0,"activations":1,"triggerDistance":01.5`)},
	{"float out of range", oneAct(`"altIndex":0,"activations":1,"triggerDistance":1e999`)},
	{"string for a number", oneAct(`"altIndex":"0","activations":1`)},
	{"number for a bool", oneAct(`"altIndex":0,"activations":1,"synthesized":1`)},
	{"number for a string", onePro(`{"userId":7}`)},
	{"lower-case t in a time", onePro(`{"userId":"u","lastReport":"2026-01-01t00:00:00Z"}`)},
	{"time without a zone", onePro(`{"userId":"u","lastReport":"2026-01-01T00:00:00"}`)},
	{"escaped time", onePro(`{"userId":"u","lastReport":"2026-01-01T00:00:00\u005a"}`)},
	{"number for a time", onePro(`{"userId":"u","lastReport":1767225600}`)},
	{"object for profiles", `{"version":1,"profiles":{}}`},
	{"array for a profile", `{"version":1,"profiles":[[]]}`},
	{"array for violations", onePro(`{"userId":"u","violations":[]}`)},
	{"trailing bytes", `{"version":1,"profiles":[]} x`},
	{"second document", `{"version":1,"profiles":[]}{}`},
	{"trailing comma in profiles", `{"version":1,"profiles":[{"userId":"u"},]}`},
	{"trailing comma in a profile", onePro(`{"userId":"u",}`)},
	{"missing comma", onePro(`{"userId":"u" "version":1}`)},
	{"missing colon", onePro(`{"userId" "u"}`)},
	{"cut short", `{"version":1,"profiles":[{"userId":"u"`},
	{"top-level array", `[]`},
	{"top-level null", `null`},
	{"empty", ``},
	{"mismatched bracket in a skipped section", `{"version":1,"guard":{"breakers":[}},"profiles":[]}`},
	{"trailing garbage in a skipped scalar", `{"version":1"x","profiles":[]}`},
}

// checkMigration is the migration's contract: payload, as a state file, loads
// exactly when ImportState takes the same bytes, to the same export, and is
// refused with the same typed error when it does not.
func checkMigration(t *testing.T, payload []byte) {
	t.Helper()
	if bytes.HasPrefix(payload, []byte(seglog.Magic)) {
		return // a checkpoint, not a migration: FuzzLoadCheckpoint's
	}
	clock := newTestClock()
	engine := func() *Engine {
		e, err := NewEngine([]*rules.Rule{jqRule(time.Hour)}, WithClock(clock.Now))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	imported, migrated := engine(), engine()
	ierr := imported.ImportState(payload)
	path := statePathIn(t)
	if err := os.WriteFile(path, payload, 0o600); err != nil {
		t.Fatal(err)
	}
	src, lerr := migrated.LoadStateFile(path)
	switch {
	case (ierr == nil) != (lerr == nil) || errors.Is(ierr, ErrStateVersion) != errors.Is(lerr, ErrStateVersion):
		t.Fatalf("ImportState: %v; the migration: %v", ierr, lerr)
	case lerr != nil:
		if !errors.Is(lerr, ErrCorruptState) && !errors.Is(lerr, ErrStateVersion) {
			t.Fatalf("the migration failed untyped: %v", lerr)
		}
	case src != StateSnapshot || !migrated.BootStatus().Migrated:
		t.Fatalf("the migration loaded from %q, boot status %+v", src, migrated.BootStatus())
	default:
		if got, want := mustExport(t, migrated), mustExport(t, imported); !bytes.Equal(got, want) {
			t.Fatalf("the migration and ImportState disagree on %q:\n--- migrated\n%s\n--- imported\n%s", payload, got, want)
		}
	}
}

// FuzzDecodeStateEquivalence holds the migration to ImportState on any bytes
// that are not a checkpoint.
func FuzzDecodeStateEquivalence(f *testing.F) {
	for _, data := range checkedInStateFiles(f) {
		f.Add(data)
	}
	f.Add(busyEngineState(f, 40))
	for _, row := range stateRows {
		f.Add([]byte(row.payload))
	}
	f.Fuzz(checkMigration)
}

// TestStateRowsPuntWhereTheyMust runs each hand-written row through the
// migration.
func TestStateRowsPuntWhereTheyMust(t *testing.T) {
	for _, row := range stateRows {
		t.Run(row.name, func(t *testing.T) {
			checkMigration(t, []byte(row.payload))
		})
	}
}

// checkedInStateFiles are the JSON state files and exports under testdata.
func checkedInStateFiles(t testing.TB) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, name := range []string{
		"testdata/pr18-files/state.json", "testdata/pr18-files/state.json.bak", "testdata/pr18-files/export.json",
		"testdata/pr20-files/state.json", "testdata/pr20-files/state.json.bak", "testdata/pr20-files/export.json",
		"testdata/own-files-export.json",
		"testdata/pr27-files/state.json", "testdata/pr27-files/state.json.bak", "testdata/pr27-files/export.json",
		"testdata/pr31-files/state.json", "testdata/pr33-files/state.json", "testdata/pr33-files/uncapped.json",
	} {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	return out
}

// busyEngine is a capped engine that has seen everything a profile can
// carry: users with and without violations, activations with and without a
// TTL, on two alternatives, personal and synthesized, a tripped breaker, a
// quarantined rule, a population episode, and one user whose ID is not
// ASCII.
func busyEngine(t testing.TB, users int) *Engine {
	t.Helper()
	clock := newTestClock()
	jq := jqRule(time.Hour, `<script src="http://s2.net/jquery.js">`, `<script src="http://s3.org/jquery.js">`)
	forever := &rules.Rule{
		ID: "fonts", Type: rules.TypeReplaceSame, Scope: "*",
		Default:      `<link href="http://a.example/font.css">`,
		Alternatives: []string{`<link href="http://fonts.example/font.css">`},
	}
	e, err := NewEngine([]*rules.Rule{jq, forever}, WithClock(clock.Now), WithShards(4),
		WithGuard(GuardConfig{TripThreshold: 3, OpenFor: time.Hour}),
		WithSynthesis(SynthesisConfig{Window: time.Minute}),
		WithProfileResidency(ResidencyConfig{Dir: t.TempDir(), MaxProfiles: max(4, users/10), SegmentBytes: 8 << 10}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	// A quarantine and its release before any report: the fonts activations
	// carry epoch 1, and the guard section the count.
	e.QuarantineRule("fonts")
	e.ReleaseRule("fonts")
	for i := 0; i < users; i++ {
		uid := fmt.Sprintf("user-%04d", i)
		if i == users/2 {
			uid = "Zoë"
		}
		r := healthyReport(uid)
		switch i % 4 {
		case 1:
			r = slowS1Report(uid) // jquery, with a TTL
		case 2:
			r = loadReport(uid, map[string]float64{ // fonts, no TTL
				"a.example": 2100, "s1.com": 100, "b.example": 110, "c.example": 105, "d.example": 95,
			})
		}
		if i == users*3/4 {
			e.MarkDegraded("s1.com") // from here healthy s1.com reports synthesize
		}
		if _, err := e.HandleReport(r); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second)
	}
	e.QuarantineProvider("s3.org")
	if st, _ := e.SpillStatus(); st.ProfilesSpilled == 0 {
		t.Fatalf("busy engine spilled nobody: %+v", st)
	}
	return e
}

// busyEngineState is the snapshot of a busy engine, spilled users included.
func busyEngineState(t testing.TB, users int) []byte {
	t.Helper()
	data, err := busyEngine(t, users).ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"guard"`, `"population"`, `"synthesized": true`, `"expiresAt": "2026`, `"expiresAt": "0001`, `"Zoë"`, `"ruleId": "fonts"`, `"epoch": 1`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("busy engine's snapshot has no %s", want)
		}
	}
	return data
}

// TestEngineWritesCheckpoints: every checkpoint an engine writes holds the
// state it was written from, to the byte of its JSON. An uncapped engine's
// holds its profiles, the guard and the population sections. A capped
// engine's — the own-files world's and its backup, a busy engine's — lies in
// its spill directory and holds the guard and population sections and an
// index entry for every user, and no profile record.
func TestEngineWritesCheckpoints(t *testing.T) {
	own := t.TempDir()
	writeFormatFixture(t, own)
	for _, name := range []string{checkpointName, checkpointName + BackupSuffix} {
		data, err := os.ReadFile(filepath.Join(own, "spill", name))
		if err != nil {
			t.Fatal(err)
		}
		if st := readCheckpoint(t, data); len(st.Profiles) != 0 || st.index == 0 {
			t.Errorf("own-files/%s: %d profiles, %d index frames; want none and some", name, len(st.Profiles), st.index)
		}
	}
	if _, err := os.Stat(filepath.Join(own, "state.json")); !os.IsNotExist(err) {
		t.Errorf("the capped world's state file is still there: %v", err)
	}

	busy := busyEngine(t, 2000)
	zoe, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(newTestClock().Now), WithGuard(GuardConfig{TripThreshold: 3, OpenFor: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zoe.HandleReport(slowS1Report("Zoë")); err != nil {
		t.Fatal(err)
	}
	zoe.QuarantineProvider("s3.org")
	for name, e := range map[string]*Engine{"busy capped engine": busy, "uncapped engine": zoe} {
		path := statePathIn(t)
		if err := e.SaveStateFile(path); err != nil {
			t.Fatal(err)
		}
		want, err := e.collectState(HashRange{}, false)
		if err != nil {
			t.Fatal(err)
		}
		if e.spill != nil {
			path, want.Profiles = filepath.Join(e.spill.cfg.Dir, checkpointName), nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got := readCheckpoint(t, data)
		got.SavedAt = want.SavedAt
		if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) || want.Guard == nil {
			t.Errorf("%s: the checkpoint holds\n%s\nwant\n%s", name, mustJSON(t, got), mustJSON(t, want))
		}
		if e.spill == nil {
			continue
		}
		frames, err := got.indexFrames()
		entries := 0
		for _, f := range frames {
			entries += f.nents()
		}
		if err != nil || entries != e.Users() {
			t.Errorf("%s: %d index entries (%v), %d users", name, entries, err, e.Users())
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// allocProfiles is n profiles that each carry one violation, a last-report
// time and a version.
func allocProfiles(n int) []persistedProfile {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	profiles := make([]persistedProfile, n)
	for i := range profiles {
		profiles[i] = persistedProfile{
			UserID:     fmt.Sprintf("user-%06d", i),
			Violations: map[string]int{"ip-s1.com": 1 + i%3},
			LastReport: at.Add(time.Duration(i) * time.Second),
			Version:    uint64(1 + i%5),
		}
	}
	return profiles
}

// TestStateDecodeAllocs gates what reading one profile of a checkpoint
// allocates before the profile is built: one copy of the record for its
// strings. encoding/json's reading of the same profile from a JSON state file
// made 6.
func TestStateDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n = 1000
	data, err := encodeCheckpoint(&persistedState{Version: stateVersion, Profiles: allocProfiles(n)}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	perProfile := testing.AllocsPerRun(10, func() {
		st, err := decodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		read := 0
		if err := st.eachProfile(func(*persistedProfile) error { read++; return nil }); err != nil || read != n {
			t.Fatalf("read %d of %d profiles: %v", read, n, err)
		}
	}) / n
	t.Logf("%.2f allocs per loaded profile", perProfile)
	if perProfile > 3.5 {
		t.Errorf("checkpoint allocs per loaded profile = %.2f, want <= 3.5", perProfile)
	}
}

// TestCheckpointLoadAllocs gates what a boot allocates per profile it loads
// from a checkpoint of 2,000 one-report users, every other one activated:
// engine, file read, decode and install. Each record becomes its profile in
// one pass — one copy of the record for its strings, and the profile takes
// the violations map its record was decoded into — for 5.54 allocations; the
// bound is that and 15 %. A profile built beside its record, its maps made
// empty and then filled and each string copied on its own, cost 8.05.
func TestCheckpointLoadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n = 2000
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	st := &persistedState{Version: stateVersion, Profiles: make([]persistedProfile, n)}
	for i := range st.Profiles {
		pp := &st.Profiles[i]
		*pp = persistedProfile{
			UserID:     fmt.Sprintf("user-%06d", i),
			Violations: map[string]int{"ip-s1.com": 1},
			LastReport: at.Add(time.Duration(i) * time.Millisecond),
			Version:    1,
		}
		if i%2 == 0 {
			pp.Active = []persistedActivation{{RuleID: "jquery", ActivatedAt: pp.LastReport, TriggerServer: "ip-s1.com", TriggerDistance: 4.5, Activations: 1}}
		}
	}
	data, err := encodeCheckpoint(st, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rs := []*rules.Rule{jqRule(0)}
	if err := rs[0].Compile(); err != nil {
		t.Fatal(err)
	}
	perProfile := testing.AllocsPerRun(5, func() {
		e, err := NewEngine(rs, WithShards(8))
		if err != nil {
			t.Fatal(err)
		}
		if src, err := e.LoadStateFile(path); err != nil || src != StateSnapshot || e.Users() != n {
			t.Fatalf("load: %v, %v, %d users", src, err, e.Users())
		}
	}) / n
	t.Logf("%.2f allocations per loaded profile", perProfile)
	if perProfile > 6.4 {
		t.Errorf("checkpoint load allocates %.2f per profile, want at most 6.4", perProfile)
	}
}

// TestSegmentWalkAllocs gates what walking one record of a segment allocates
// now that every frame decodes into one scratch record: one copy of the
// record for its strings, and the user's ID the frame keeps. A record of its
// own per frame made it 6.
func TestSegmentWalkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n = 1000
	seg := []byte(seglog.Magic)
	var rec []byte
	for _, pp := range allocProfiles(n) {
		rec = encodeSpillRecord(rec[:0], &pp)
		seg = wire.AppendFrame(seg, rec)
	}
	perRecord := testing.AllocsPerRun(10, func() {
		w, end, err := walkSegment(seg, nil)
		if frames := w.frames; err != nil || len(frames) != n || end != int64(len(seg)) {
			t.Fatalf("walkSegment: %d frames to offset %d of %d, %v", len(frames), end, len(seg), err)
		}
	}) / n
	t.Logf("%.2f allocs per walked record", perRecord)
	if perRecord > 3.5 {
		t.Errorf("walkSegment allocs per record = %.2f, want <= 3.5 (a record per frame: 6)", perRecord)
	}
}

// TestBootStatusSaysWhatTheDecodeDid: the boot status says when the state
// file was migrated — an OAKSNAP2 file, or headerless JSON as another program
// might write it, with the user's key in another case — and the next save
// writes a checkpoint, which the boot after it reads as one.
func TestBootStatusSaysWhatTheDecodeDid(t *testing.T) {
	dir := t.TempDir()
	src, err := NewEngine([]*rules.Rule{jqRule(0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	own := filepath.Join(dir, "own.json")
	if err := src.SaveStateFile(own); err != nil {
		t.Fatal(err)
	}
	snapshot, err := src.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := src.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{
		"snapshot.json": snapshot,
		"foreign.json":  []byte(strings.Replace(string(payload), `"userId"`, `"UserID"`, 1)),
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	boot := func(path string, migrated bool) *Engine {
		t.Helper()
		e, err := NewEngine([]*rules.Rule{jqRule(0)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.LoadStateFile(path); err != nil {
			t.Fatal(err)
		}
		if bs := e.BootStatus(); e.Users() != 1 || bs.Load <= 0 || bs.Migrated != migrated {
			t.Errorf("%s: %d users, %+v; want one, migrated = %v", path, e.Users(), bs, migrated)
		}
		return e
	}
	boot(own, false)
	for name := range files {
		path := filepath.Join(dir, name)
		if err := boot(path, true).SaveStateFile(path); err != nil {
			t.Fatal(err)
		}
		if data, _ := os.ReadFile(path); !bytes.HasPrefix(data, []byte(seglog.Magic)) {
			t.Errorf("%s: the save after the migration wrote %.20q, not a checkpoint", name, data)
		}
		boot(path, false)
	}
}

// FuzzLoadCheckpoint: any bytes as the state file, and as its backup, either
// load or fail with ErrCorruptState or ErrStateVersion — never a panic, never
// an untyped error — and a failed load leaves the engine's state as it was.
func FuzzLoadCheckpoint(f *testing.F) {
	var files [][]byte
	for _, e := range []*Engine{busyEngine(f, 40), fuzzLoadEngine(f)} {
		// The state file of a directory written before the checkpoint moved
		// into the spill directory, and the checkpoint there.
		st, err := e.collectState(HashRange{}, true)
		if err != nil {
			f.Fatal(err)
		}
		legacy, err := encodeCheckpoint(st, nil, 0)
		if err != nil {
			f.Fatal(err)
		}
		if err := e.SaveStateFile(filepath.Join(f.TempDir(), "state.json")); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(e.spill.cfg.Dir, checkpointName))
		if err != nil {
			f.Fatal(err)
		}
		files = append(files, legacy, data)
	}
	empty, err := encodeCheckpoint(&persistedState{Version: stateVersion}, nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	files = append(files, empty)
	for _, data := range files {
		f.Add(data, []byte(nil))
		f.Add(data[:len(data)-1], data)        // torn, with a good backup
		f.Add(data[:len(data)/2], []byte(nil)) // torn mid-file
		flipped := slices.Clone(data)
		flipped[len(flipped)/2] ^= 0x10
		f.Add(flipped, data[:len(seglog.Magic)+3]) // flipped, with a torn backup
		f.Add(data[:len(seglog.Magic)], data)      // the magic alone
	}
	f.Fuzz(func(t *testing.T, primary, backup []byte) {
		e := fuzzLoadEngine(t)
		before := mustExport(t, e)
		path := statePathIn(t)
		if err := os.WriteFile(path, primary, 0o600); err != nil {
			t.Fatal(err)
		}
		if len(backup) > 0 {
			if err := os.WriteFile(path+BackupSuffix, backup, 0o600); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.LoadStateFile(path); err != nil {
			if !errors.Is(err, ErrCorruptState) && !errors.Is(err, ErrStateVersion) {
				t.Fatalf("untyped load error: %v", err)
			}
			if after := mustExport(t, e); !bytes.Equal(after, before) {
				t.Fatalf("a failed load changed the state:\n--- before\n%s\n--- after\n%s", before, after)
			}
		}
	})
}

// fuzzLoadEngine is a capped engine holding three users, one of them
// spilled, on a fixed clock.
func fuzzLoadEngine(t testing.TB) *Engine {
	t.Helper()
	clock := newTestClock()
	e, err := NewEngine([]*rules.Rule{jqRule(time.Hour)}, WithClock(clock.Now), WithShards(2),
		WithProfileResidency(ResidencyConfig{Dir: t.TempDir(), MaxProfiles: 2}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	for _, uid := range []string{"u1", "u2", "u3"} {
		clock.Advance(time.Second)
		if _, err := e.HandleReport(slowS1Report(uid)); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestImportRefusesStringsNoRecordHolds: a profile whose user ID, server,
// rule ID or trigger server is longer than a spill record's strings may be,
// or whose record is over a frame, could never be read back from its record,
// so an import of it is ErrCorruptState before anything is touched.
func TestImportRefusesStringsNoRecordHolds(t *testing.T) {
	long := strings.Repeat("x", maxSpillStringLen+1)
	overFrame := map[string]int{}
	for _, srv := range longServers(17) {
		overFrame[srv] = 1
	}
	for name, pp := range map[string]persistedProfile{
		"record over a frame": {UserID: "u", Violations: overFrame},
		"user ID":             {UserID: long},
		"server":              {UserID: "u", Violations: map[string]int{long: 1}},
		"rule ID":             {UserID: "u", Active: []persistedActivation{{RuleID: long}}},
		"trigger server":      {UserID: "u", Active: []persistedActivation{{RuleID: "jquery", TriggerServer: long}}},
	} {
		payload, err := json.Marshal(persistedState{Version: stateVersion, Profiles: []persistedProfile{pp}})
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine([]*rules.Rule{jqRule(0)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.HandleReport(slowS1Report("before")); err != nil {
			t.Fatal(err)
		}
		if err := e.ImportState(payload); !errors.Is(err, ErrCorruptState) || e.Users() != 1 {
			t.Errorf("%s over %d bytes: ImportState = %v with %d users; want ErrCorruptState and the one user before it", name, maxSpillStringLen, err, e.Users())
		}
	}
}

// longServers is n distinct server addresses of maxSpillStringLen bytes each.
func longServers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%02d", i) + strings.Repeat("x", maxSpillStringLen-2)
	}
	return out
}

// TestProfileRecordStaysWithinAFrame: a client names the servers its reports
// flag, each up to 1 MiB, so seventeen reports of one user could take the
// user's record past a segment frame, and a checkpoint holding it would not
// load. Ingest drops the violation (and the activation) that would; the
// uncapped engine saves twice — the second rotating the first into the
// backup — and both files boot to its export.
func TestProfileRecordStaysWithinAFrame(t *testing.T) {
	slow := &rules.Rule{
		ID: "slow", Type: rules.TypeReplaceSame, Scope: "*",
		Default:      `<script src="http://slow.example/obj.js">`,
		Alternatives: []string{`<script src="http://fast.example/obj.js">`},
	}
	clock := newTestClock()
	e, err := NewEngine([]*rules.Rule{slow}, WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	for i, srv := range longServers(17) {
		r := loadReport("u", map[string]float64{"a.example": 100, "b.example": 110, "c.example": 105, "d.example": 95})
		r.Entries = append(r.Entries, report.Entry{
			URL: "http://slow.example/obj.js", ServerAddr: srv, SizeBytes: 1024, DurationMillis: 2000, Kind: report.KindScript,
		})
		if _, err := e.HandleReport(r); err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		clock.Advance(time.Second)
	}
	snap, _ := e.Snapshot("u")
	if n := len(snap.Violations); n == 0 || n >= 17 || len(snap.ActiveRules) != 1 {
		t.Fatalf("the user holds %d violating servers and %d activations; want some, not all 17, and one", n, len(snap.ActiveRules))
	}
	if size := e.shardFor("u").profiles["u"].estimateSize(); size > maxProfileSize {
		t.Fatalf("the profile's size estimate is %d, over %d", size, maxProfileSize)
	}
	want := mustExport(t, e)
	path := statePathIn(t)
	for range 2 {
		if err := e.SaveStateFile(path); err != nil {
			t.Fatal(err)
		}
	}
	for _, file := range []string{path, path + BackupSuffix} {
		boot, err := NewEngine([]*rules.Rule{slow}, WithClock(clock.Now))
		if err != nil {
			t.Fatal(err)
		}
		if src, err := boot.LoadStateFile(file); err != nil || src != StateSnapshot {
			t.Fatalf("%s: LoadStateFile = %q, %v", filepath.Base(file), src, err)
		}
		if got := mustExport(t, boot); !bytes.Equal(got, want) {
			t.Errorf("%s: booted to another export", filepath.Base(file))
		}
	}
}

// TestNoRecordOverAFrameIsWritten: a profile whose record is over a frame is
// refused by the activation that would make it and by the checkpoint encoder
// (an import: TestImportRefusesStringsNoRecordHolds), so no save installs a
// file no load reads.
func TestNoRecordOverAFrameIsWritten(t *testing.T) {
	long := longServers(17)
	full := newProfile("u")
	for _, srv := range long[:15] {
		if _, ok := full.recordViolation(srv); !ok {
			t.Fatalf("the profile is full at %d servers", len(full.violations))
		}
	}
	if a := full.activate(jqRule(0), 0, 0, time.Now(), long[15], 1); a != nil || len(full.active) != 0 {
		t.Errorf("an activation with a 1 MiB trigger server took the profile to %d bytes", full.estimateSize())
	}
	if a := full.activate(jqRule(0), 0, 0, time.Now(), "s", 1); a == nil {
		t.Errorf("an activation the profile has room for was refused")
	}

	pp := persistedProfile{UserID: "u", Violations: map[string]int{}}
	for _, srv := range long {
		pp.Violations[srv] = 1
	}
	if _, err := encodeCheckpoint(&persistedState{Version: stateVersion, Profiles: []persistedProfile{pp}}, nil, 0); err == nil {
		t.Error("encodeCheckpoint wrote a record over a frame")
	}
}

// TestCheckpointDamageIsCorrupt: every way a checkpoint can be wrong whole
// frame for whole frame — a record short or one too many at a frame
// boundary, where no checksum can tell — or torn, flipped or from a future
// format, fails the load with its typed error and leaves the engine as it was.
func TestCheckpointDamageIsCorrupt(t *testing.T) {
	src, err := NewEngine([]*rules.Rule{jqRule(time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	for _, uid := range []string{"u1", "u2", "u3"} {
		if _, err := src.HandleReport(slowS1Report(uid)); err != nil {
			t.Fatal(err)
		}
	}
	path := statePathIn(t)
	if err := src.SaveStateFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int
	var last []byte
	if _, err := seglog.Walk(data, func(payload []byte, off int64, n int) error {
		ends, last = append(ends, int(off)+n), payload
		return nil
	}); err != nil || len(ends) < 3 {
		t.Fatalf("%d frames: %v", len(ends), err)
	}
	future, err := encodeCheckpoint(&persistedState{Version: stateVersion + 1}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	flipped := slices.Clone(data)
	flipped[ends[1]+3] ^= 0x01
	for name, tc := range map[string]struct {
		data []byte
		want error
	}{
		"a record short":    {data[:ends[len(ends)-2]], ErrCorruptState},
		"a record too many": {wire.AppendFrame(slices.Clone(data), last), ErrCorruptState},
		"the header alone":  {data[:ends[0]], ErrCorruptState},
		"the magic alone":   {data[:len(seglog.Magic)], ErrCorruptState},
		"torn":              {data[:len(data)-1], ErrCorruptState},
		"trailing byte":     {append(slices.Clone(data), 0), ErrCorruptState},
		"flipped":           {flipped, ErrCorruptState},
		"a future version":  {future, ErrStateVersion},
	} {
		e := fuzzLoadEngine(t)
		before := mustExport(t, e)
		if err := os.WriteFile(path, tc.data, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := e.LoadStateFile(path); !errors.Is(err, tc.want) {
			t.Errorf("%s: LoadStateFile = %v, want %v", name, err, tc.want)
		}
		if after := mustExport(t, e); !bytes.Equal(after, before) {
			t.Errorf("%s: the failed load changed the state", name)
		}
	}
}
