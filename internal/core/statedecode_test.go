package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"oak/internal/rules"
	"oak/internal/seglog"
	"oak/internal/wire"
)

// The state payload has two readers (decodeState states the contract). These
// tests pin them to each other from both sides: whatever the fast reader
// accepts, encoding/json accepts and reads to the same value
// (FuzzDecodeStateEquivalence, with one hand-written row per construct the
// reader must not take); and whatever the engine writes, the fast reader
// takes (TestStateFilesStayOnTheFastReader), at a pinned allocation cost
// (TestStateDecodeAllocs, TestSegmentWalkAllocs).

// stateRow is one payload: punt is "" when the fast reader must take it, and
// otherwise a fragment of the reason it must give for leaving it to
// encoding/json.
type stateRow struct {
	name, payload, punt string
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
	// What the reader takes.
	{"empty profiles array", `{"version":1,"savedAt":"2026-01-01T00:00:00Z","profiles":[]}`, ""},
	{"empty violations and active", onePro(`{"userId":"u","violations":{},"active":[]}`), ""},
	{"absent violations and active", onePro(`{"userId":"u"}`), ""},
	{"profiles before version", `{"profiles":[{"userId":"u","version":7}],"version":1}`, ""},
	{"duplicate server in violations", onePro(`{"userId":"u","violations":{"a.example":1,"b.example":5,"a.example":2}}`), ""},
	{"escaped server in violations", onePro(`{"userId":"u","violations":{"a\u002eexample\/\n":1}}`), ""},
	{"negative counter", onePro(`{"userId":"u","violations":{"a.example":-3}}`), ""},
	{"offset time", onePro(`{"userId":"u","lastReport":"2026-01-01T02:00:00.123456789+02:00"}`), ""},
	{"every activation field", oneAct(`"altIndex":2,"expiresAt":"2026-01-01T01:00:00Z","triggerServer":"ip-s1.com","triggerDistance":1895.25,"activations":3,"synthesized":true`), ""},
	{"exponent in a float field", oneAct(`"altIndex":0,"triggerDistance":1.5e-3,"activations":1`), ""},
	{"negative zero in a float field", oneAct(`"altIndex":0,"triggerDistance":-0,"activations":1`), ""},
	{"seventeen-digit float", oneAct(`"altIndex":0,"triggerDistance":0.30000000000000004,"activations":1`), ""},
	{"non-ASCII user", onePro(`{"userId":"Zoë","violations":{"bücher.example":1}}`), ""},
	{"escaped user", onePro(`{"userId":"a\"b\\c\u00e9"}`), ""},
	{"version zero spelled out", onePro(`{"userId":"u","version":0}`), ""},
	{"whitespace in every legal position", " \t\r\n{ \"version\" : 1 , \"profiles\" : [ { \"userId\" : \"u\" , \"violations\" : { \"a\" : 1 , \"b\" : 2 } , \"active\" : [ { \"ruleId\" : \"r\" , \"altIndex\" : 0 , \"activatedAt\" : \"2026-01-01T00:00:00Z\" , \"activations\" : 1 , \"synthesized\" : false } , { \"ruleId\" : \"s\" , \"altIndex\" : 1 , \"activatedAt\" : \"2026-01-01T00:00:00Z\" , \"activations\" : 2 } ] , \"lastReport\" : \"2026-01-01T00:00:00Z\" , \"version\" : 3 } , { \"userId\" : \"v\" } ] , \"savedAt\" : \"2026-01-01T00:00:00Z\" } \n", ""},
	{"guard and population sections", `{"version":1,"savedAt":"2026-01-01T00:00:00Z","range":{"lo":5,"hi":4000000000},"profiles":[{"userId":"u"}],"guard":{"breakers":[{"provider":"s2.net","state":"open","trips":1,"profiles":"[not the array]"}]},"population":{"degraded":[{"provider":"s1.com","profiles":[1,2,{"profiles":[]}]}]}}`, ""},
	{"null profiles", `{"version":1,"profiles":null}`, ""},
	{"null profiles run into the next token", `{"version":1,"profiles":nullx}`, "malformed JSON"},
	{"envelope sections of the wrong type", `{"version":"one","profiles":[{"userId":"u"}]}`, "malformed outside the profiles array"},

	// What it leaves to encoding/json, one row per reason.
	{"unknown profile key", onePro(`{"userId":"u","extra":1}`), `non-canonical key "extra"`},
	{"unknown activation key", oneAct(`"altIndex":0,"activations":1,"why":"x"`), `non-canonical key "why"`},
	{"unknown top-level key", `{"version":1,"profiles":[],"shards":8}`, `non-canonical key "shards"`},
	{"duplicate profile key", onePro(`{"userId":"a","userId":"b"}`), `duplicate key "userId"`},
	{"duplicate activation key", oneAct(`"altIndex":0,"altIndex":1,"activations":1`), `duplicate key "altIndex"`},
	{"profiles twice", `{"version":1,"profiles":[{"userId":"a"}],"profiles":[{"userId":"b"}]}`, `duplicate key "profiles"`},
	{"version twice", `{"version":9,"profiles":[],"version":1}`, `duplicate key "version"`},
	{"case-variant profile key", onePro(`{"UserID":"u"}`), `non-canonical key "UserID"`},
	{"case-variant top-level key", `{"version":1,"Profiles":[{"userId":"u"}]}`, `non-canonical key "Profiles"`},
	{"key spelled with an escape", onePro(`{"user\u0049d":"u"}`), `non-canonical key "user\u0049d"`},
	{"no profiles array", `{"version":1}`, "no profiles array"},
	{"null profile", `{"version":1,"profiles":[null]}`, `null "profile"`},
	{"null user", onePro(`{"userId":null}`), `null "userId"`},
	{"null violations", onePro(`{"userId":"u","violations":null}`), `null "violations"`},
	{"null counter", onePro(`{"userId":"u","violations":{"a":null}}`), `null "violations"`},
	{"null active", onePro(`{"userId":"u","active":null}`), `null "active"`},
	{"null activation", onePro(`{"userId":"u","active":[null]}`), `null "activation"`},
	{"null time", onePro(`{"userId":"u","lastReport":null}`), `null "lastReport"`},
	{"null version", onePro(`{"userId":"u","version":null}`), `null "version"`},
	{"null bool", oneAct(`"altIndex":0,"activations":1,"synthesized":null`), `null "synthesized"`},
	{"null float", oneAct(`"altIndex":0,"activations":1,"triggerDistance":null`), `null "triggerDistance"`},
	{"surrogate escape", onePro(`{"userId":"\ud83d\ude00"}`), `"userId" value outside the fast subset`},
	{"lone surrogate escape", onePro(`{"userId":"\ud83d"}`), `"userId" value outside the fast subset`},
	{"invalid UTF-8", onePro("{\"userId\":\"a\xffb\"}"), `"userId" value outside the fast subset`},
	{"invalid UTF-8 server", onePro("{\"userId\":\"u\",\"violations\":{\"\xc3\x28\":1}}"), "non-canonical key"},
	{"non-ASCII beside an escape", onePro(`{"userId":"Zo\u00eb ë"}`), `"userId" value outside the fast subset`},
	{"control character", onePro("{\"userId\":\"a\tb\"}"), `"userId" value outside the fast subset`},
	{"invalid escape", onePro(`{"userId":"a\qb"}`), `"userId" value outside the fast subset`},
	{"exponent in an integer field", oneAct(`"altIndex":1e2,"activations":1`), `"altIndex" value outside the fast subset`},
	{"fraction in an integer field", oneAct(`"altIndex":0,"activations":1.0`), `"activations" value outside the fast subset`},
	{"fraction in a counter", onePro(`{"userId":"u","violations":{"a":1.5}}`), `"violations" value outside the fast subset`},
	{"integer out of range", oneAct(`"altIndex":99999999999999999999,"activations":1`), `"altIndex" value outside the fast subset`},
	{"version near overflow", onePro(`{"userId":"u","version":18446744073709551615}`), `"version" value outside the fast subset`},
	{"negative version", onePro(`{"userId":"u","version":-1}`), `"version" value outside the fast subset`},
	{"negative zero version", onePro(`{"userId":"u","version":-0}`), `"version" value outside the fast subset`},
	{"fractional version", onePro(`{"userId":"u","version":1.0}`), `"version" value outside the fast subset`},
	{"leading zeros", oneAct(`"altIndex":01,"activations":1`), `"altIndex" value outside the fast subset`},
	{"leading zeros in a float", oneAct(`"altIndex":0,"activations":1,"triggerDistance":01.5`), `"triggerDistance" value outside the fast subset`},
	{"float out of range", oneAct(`"altIndex":0,"activations":1,"triggerDistance":1e999`), `"triggerDistance" value outside the fast subset`},
	{"string for a number", oneAct(`"altIndex":"0","activations":1`), `"altIndex" value outside the fast subset`},
	{"number for a bool", oneAct(`"altIndex":0,"activations":1,"synthesized":1`), `"synthesized" value outside the fast subset`},
	{"number for a string", onePro(`{"userId":7}`), `"userId" value outside the fast subset`},
	{"lower-case t in a time", onePro(`{"userId":"u","lastReport":"2026-01-01t00:00:00Z"}`), `"lastReport" value outside the fast subset`},
	{"time without a zone", onePro(`{"userId":"u","lastReport":"2026-01-01T00:00:00"}`), `"lastReport" value outside the fast subset`},
	{"escaped time", onePro(`{"userId":"u","lastReport":"2026-01-01T00:00:00\u005a"}`), `"lastReport" value outside the fast subset`},
	{"number for a time", onePro(`{"userId":"u","lastReport":1767225600}`), `"lastReport" value outside the fast subset`},
	{"object for profiles", `{"version":1,"profiles":{}}`, `"profiles" value outside the fast subset`},
	{"array for a profile", `{"version":1,"profiles":[[]]}`, `"profile" value outside the fast subset`},
	{"array for violations", onePro(`{"userId":"u","violations":[]}`), `"violations" value outside the fast subset`},
	{"trailing bytes", `{"version":1,"profiles":[]} x`, "trailing bytes"},
	{"second document", `{"version":1,"profiles":[]}{}`, "trailing bytes"},
	{"trailing comma in profiles", `{"version":1,"profiles":[{"userId":"u"},]}`, `"profile" value outside the fast subset`},
	{"trailing comma in a profile", onePro(`{"userId":"u",}`), "malformed object"},
	{"missing comma", onePro(`{"userId":"u" "version":1}`), "malformed JSON"},
	{"missing colon", onePro(`{"userId" "u"}`), "malformed object"},
	{"cut short", `{"version":1,"profiles":[{"userId":"u"`, "malformed JSON"},
	{"top-level array", `[]`, `"payload" value outside the fast subset`},
	{"top-level null", `null`, `null "payload"`},
	{"empty", ``, `"payload" value outside the fast subset`},
	{"mismatched bracket in a skipped section", `{"version":1,"guard":{"breakers":[}},"profiles":[]}`, "malformed outside the profiles array"},
	{"trailing garbage in a skipped scalar", `{"version":1"x","profiles":[]}`, "malformed outside the profiles array"},
}

// statePayload strips a state file's envelope, if it has one.
func statePayload(t testing.TB, data []byte) []byte {
	t.Helper()
	payload, err := unwrapSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// checkedInStateFiles are the payloads of the state files under testdata.
func checkedInStateFiles(t testing.TB) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, name := range []string{
		"testdata/pr18-files/state.json", "testdata/pr18-files/state.json.bak", "testdata/pr18-files/export.json",
		"testdata/pr20-files/state.json", "testdata/pr20-files/state.json.bak", "testdata/pr20-files/export.json",
		"testdata/own-files-export.json",
		"testdata/pr27-files/state.json", "testdata/pr27-files/state.json.bak", "testdata/pr27-files/export.json",
	} {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = statePayload(t, data)
	}
	return out
}

// busyEngineState is the snapshot of a capped engine that has seen
// everything a profile can carry: users with and without violations,
// activations with and without a TTL, on two alternatives, personal and
// synthesized, a tripped breaker, a quarantined rule, a population episode,
// and one user whose ID is not ASCII.
func busyEngineState(t testing.TB, users int) []byte {
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
	defer e.Close()
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
	e.QuarantineRule("fonts")
	// The whole snapshot, spilled users included: SaveStateFile's checkpoint
	// is its resident subset, by the same writer.
	data, err := e.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"guard"`, `"population"`, `"synthesized": true`, `"expiresAt": "2026`, `"expiresAt": "0001`, `"Zoë"`, `"ruleId": "fonts"`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("busy engine's snapshot has no %s", want)
		}
	}
	if st, _ := e.SpillStatus(); st.ProfilesSpilled == 0 {
		t.Fatalf("busy engine spilled nobody: %+v", st)
	}
	return data
}

// checkStateEquivalence is the differential: a payload the fast reader takes
// is one encoding/json takes, to a DeepEqual value — nil against empty slices
// and maps, time zones and all.
func checkStateEquivalence(t *testing.T, payload []byte) (punted string) {
	t.Helper()
	fast, why := decodeStateFast(payload)
	if fast == nil {
		if why == "" {
			t.Fatalf("the fast reader punted without a reason on %q", payload)
		}
		return why
	}
	if why != "" {
		t.Fatalf("the fast reader took the payload and gave a reason not to: %s", why)
	}
	var ref persistedState
	if err := json.Unmarshal(payload, &ref); err != nil {
		t.Fatalf("the fast reader took what encoding/json rejects (%v): %q", err, payload)
	}
	if !reflect.DeepEqual(fast, &ref) {
		t.Fatalf("the two readers disagree on %q:\nfast: %+v\njson: %+v", payload, *fast, ref)
	}
	return ""
}

func FuzzDecodeStateEquivalence(f *testing.F) {
	for _, payload := range checkedInStateFiles(f) {
		f.Add(payload)
	}
	f.Add(statePayload(f, busyEngineState(f, 40)))
	for _, row := range stateRows {
		f.Add([]byte(row.payload))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkStateEquivalence(t, payload)
	})
}

// TestStateRowsPuntWhereTheyMust holds each hand-written row to its side of
// the subset's border: the differential says the reader is never wrong, this
// says which constructs it declines and that it names them.
func TestStateRowsPuntWhereTheyMust(t *testing.T) {
	for _, row := range stateRows {
		t.Run(row.name, func(t *testing.T) {
			why := checkStateEquivalence(t, []byte(row.payload))
			switch {
			case row.punt == "" && why != "":
				t.Errorf("punted (%s) on a payload inside the subset", why)
			case row.punt != "" && why == "":
				t.Errorf("took a payload it must leave to encoding/json (%s)", row.punt)
			case !strings.Contains(why, row.punt):
				t.Errorf("punt reason %q, want it to name %q", why, row.punt)
			}
			// Through decodeState the row is whatever encoding/json makes of
			// it, and the reason travels with the state.
			if strings.TrimSpace(row.payload) == "" {
				return // decodeState refuses an empty file before either reader
			}
			var ref persistedState
			refErr := json.Unmarshal([]byte(row.payload), &ref)
			st, err := decodeState([]byte(row.payload))
			if (err != nil) != (refErr != nil || ref.Version != stateVersion) {
				t.Fatalf("decodeState error %v; encoding/json says %v, version %d", err, refErr, ref.Version)
			}
			if err != nil {
				return
			}
			if st.fallback != why {
				t.Errorf("state.fallback = %q, the reader said %q", st.fallback, why)
			}
			ref.fallback = why
			if !reflect.DeepEqual(st, &ref) {
				t.Errorf("decodeState = %+v, encoding/json = %+v", *st, ref)
			}
		})
	}
}

// TestStateFilesStayOnTheFastReader: every file an engine writes — at this
// commit or the two whose files are checked in — is decoded by the fast
// reader. One construct outside its subset in one profile would put the whole
// file back on encoding/json, several times slower, with nothing failing.
func TestStateFilesStayOnTheFastReader(t *testing.T) {
	files := checkedInStateFiles(t)
	own := t.TempDir()
	writeFormatFixture(t, own)
	for _, name := range []string{"state.json", "state.json.bak"} {
		data, err := os.ReadFile(filepath.Join(own, name))
		if err != nil {
			t.Fatal(err)
		}
		files["own-files/"+name] = data
	}
	files["busy 2,000-user capped snapshot"] = busyEngineState(t, 2000)

	zoe, err := NewEngine([]*rules.Rule{jqRule(0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zoe.HandleReport(slowS1Report("Zoë")); err != nil {
		t.Fatal(err)
	}
	if files["non-ASCII user, snapshot"], err = zoe.ExportSnapshot(); err != nil {
		t.Fatal(err)
	}
	// One half of the ring holds the user; the other exports "profiles": null.
	if files["non-ASCII user, lower half of the ring"], err = zoe.exportStateRange(HashRange{Lo: 0, Hi: 1 << 31}, true); err != nil {
		t.Fatal(err)
	}
	if files["non-ASCII user, upper half of the ring"], err = zoe.exportStateRange(HashRange{Lo: 1 << 31, Hi: 0}, true); err != nil {
		t.Fatal(err)
	}

	for name, data := range files {
		st, err := decodeState(data)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if st.fallback != "" {
			t.Errorf("%s fell back to encoding/json: %s", name, st.fallback)
		}
		checkStateEquivalence(t, statePayload(t, data))
	}
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

// TestStateDecodeAllocs gates what decoding one profile of a state file
// allocates: its user ID, its violations map and its share of the profiles
// slice. encoding/json's reflection made 6 allocations for the same profile.
func TestStateDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n = 1000
	payload, err := json.MarshalIndent(persistedState{Version: stateVersion, Profiles: allocProfiles(n)}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	perProfile := testing.AllocsPerRun(10, func() {
		st, err := decodeState(payload)
		if err != nil || st.fallback != "" || len(st.Profiles) != n {
			t.Fatalf("decodeState: %v, fallback %q", err, st.fallback)
		}
	}) / n
	t.Logf("%.2f allocs per decoded profile", perProfile)
	if perProfile > 4.5 {
		t.Errorf("decodeState allocs per profile = %.2f, want <= 4.5 (encoding/json: 6)", perProfile)
	}
}

// TestSegmentWalkAllocs gates what walking one record of a segment allocates
// now that every frame decodes into one scratch record: the strings of the
// user, the time and the server. A record of its own per frame made it 6.
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
		frames, end, err := walkSegment(seg)
		if err != nil || len(frames) != n || end != int64(len(seg)) {
			t.Fatalf("walkSegment: %d frames to offset %d of %d, %v", len(frames), end, len(seg), err)
		}
	}) / n
	t.Logf("%.2f allocs per walked record", perRecord)
	if perRecord > 3.5 {
		t.Errorf("walkSegment allocs per record = %.2f, want <= 3.5 (a record per frame: 6)", perRecord)
	}
}

// TestBootStatusSaysWhatTheDecodeDid: the boot status carries the decode's
// share of the load and, when encoding/json had to do it, the reason.
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
	// The same state as another program might write it: headerless, and the
	// user's key in another case.
	payload, err := src.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(dir, "foreign.json")
	if err := os.WriteFile(foreign, []byte(strings.Replace(string(payload), `"userId"`, `"UserID"`, 1)), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ path, fallback string }{
		{own, ""},
		{foreign, `non-canonical key "UserID"`},
	} {
		e, err := NewEngine([]*rules.Rule{jqRule(0)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.LoadStateFile(tc.path); err != nil {
			t.Fatal(err)
		}
		bs := e.BootStatus()
		if e.Users() != 1 || bs.Installed != 1 {
			t.Errorf("%s: %d users, %+v", tc.path, e.Users(), bs)
		}
		if bs.Decode <= 0 || bs.Decode > bs.Load {
			t.Errorf("%s: decode %v of load %v", tc.path, bs.Decode, bs.Load)
		}
		if (tc.fallback == "") != (bs.DecodeFallback == "") || !strings.Contains(bs.DecodeFallback, tc.fallback) {
			t.Errorf("%s: DecodeFallback = %q, want it to name %q", tc.path, bs.DecodeFallback, tc.fallback)
		}
	}
}
