package faultinject_test

// Chaos tests: drive the full Oak loop — client page loads and report
// submissions over a fault-injecting transport, into an origin server whose
// engine persists snapshots that get corrupted mid-run — and assert the
// system degrades instead of breaking: the server stays available, page
// delivery and ingest never deadlock, shed reports get truthful 503s, and a
// reboot over a corrupted snapshot recovers the last good state from the
// rotating backup. Run them with `make chaos` (go test -race -run Chaos).

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"oak"
	"oak/internal/core"
	"oak/internal/faultinject"
)

// chaosRule is a jquery-style swap rule so the engine has something to
// learn; the chaos assertions are about survival, not rule semantics.
func chaosRule(t *testing.T) *oak.Rule {
	t.Helper()
	rs, err := oak.ParseRulesJSON([]byte(`[{
		"id":"jquery","type":2,
		"default":"<script src=\"http://s1.com/jquery.js\"></script>",
		"alternatives":["<script src=\"http://s2.net/jquery.js\"></script>"],
		"scope":"*","ttlMillis":0
	}]`))
	if err != nil {
		t.Fatal(err)
	}
	return rs[0]
}

const chaosPage = `<html>
<script src="http://s1.com/jquery.js"></script>
<img src="http://a.example/a.png">
<img src="http://b.example/b.png">
<img src="http://c.example/c.png">
</html>`

// resolveTo maps every markup host to one test server.
func resolveTo(t *testing.T, ts *httptest.Server) oak.HostResolver {
	t.Helper()
	u, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return func(string) (string, bool) { return u.Host, true }
}

// TestChaosEndToEndSurvivesFaultsAndCorruption is the headline chaos run:
// 10% injected transport errors, 5% truncated bodies, a snapshot corrupted
// mid-run — the loop must complete (no deadlock), most page loads must
// succeed (client retries + partial reports), user state must survive into
// reports, and a reboot must recover the last good snapshot from the
// backup.
func TestChaosEndToEndSurvivesFaultsAndCorruption(t *testing.T) {
	content := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(make([]byte, 2048))
	}))
	defer content.Close()

	engine, err := oak.NewEngine([]*oak.Rule{chaosRule(t)},
		oak.WithAdmission(oak.Admission{MaxInFlight: 32, MaxWait: 20 * time.Millisecond}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	server := oak.NewServer(engine)
	server.SetPage("/index.html", chaosPage)
	origin := httptest.NewServer(server)
	defer origin.Close()

	faulty := &faultinject.Transport{
		Seed:         1234,
		ErrorRate:    0.10,
		TruncateRate: 0.05,
	}
	statePath := filepath.Join(t.TempDir(), "oak-state.json")

	const loads = 40
	var succeeded, failedEntries int
	var usersAtFirstSave int
	for i := 0; i < loads; i++ {
		c := &oak.Client{
			UserID:        fmt.Sprintf("chaos-user-%d", i%8),
			Resolve:       resolveTo(t, content),
			HTTP:          &http.Client{Transport: faulty, Timeout: 10 * time.Second},
			ObjectTimeout: 2 * time.Second,
			Retry:         oak.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
			Seed:          int64(i + 1),
		}
		res, _, err := c.LoadAndReport(origin.URL, "/index.html")
		if err == nil {
			succeeded++
			failedEntries += res.Report.FailedCount()
		}

		switch i {
		case 19:
			// First snapshot of what the engine has learned so far.
			if err := engine.SaveStateFile(statePath); err != nil {
				t.Fatalf("mid-run save: %v", err)
			}
			usersAtFirstSave = engine.Users()
		case 29:
			// Second save rotates the first into the backup; then the primary
			// is corrupted, as a disk fault would.
			if err := engine.SaveStateFile(statePath); err != nil {
				t.Fatalf("second save: %v", err)
			}
			if err := faultinject.CorruptFile(statePath, 99, faultinject.FlipBytes); err != nil {
				t.Fatalf("corrupt state: %v", err)
			}
		}
	}

	if succeeded < loads/2 {
		t.Errorf("only %d/%d page loads succeeded under 10%%/5%% faults", succeeded, loads)
	}
	st := faulty.Stats()
	if st.Errors == 0 || st.Truncated == 0 {
		t.Errorf("faults not exercised: %+v", st)
	}
	if failedEntries == 0 {
		t.Error("no partial reports seen: injected faults should surface as Failed entries")
	}
	if engine.Users() == 0 {
		t.Fatal("no user state learned during the chaos run")
	}
	if usersAtFirstSave == 0 {
		t.Fatal("no users at first save; chaos seed starved ingest entirely")
	}

	// Reboot over the corrupted primary: state must come back from the
	// rotating backup, not vanish and not abort boot.
	if err := engine.Close(); err != nil {
		t.Fatal(err)
	}
	rebooted, err := oak.NewEngine([]*oak.Rule{chaosRule(t)})
	if err != nil {
		t.Fatal(err)
	}
	src, err := rebooted.LoadStateFile(statePath)
	if err != nil {
		t.Fatalf("reboot over corrupted snapshot: %v", err)
	}
	if src != oak.StateBackup {
		t.Errorf("state source = %q, want backup (primary was corrupted)", src)
	}
	if got := rebooted.Users(); got != usersAtFirstSave {
		t.Errorf("recovered %d users, want %d (the backup snapshot)", got, usersAtFirstSave)
	}
	if _, n := rebooted.StateStatus(); n != 1 {
		t.Errorf("StateRecoveries = %d, want 1", n)
	}
}

// TestChaosShedsUnderSaturationWhilePagesServe wedges the one report the
// admission bound lets in flight, then asserts report ingest sheds with a
// truthful 503 + Retry-After while page delivery — the availability
// surface — keeps answering, including for the wedged user via the rewrite
// budget.
func TestChaosShedsUnderSaturationWhilePagesServe(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	fetcher := core.ScriptFetcherFunc(func(string) (string, error) {
		close(entered)
		<-release
		return "", nil
	})
	loader, err := oak.ParseRulesJSON([]byte(`[{
		"id":"loader","type":1,
		"default":"<script src=\"http://lib.example/loader.js\"></script>",
		"scope":"*","ttlMillis":0
	}]`))
	if err != nil {
		t.Fatal(err)
	}
	engine, err := oak.NewEngine(loader,
		oak.WithScriptFetcher(fetcher),
		oak.WithAdmission(oak.Admission{MaxInFlight: 1, MaxWait: 5 * time.Millisecond, RetryAfter: 3 * time.Second}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	defer close(release)

	server := oak.NewServer(engine, oak.WithRewriteBudget(50*time.Millisecond))
	server.SetPage("/index.html", "<html>alive</html>")
	origin := httptest.NewServer(server)
	defer origin.Close()

	// Take the one in-flight slot with a report that requires a script fetch.
	tier3 := `{"userId":"wedged","page":"/index.html","entries":[
	  {"url":"http://lib.example/loader.js","serverAddr":"ip-lib","sizeBytes":1024,"durationMillis":95,"kind":"script"},
	  {"url":"http://evil.example/p.png","serverAddr":"ip-evil","sizeBytes":1024,"durationMillis":2000},
	  {"url":"http://a.example/a.png","serverAddr":"ip-a","sizeBytes":1024,"durationMillis":100},
	  {"url":"http://b.example/b.png","serverAddr":"ip-b","sizeBytes":1024,"durationMillis":110}
	]}`
	filler := strings.Replace(tier3, "wedged", "filler", 1)
	blockRep, err := oak.UnmarshalReport([]byte(tier3))
	if err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = engine.HandleReport(blockRep) }()
	<-entered
	if depth, capacity := engine.IngestQueue(); depth != 1 || capacity != 1 {
		t.Fatalf("ingest depth=%d capacity=%d, want the bound saturated at 1/1", depth, capacity)
	}

	// Ingest sheds with the truth: 503 and the policy's Retry-After.
	resp, err := http.Post(origin.URL+oak.ReportPathV1, "application/json", strings.NewReader(filler))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("saturated ingest status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", got)
	}

	// A client that honours Retry-After gives up with the server's last
	// answer, not a hang.
	c := &oak.Client{Seed: 5, Retry: oak.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}}
	rep, err := oak.UnmarshalReport([]byte(filler))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitReport(origin.URL, rep); err == nil {
		t.Error("submit against saturated server: want error after retries")
	}

	// Page delivery keeps answering — for a fresh user instantly, and for
	// the wedged user within the rewrite budget (degraded, unmodified).
	for _, user := range []string{"fresh-user", "wedged"} {
		req, _ := http.NewRequest(http.MethodGet, origin.URL+"/index.html", nil)
		req.AddCookie(&http.Cookie{Name: oak.CookieName, Value: user})
		start := time.Now()
		presp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("page GET as %s: %v", user, err)
		}
		body, _ := io.ReadAll(presp.Body)
		presp.Body.Close()
		if presp.StatusCode != http.StatusOK || !strings.Contains(string(body), "alive") {
			t.Errorf("page as %s: status %d body %q", user, presp.StatusCode, body)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("page as %s took %v: availability lost", user, elapsed)
		}
	}
	if server.PagesDegraded() == 0 {
		t.Error("wedged user's page should have been served degraded")
	}

	// Healthz reports degraded, not a hang, while saturated.
	hresp, err := http.Get(origin.URL + oak.HealthzPathV1)
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if !strings.Contains(string(hbody), "degraded") {
		t.Errorf("healthz while saturated = %s, want degraded", hbody)
	}
}

// TestChaosRebootLoop restarts an engine repeatedly under alternating
// snapshot damage and asserts boot always succeeds and state never falls
// back further than the last good save.
func TestChaosRebootLoop(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "oak-state.json")
	rule := chaosRule(t)

	report := func(user string) *oak.Report {
		rep, err := oak.UnmarshalReport([]byte(fmt.Sprintf(`{"userId":%q,"page":"/","entries":[
		  {"url":"http://s1.com/jquery.js","serverAddr":"ip-s1","sizeBytes":1024,"durationMillis":2000},
		  {"url":"http://a.example/a.png","serverAddr":"ip-a","sizeBytes":1024,"durationMillis":100},
		  {"url":"http://b.example/b.png","serverAddr":"ip-b","sizeBytes":1024,"durationMillis":110},
		  {"url":"http://c.example/c.png","serverAddr":"ip-c","sizeBytes":1024,"durationMillis":95}
		]}`, user)))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	modes := []faultinject.CorruptMode{faultinject.Truncate, faultinject.FlipBytes, faultinject.Empty}
	users := 0
	for round := 0; round < 6; round++ {
		engine, err := oak.NewEngine([]*oak.Rule{rule})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := engine.LoadStateFile(statePath); err != nil {
			t.Fatalf("round %d: boot failed: %v", round, err)
		}
		if got := engine.Users(); got != users {
			t.Fatalf("round %d: booted with %d users, want %d", round, got, users)
		}
		if _, err := engine.HandleReport(report(fmt.Sprintf("user-%d", round))); err != nil {
			t.Fatal(err)
		}
		if err := engine.SaveStateFile(statePath); err != nil {
			t.Fatal(err)
		}
		users = engine.Users()

		if round%2 == 1 {
			// Damage the primary a different way each time; the next boot
			// must recover from the backup (one round's learning lost).
			if err := faultinject.CorruptFile(statePath, int64(round), modes[round%len(modes)]); err != nil {
				t.Fatal(err)
			}
			users-- // the backup predates this round's report
		}
	}
}
