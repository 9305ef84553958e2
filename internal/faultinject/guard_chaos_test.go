package faultinject_test

// Guard chaos: kill an alternate provider mid-run and assert the guard loop
// end to end — population-level reports trip the provider's breaker within a
// bounded number of reports, every user (reporters and non-reporters alike)
// is bulk-rolled-back to the default page, no new user is activated onto the
// dead provider while the breaker is open, re-admission happens only through
// half-open canaries, and an injected rewrite panic serves the unmodified
// page instead of a 500. Run with `make chaos` (go test -race -run Chaos).

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oak"
	"oak/internal/rules"
)

// chaosHost is one logical provider: an httptest server whose latency and
// liveness switch atomically mid-run.
type chaosHost struct {
	ts      *httptest.Server
	delayMs atomic.Int64
	dead    atomic.Bool
}

func newChaosHost(t *testing.T, delay time.Duration) *chaosHost {
	t.Helper()
	h := &chaosHost{}
	h.delayMs.Store(int64(delay / time.Millisecond))
	h.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Duration(h.delayMs.Load()) * time.Millisecond) // a slow host is slow in real time
		if h.dead.Load() {
			http.Error(w, "provider down", http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(make([]byte, 512))
	}))
	t.Cleanup(h.ts.Close)
	return h
}

func (h *chaosHost) addr(t *testing.T) string {
	t.Helper()
	u, err := url.Parse(h.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

const guardChaosPage = `<html>
<script src="http://s1.com/jquery.js"></script>
<img src="http://a.example/a.png">
<img src="http://b.example/b.png">
<img src="http://c.example/c.png">
</html>`

// guardChaosClient builds a client whose hosts resolve to the per-provider
// chaos servers.
func guardChaosClient(user string, seed int64, hosts map[string]string) *oak.Client {
	return &oak.Client{
		UserID: user,
		Resolve: func(host string) (string, bool) {
			addr, ok := hosts[host]
			return addr, ok
		},
		ObjectTimeout: 2 * time.Second,
		Retry:         oak.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		Seed:          seed,
	}
}

// pageAs fetches path from the origin as the given user and returns the body.
func pageAs(t *testing.T, originURL, user string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, originURL+"/index.html", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.AddCookie(&http.Cookie{Name: oak.CookieName, Value: user})
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("page as %s: status %d", user, resp.StatusCode)
	}
	return string(body)
}

func TestChaosGuardKillsAlternateMidRun(t *testing.T) {
	// Logical providers. s1.com is the chronically slow default, s2.net the
	// fast alternate that dies mid-run; bystanders have staggered delays so
	// the MAD criterion has spread to work with.
	s1 := newChaosHost(t, 60*time.Millisecond)
	s2 := newChaosHost(t, 5*time.Millisecond)
	bystA := newChaosHost(t, 5*time.Millisecond)
	bystB := newChaosHost(t, 10*time.Millisecond)
	bystC := newChaosHost(t, 15*time.Millisecond)
	hosts := map[string]string{
		"s1.com":    s1.addr(t),
		"s2.net":    s2.addr(t),
		"a.example": bystA.addr(t),
		"b.example": bystB.addr(t),
		"c.example": bystC.addr(t),
	}

	var skew atomic.Int64 // the clock jumps past the cool-down instead of waiting it out
	engine, err := oak.NewEngine([]*oak.Rule{chaosRule(t)},
		oak.WithClock(func() time.Time { return time.Now().Add(time.Duration(skew.Load())) }),
		oak.WithGuard(oak.GuardConfig{
			TripThreshold:    3,
			OpenFor:          150 * time.Millisecond,
			HalfOpenCanaries: 1,
			CloseAfter:       1,
			PanicThreshold:   2,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	server := oak.NewServer(engine)
	server.SetPage("/index.html", guardChaosPage)
	origin := httptest.NewServer(server)
	defer origin.Close()

	users := []string{"u0", "u1", "u2", "u3", "u4", "u5"}
	load := func(user string, seed int64) {
		t.Helper()
		c := guardChaosClient(user, seed, hosts)
		if _, _, err := c.LoadAndReport(origin.URL, "/index.html"); err != nil {
			t.Fatalf("load as %s: %v", user, err)
		}
	}

	// activate posts, under user's cookie, the report of a load that found
	// s1.com slow and the page's other hosts fast. Its timings are fixed, so
	// an activation does not rest on how fast a loaded host serves the
	// sleeping providers.
	activate := func(user string) {
		t.Helper()
		body := fmt.Sprintf(`{"userId":%q,"page":"/index.html","entries":[
		  {"url":"http://s1.com/jquery.js","serverAddr":%q,"sizeBytes":512,"durationMillis":3000,"kind":"script"},
		  {"url":"http://a.example/a.png","serverAddr":%q,"sizeBytes":512,"durationMillis":100,"kind":"image"},
		  {"url":"http://b.example/b.png","serverAddr":%q,"sizeBytes":512,"durationMillis":110,"kind":"image"},
		  {"url":"http://c.example/c.png","serverAddr":%q,"sizeBytes":512,"durationMillis":95,"kind":"image"}
		]}`, user, hosts["s1.com"], hosts["a.example"], hosts["b.example"], hosts["c.example"])
		req, err := http.NewRequest(http.MethodPost, origin.URL+oak.ReportPathV1, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.AddCookie(&http.Cookie{Name: oak.CookieName, Value: user})
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("report as %s: status %d", user, resp.StatusCode)
		}
	}

	// Phase 1 — activate: every user reports the slow default and is moved
	// onto the s2.net alternate. Phases 2–4 load the page through real
	// clients.
	for _, u := range users {
		activate(u)
		if body := pageAs(t, origin.URL, u); !strings.Contains(body, "s2.net") {
			t.Fatalf("phase 1: %s not activated onto s2.net:\n%s", u, body)
		}
	}

	// Phase 2 — kill the alternate. Users keep browsing; their reports show
	// s2.net failing and must trip its breaker within a bounded number of
	// reports.
	s2.dead.Store(true)
	s2.delayMs.Store(25)
	const reportBudget = 8
	tripped := -1
	for i := 0; i < reportBudget; i++ {
		load(users[i%len(users)], int64(100+i))
		if breakers := engine.OpenBreakers(); len(breakers) == 1 && breakers[0] == "s2.net" {
			tripped = i + 1
			break
		}
	}
	if tripped < 0 {
		t.Fatalf("breaker never tripped within %d reports of killing s2.net", reportBudget)
	}
	t.Logf("breaker tripped after %d post-kill reports", tripped)
	if m := engine.Metrics(); m.BreakerTrips == 0 {
		t.Fatalf("trip metrics: trips=%d, want > 0", m.BreakerTrips)
	}
	// The rollback covers every user — including ones that never reported
	// after the kill — and each one's next report drops and counts it (phase
	// 3, once the canary has had its slot).
	for _, u := range users {
		if body := pageAs(t, origin.URL, u); strings.Contains(body, "s2.net") {
			t.Errorf("phase 2: %s still on dead s2.net after trip", u)
		}
	}

	// No new user is activated onto the dead provider while the breaker is
	// open.
	load("late-joiner", 777)
	if body := pageAs(t, origin.URL, "late-joiner"); strings.Contains(body, "s2.net") {
		t.Error("phase 2: late joiner activated onto an open breaker's provider")
	}
	if engine.Metrics().ActivationsBlocked == 0 {
		t.Error("phase 2: ActivationsBlocked = 0, want > 0")
	}

	// Phase 3 — revive and re-admit. After the cool-down the first activation
	// is a canary; its good outcome closes the breaker; then activation flows
	// freely again.
	s2.dead.Store(false)
	s2.delayMs.Store(5)
	skew.Add(int64(200 * time.Millisecond)) // past OpenFor

	load("canary-user", 888)
	if engine.Metrics().CanaryActivations == 0 {
		t.Fatal("phase 3: no canary activation after cool-down")
	}
	if body := pageAs(t, origin.URL, "canary-user"); !strings.Contains(body, "s2.net") {
		t.Fatal("phase 3: canary user not activated")
	}
	// The canary browses the rewritten page: the healthy alternate outcome
	// closes the breaker. (OpenBreakers is already empty here — half-open is
	// not open — so watch the close counter.)
	deadline := time.Now().Add(3 * time.Second)
	for i := 0; engine.Metrics().BreakerCloses == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("phase 3: breaker never closed after good canary outcomes")
		}
		load("canary-user", int64(900+i))
	}
	if got := engine.OpenBreakers(); len(got) != 0 {
		t.Errorf("phase 3: OpenBreakers = %v after close", got)
	}
	load("post-recovery-user", 999)
	if body := pageAs(t, origin.URL, "post-recovery-user"); !strings.Contains(body, "s2.net") {
		t.Error("phase 3: activation still blocked after breaker closed")
	}
	for i, u := range users {
		load(u, int64(300+i))
	}
	if m := engine.Metrics(); m.BulkDeactivations == 0 {
		t.Errorf("phase 3: BulkDeactivations = 0 after every user reported again, want > 0")
	}

	// Phase 4 — rewrite panic isolation: a poisoned rule serves the
	// unmodified page (HTTP 200), never a 500, and repeated panics quarantine
	// the rule.
	rules.SetApplyFailpoint(func(ruleID string) bool { return ruleID == "jquery" })
	defer rules.SetApplyFailpoint(nil)
	for i := 0; i < 2; i++ {
		body := pageAs(t, origin.URL, "canary-user") // asserts status 200
		if !strings.Contains(body, "s1.com") || strings.Contains(body, "s2.net") {
			t.Fatalf("phase 4: panicking rewrite did not serve the unmodified page:\n%s", body)
		}
	}
	if engine.Metrics().RewritePanics == 0 {
		t.Error("phase 4: RewritePanics = 0, want > 0")
	}
	st, ok := engine.GuardStatus()
	if !ok {
		t.Fatal("GuardStatus not ok")
	}
	if len(st.QuarantinedRules) != 1 || st.QuarantinedRules[0] != "jquery" {
		t.Errorf("phase 4: QuarantinedRules = %v, want [jquery]", st.QuarantinedRules)
	}
	// With the rule quarantined the failpoint no longer fires (the rule is
	// skipped entirely once its activations roll back).
	rules.SetApplyFailpoint(nil)
	if body := pageAs(t, origin.URL, "canary-user"); strings.Contains(body, "s2.net") {
		t.Fatal("phase 4: quarantined rule's activations were not rolled back")
	}
}

// TestChaosProberTripsDeadProvider drives the active prober against a dead
// alternate: with no reports at all, probe failures through the normal client
// transport trip the provider's breaker.
func TestChaosProberTripsDeadProvider(t *testing.T) {
	s2 := newChaosHost(t, time.Millisecond)
	s2.dead.Store(true)

	engine, err := oak.NewEngine([]*oak.Rule{chaosRule(t)},
		oak.WithGuard(oak.GuardConfig{TripThreshold: 2}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()

	addr := s2.addr(t)
	tripped, once := make(chan struct{}), sync.Once{}
	prober := &oak.Prober{
		Targets: engine.AlternateProviders,
		Report: func(provider string, good bool, deltaMs float64) {
			engine.ObserveProviderOutcome(provider, good, deltaMs)
			if breakers := engine.OpenBreakers(); len(breakers) == 1 && breakers[0] == "s2.net" {
				once.Do(func() { close(tripped) })
			}
		},
		Interval: 10 * time.Millisecond,
		Resolve: func(host string) (string, bool) {
			if host == "s2.net" {
				return addr, true
			}
			return "", false
		},
	}
	prober.Start()
	defer prober.Stop()

	select {
	case <-tripped:
	case <-time.After(5 * time.Second):
		t.Fatalf("prober never tripped the dead provider; breakers = %v, metrics = %+v",
			engine.OpenBreakers(), engine.Metrics())
	}
	if engine.Metrics().BreakerTrips == 0 {
		t.Error("BreakerTrips = 0 after prober trip")
	}
	// A user who violates onto the probed-dead provider is not activated.
	res, err := engine.HandleReport(mustReport(t, fmt.Sprintf(`{"userId":%q,"page":"/","entries":[
	  {"url":"http://s1.com/jquery.js","serverAddr":"ip-s1","sizeBytes":1024,"durationMillis":2000},
	  {"url":"http://a.example/a.png","serverAddr":"ip-a","sizeBytes":1024,"durationMillis":100},
	  {"url":"http://b.example/b.png","serverAddr":"ip-b","sizeBytes":1024,"durationMillis":110},
	  {"url":"http://c.example/c.png","serverAddr":"ip-c","sizeBytes":1024,"durationMillis":95}
	]}`, "prober-victim")))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changes) != 0 {
		t.Errorf("user activated onto prober-tripped provider: %+v", res.Changes)
	}
}

func mustReport(t *testing.T, raw string) *oak.Report {
	t.Helper()
	rep, err := oak.UnmarshalReport([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}
