package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"oak/internal/report"
	"oak/internal/rules"
)

// testClock is a controllable time source.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock {
	return &testClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// jqRule is the paper's example rule: identical jquery on an alternate host.
func jqRule(ttl time.Duration, alts ...string) *rules.Rule {
	if len(alts) == 0 {
		alts = []string{`<script src="http://s2.net/jquery.js">`}
	}
	return &rules.Rule{
		ID:           "jquery",
		Type:         rules.TypeReplaceSame,
		Default:      `<script src="http://s1.com/jquery.js">`,
		Alternatives: alts,
		TTL:          ttl,
		Scope:        "*",
	}
}

// loadReport builds a report where serverTimes maps host -> mean small time.
// Every host resolves to an address "ip-<host>".
func loadReport(user string, serverTimes map[string]float64) *report.Report {
	r := &report.Report{UserID: user, Page: "/index.html"}
	for host, ms := range serverTimes {
		r.Entries = append(r.Entries, report.Entry{
			URL:            fmt.Sprintf("http://%s/obj.js", host),
			ServerAddr:     "ip-" + host,
			SizeBytes:      1024,
			DurationMillis: ms,
			Kind:           report.KindScript,
		})
	}
	return r
}

// slowS1Report: s1.com badly under-performs four healthy peers.
func slowS1Report(user string) *report.Report {
	return loadReport(user, map[string]float64{
		"s1.com":    2000,
		"a.example": 100,
		"b.example": 110,
		"c.example": 105,
		"d.example": 95,
	})
}

func TestEngineActivatesOnViolation(t *testing.T) {
	clock := newTestClock()
	e, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.HandleReport(slowS1Report("u1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 || res.Violations[0].Server.Addr != "ip-s1.com" {
		t.Fatalf("violations = %+v, want ip-s1.com", res.Violations)
	}
	if len(res.Changes) != 1 || res.Changes[0].Action != "activate" || res.Changes[0].RuleID != "jquery" {
		t.Fatalf("changes = %+v, want jquery activate", res.Changes)
	}
	if res.Changes[0].Level != MatchDirect {
		t.Errorf("match level = %v, want direct", res.Changes[0].Level)
	}

	page := `<html><script src="http://s1.com/jquery.js"></script></html>`
	out, applied := e.ModifyPage("u1", "/index.html", page)
	if !strings.Contains(out, "s2.net") || strings.Contains(out, "s1.com") {
		t.Errorf("page not rewritten: %q", out)
	}
	if len(applied) != 1 || applied[0].Replacements != 1 {
		t.Errorf("applied = %+v", applied)
	}
}

func TestEnginePerUserIsolation(t *testing.T) {
	e, err := NewEngine([]*rules.Rule{jqRule(0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	page := `<script src="http://s1.com/jquery.js">`
	// u1 gets the rewrite; u2 (never reported) gets the default page.
	out1, _ := e.ModifyPage("u1", "/index.html", page)
	out2, _ := e.ModifyPage("u2", "/index.html", page)
	if !strings.Contains(out1, "s2.net") {
		t.Error("u1 page not rewritten")
	}
	if out2 != page {
		t.Error("u2 page modified despite no reports — per-user isolation broken")
	}
}

func TestEngineNoViolationNoActivation(t *testing.T) {
	e, _ := NewEngine([]*rules.Rule{jqRule(0)})
	res, err := e.HandleReport(loadReport("u1", map[string]float64{
		"s1.com": 100, "a.example": 105, "b.example": 95, "c.example": 110,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 || len(res.Changes) != 0 {
		t.Errorf("healthy load produced %+v", res)
	}
}

func TestEngineTTLExpiry(t *testing.T) {
	clock := newTestClock()
	e, _ := NewEngine([]*rules.Rule{jqRule(time.Hour)}, WithClock(clock.Now))
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	page := `<script src="http://s1.com/jquery.js">`
	if out, _ := e.ModifyPage("u1", "/", page); !strings.Contains(out, "s2.net") {
		t.Fatal("rule not active after activation")
	}
	clock.Advance(2 * time.Hour)
	if out, _ := e.ModifyPage("u1", "/", page); out != page {
		t.Error("rule still applied after TTL expiry")
	}
	// The next report prunes and logs the expiry.
	res, _ := e.HandleReport(loadReport("u1", map[string]float64{
		"a.example": 100, "b.example": 100, "c.example": 100,
	}))
	var expired bool
	for _, ch := range res.Changes {
		if ch.Action == "expire" && ch.RuleID == "jquery" {
			expired = true
		}
	}
	if !expired {
		t.Errorf("changes = %+v, want expire record", res.Changes)
	}
}

func TestEngineMinViolationsPolicy(t *testing.T) {
	e, _ := NewEngine(
		[]*rules.Rule{jqRule(0)},
		WithPolicy(Policy{MinViolations: 3}),
	)
	for i := 1; i <= 2; i++ {
		res, _ := e.HandleReport(slowS1Report("u1"))
		if len(res.Changes) != 0 {
			t.Fatalf("report %d: activated early: %+v", i, res.Changes)
		}
	}
	res, _ := e.HandleReport(slowS1Report("u1"))
	if len(res.Changes) != 1 || res.Changes[0].Action != "activate" {
		t.Fatalf("3rd violation: changes = %+v, want activation", res.Changes)
	}
}

func TestEngineRuleHistoryRevert(t *testing.T) {
	// Single alternative; after switching, the alternate performs even
	// worse than the default did -> revert (deactivate).
	e, _ := NewEngine([]*rules.Rule{jqRule(0)})
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	// Now s2.net (the alternate) violates with a larger distance (default
	// s1 was 2000 vs median ~102; distance ~1900; s2 now 5000).
	res, _ := e.HandleReport(loadReport("u1", map[string]float64{
		"s2.net":    5000,
		"a.example": 100, "b.example": 110, "c.example": 105, "d.example": 95,
	}))
	var deactivated bool
	for _, ch := range res.Changes {
		if ch.Action == "deactivate" && ch.RuleID == "jquery" {
			deactivated = true
		}
	}
	if !deactivated {
		t.Fatalf("changes = %+v, want deactivate", res.Changes)
	}
	page := `<script src="http://s1.com/jquery.js">`
	if out, _ := e.ModifyPage("u1", "/", page); out != page {
		t.Error("page still rewritten after revert")
	}
}

func TestEngineRuleHistoryKeep(t *testing.T) {
	// The alternate violates, but by less than the default did -> keep it.
	e, _ := NewEngine([]*rules.Rule{jqRule(0)})
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil { // s1 distance ~1895
		t.Fatal(err)
	}
	res, _ := e.HandleReport(loadReport("u1", map[string]float64{
		"s2.net":    200, // violates (median ~100, MAD ~5) but distance only ~98
		"a.example": 100, "b.example": 110, "c.example": 105, "d.example": 95,
	}))
	var kept bool
	for _, ch := range res.Changes {
		if ch.Action == "keep" && ch.RuleID == "jquery" {
			kept = true
		}
		if ch.Action == "deactivate" {
			t.Fatalf("rule deactivated though alternate beats default: %+v", res.Changes)
		}
	}
	if !kept {
		t.Fatalf("changes = %+v, want keep", res.Changes)
	}
	page := `<script src="http://s1.com/jquery.js">`
	if out, _ := e.ModifyPage("u1", "/", page); !strings.Contains(out, "s2.net") {
		t.Error("kept rule no longer applied")
	}
}

func TestEngineRuleHistoryAdvance(t *testing.T) {
	// Two alternatives; when the first alternate turns bad, progress to the
	// second instead of reverting.
	r := jqRule(0,
		`<script src="http://s2.net/jquery.js">`,
		`<script src="http://s3.org/jquery.js">`,
	)
	e, _ := NewEngine([]*rules.Rule{r})
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	res, _ := e.HandleReport(loadReport("u1", map[string]float64{
		"s2.net":    5000,
		"a.example": 100, "b.example": 110, "c.example": 105, "d.example": 95,
	}))
	var advanced bool
	for _, ch := range res.Changes {
		if ch.Action == "advance" && ch.AltIndex == 1 {
			advanced = true
		}
	}
	if !advanced {
		t.Fatalf("changes = %+v, want advance to alt 1", res.Changes)
	}
	page := `<script src="http://s1.com/jquery.js">`
	out, _ := e.ModifyPage("u1", "/", page)
	if !strings.Contains(out, "s3.org") {
		t.Errorf("page = %q, want s3.org (second alternative)", out)
	}
}

func TestEngineScopeRestrictsActivationAndApplication(t *testing.T) {
	r := jqRule(0)
	r.Scope = "/shop/*"
	e, _ := NewEngine([]*rules.Rule{r})
	// Violation reported from an out-of-scope page: no activation.
	rep := slowS1Report("u1")
	rep.Page = "/index.html"
	res, _ := e.HandleReport(rep)
	if len(res.Changes) != 0 {
		t.Fatalf("out-of-scope activation: %+v", res.Changes)
	}
	// Violation from an in-scope page activates, and application honours
	// scope per page.
	rep2 := slowS1Report("u1")
	rep2.Page = "/shop/cart.html"
	res, _ = e.HandleReport(rep2)
	if len(res.Changes) != 1 {
		t.Fatalf("in-scope changes = %+v", res.Changes)
	}
	page := `<script src="http://s1.com/jquery.js">`
	if out, _ := e.ModifyPage("u1", "/shop/cart.html", page); !strings.Contains(out, "s2.net") {
		t.Error("in-scope page not rewritten")
	}
	if out, _ := e.ModifyPage("u1", "/index.html", page); out != page {
		t.Error("out-of-scope page rewritten")
	}
}

func TestEngineInvalidReportRejected(t *testing.T) {
	e, _ := NewEngine(nil)
	if _, err := e.HandleReport(&report.Report{}); err == nil {
		t.Error("HandleReport(invalid) = nil error")
	}
}

func TestEngineRejectsBadRules(t *testing.T) {
	if _, err := NewEngine([]*rules.Rule{{ID: "", Type: rules.TypeRemove, Default: "x"}}); err == nil {
		t.Error("NewEngine(invalid rule) = nil error")
	}
	if _, err := NewEngine([]*rules.Rule{
		{ID: "dup", Type: rules.TypeRemove, Default: "x"},
		{ID: "dup", Type: rules.TypeRemove, Default: "y"},
	}); err == nil {
		t.Error("NewEngine(duplicate ids) = nil error")
	}
}

func TestEngineSnapshot(t *testing.T) {
	e, _ := NewEngine([]*rules.Rule{jqRule(0)})
	if _, ok := e.Snapshot("nobody"); ok {
		t.Error("Snapshot(unknown) = ok")
	}
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	snap, ok := e.Snapshot("u1")
	if !ok {
		t.Fatal("Snapshot(u1) not found")
	}
	if len(snap.ActiveRules) != 1 || snap.ActiveRules[0] != "jquery" {
		t.Errorf("ActiveRules = %v", snap.ActiveRules)
	}
	if snap.Violations["ip-s1.com"] != 1 {
		t.Errorf("Violations = %v", snap.Violations)
	}
	if e.Users() != 1 {
		t.Errorf("Users = %d, want 1", e.Users())
	}
}

func TestEngineLedgerRecordsActivations(t *testing.T) {
	e, _ := NewEngine([]*rules.Rule{jqRule(0)})
	for _, u := range []string{"u1", "u2", "u3"} {
		if _, err := e.HandleReport(slowS1Report(u)); err != nil {
			t.Fatal(err)
		}
	}
	// u4 reports healthy: counted as a user, no activations.
	if _, err := e.HandleReport(loadReport("u4", map[string]float64{
		"a.example": 100, "b.example": 100, "c.example": 100,
	})); err != nil {
		t.Fatal(err)
	}
	stats := mustAudit(t, e).Rules
	if len(stats) != 1 || stats[0].RuleID != "jquery" {
		t.Fatalf("audit rules = %+v", stats)
	}
	if stats[0].Users != 3 || stats[0].UserFraction != 0.75 {
		t.Errorf("rule = %+v, want 3 users / 0.75 fraction", stats[0])
	}
}

func TestEngineHashSelector(t *testing.T) {
	r := jqRule(0, "ALT0", "ALT1", "ALT2", "ALT3")
	e, _ := NewEngine([]*rules.Rule{r}, WithPolicy(Policy{SelectAlternative: HashSelector}))
	seen := make(map[int]bool)
	for i := 0; i < 20; i++ {
		u := fmt.Sprintf("user-%d", i)
		if _, err := e.HandleReport(slowS1Report(u)); err != nil {
			t.Fatal(err)
		}
		acts := e.ActiveRules(u, "/index.html")
		if len(acts) != 1 {
			t.Fatalf("user %s: %d active rules", u, len(acts))
		}
		seen[acts[0].AltIndex] = true
	}
	if len(seen) < 2 {
		t.Errorf("hash selector used %d alternatives across 20 users, want >=2", len(seen))
	}
}

func TestEngineConcurrentUse(t *testing.T) {
	e, _ := NewEngine([]*rules.Rule{jqRule(0)})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u := fmt.Sprintf("user-%d", i%4)
			for j := 0; j < 25; j++ {
				if _, err := e.HandleReport(slowS1Report(u)); err != nil {
					t.Errorf("HandleReport: %v", err)
					return
				}
				e.ModifyPage(u, "/index.html", `<script src="http://s1.com/jquery.js">`)
				e.Snapshot(u)
				if _, err := e.Audit(); err != nil {
					t.Errorf("Audit: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if e.Users() != 4 {
		t.Errorf("Users = %d, want 4", e.Users())
	}
}

func TestEngineLogf(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	e, _ := NewEngine([]*rules.Rule{jqRule(0)}, WithLogf(logf))
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) == 0 || !strings.Contains(strings.Join(lines, "\n"), "activate") {
		t.Errorf("log lines = %v, want activation log", lines)
	}
}

func TestEngineReportWithSingleServer(t *testing.T) {
	// A report naming one server can never produce a violation (nothing to
	// be relative to) and must not panic or activate anything.
	e, _ := NewEngine([]*rules.Rule{jqRule(0)})
	res, err := e.HandleReport(loadReport("solo", map[string]float64{"s1.com": 9999}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 || len(res.Changes) != 0 {
		t.Errorf("single-server report produced %+v", res)
	}
}
