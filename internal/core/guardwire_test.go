package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"oak/internal/obs"
	"oak/internal/report"
	"oak/internal/rules"
)

// guardEngine builds an engine with a tight guard config and a test clock.
func guardEngine(t *testing.T, rs []*rules.Rule, extra ...Option) (*Engine, *testClock) {
	t.Helper()
	clock := newTestClock()
	opts := append([]Option{
		WithClock(clock.Now),
		WithGuard(GuardConfig{
			TripThreshold:    3,
			OpenFor:          time.Minute,
			HalfOpenCanaries: 1,
			CloseAfter:       1,
			PanicThreshold:   2,
		}),
	}, extra...)
	e, err := NewEngine(rs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e, clock
}

func TestGuardOpenBreakerBlocksActivation(t *testing.T) {
	e, _ := guardEngine(t, []*rules.Rule{jqRule(0)}, WithTraceCapacity(32))
	e.QuarantineProvider("s2.net")

	res, err := e.HandleReport(slowS1Report("u1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changes) != 0 {
		t.Fatalf("changes = %+v, want none while s2.net quarantined", res.Changes)
	}
	m := e.Metrics()
	if m.ActivationsBlocked == 0 {
		t.Error("ActivationsBlocked = 0, want > 0")
	}
	page := `<script src="http://s1.com/jquery.js">`
	if out, _ := e.ModifyPage("u1", "/index.html", page); out != page {
		t.Error("page rewritten despite blocked activation")
	}
	var sawQuarantineTrace bool
	for _, ev := range e.TraceRecent(32) {
		if ev.Kind == obs.EventQuarantine && ev.Provider == "s2.net" {
			sawQuarantineTrace = true
		}
	}
	if !sawQuarantineTrace {
		t.Error("no quarantine trace event for blocked activation")
	}
}

func TestGuardTripBulkRollsBackAllUsers(t *testing.T) {
	e, _ := guardEngine(t, []*rules.Rule{jqRule(0)}, WithShards(4), WithTraceCapacity(128))

	// Activate many users onto the s2.net alternate, spread across shards.
	const users = 12
	page := `<script src="http://s1.com/jquery.js">`
	for i := 0; i < users; i++ {
		u := fmt.Sprintf("user-%d", i)
		if _, err := e.HandleReport(slowS1Report(u)); err != nil {
			t.Fatal(err)
		}
		if out, _ := e.ModifyPage(u, "/index.html", page); !strings.Contains(out, "s2.net") {
			t.Fatalf("user %s not activated", u)
		}
	}

	// Three consecutive bad population-level outcomes trip the breaker.
	for i := 0; i < 3; i++ {
		e.ObserveProviderOutcome("s2.net", false, 500)
	}

	m := e.Metrics()
	if m.BreakerTrips != 1 {
		t.Errorf("BreakerTrips = %d, want 1", m.BreakerTrips)
	}
	// Every user — including ones that never reported the bad provider —
	// is rolled back to the default page.
	for i := 0; i < users; i++ {
		u := fmt.Sprintf("user-%d", i)
		if out, _ := e.ModifyPage(u, "/index.html", page); out != page {
			t.Errorf("user %s still rewritten after trip: %q", u, out)
		}
	}
	// The trip touched no profile: each user's next report drops and counts
	// their rolled-back activation.
	if m.BulkDeactivations != 0 {
		t.Errorf("BulkDeactivations = %d at the trip, want 0", m.BulkDeactivations)
	}
	for i := 0; i < users; i++ {
		handle(t, e, healthyReport(fmt.Sprintf("user-%d", i)))
	}
	if got := e.Metrics().BulkDeactivations; got != users {
		t.Errorf("BulkDeactivations = %d after every user reported, want %d", got, users)
	}
	// No new user is activated onto the dead provider while the breaker is
	// open.
	res, err := e.HandleReport(slowS1Report("late-user"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changes) != 0 {
		t.Errorf("late-user changes = %+v, want none while open", res.Changes)
	}
	if got := e.OpenBreakers(); len(got) != 1 || got[0] != "s2.net" {
		t.Errorf("OpenBreakers = %v, want [s2.net]", got)
	}
	var sawRollback bool
	for _, ev := range e.TraceRecent(128) {
		if ev.Kind == obs.EventRollback && ev.Provider == "s2.net" {
			sawRollback = true
		}
	}
	if !sawRollback {
		t.Error("no rollback trace events after trip")
	}
}

func TestGuardTripsFromIngestedReports(t *testing.T) {
	// Population-level aggregation: no manual ObserveProviderOutcome calls —
	// three users' reports showing the alternate violating trip the breaker.
	e, _ := guardEngine(t, []*rules.Rule{jqRule(0)})

	for i := 0; i < 3; i++ {
		u := fmt.Sprintf("user-%d", i)
		if _, err := e.HandleReport(slowS1Report(u)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		u := fmt.Sprintf("user-%d", i)
		if _, err := e.HandleReport(loadReport(u, map[string]float64{
			"s2.net":    5000,
			"a.example": 100, "b.example": 110, "c.example": 105, "d.example": 95,
		})); err != nil {
			t.Fatal(err)
		}
	}
	m := e.Metrics()
	if m.BreakerTrips != 1 {
		t.Fatalf("BreakerTrips = %d, want 1 (from report aggregation alone)", m.BreakerTrips)
	}
	res, _ := e.HandleReport(slowS1Report("fresh"))
	if len(res.Changes) != 0 {
		t.Errorf("fresh user activated onto tripped provider: %+v", res.Changes)
	}
}

func TestGuardHealthyReportsKeepBreakerClosed(t *testing.T) {
	// A good outcome resets the bad streak: alternating bad/good reports
	// never trip.
	e, _ := guardEngine(t, []*rules.Rule{jqRule(0)})
	for i := 0; i < 6; i++ {
		u := fmt.Sprintf("user-%d", i)
		if _, err := e.HandleReport(slowS1Report(u)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		u := fmt.Sprintf("user-%d", i)
		times := map[string]float64{
			"a.example": 100, "b.example": 110, "c.example": 105, "d.example": 95,
		}
		if i%2 == 0 {
			times["s2.net"] = 5000 // bad
		} else {
			times["s2.net"] = 100 // good: resets the streak
		}
		if _, err := e.HandleReport(loadReport(u, times)); err != nil {
			t.Fatal(err)
		}
	}
	if m := e.Metrics(); m.BreakerTrips != 0 {
		t.Errorf("BreakerTrips = %d, want 0 with alternating outcomes", m.BreakerTrips)
	}
}

func TestGuardHalfOpenCanaryThenClose(t *testing.T) {
	e, clock := guardEngine(t, []*rules.Rule{jqRule(0)}, WithTraceCapacity(64))
	e.QuarantineProvider("s2.net")

	// Cool-down not elapsed: still blocked.
	res, _ := e.HandleReport(slowS1Report("u1"))
	if len(res.Changes) != 0 {
		t.Fatalf("activated during cool-down: %+v", res.Changes)
	}

	clock.Advance(2 * time.Minute)

	// First activation after the cool-down is admitted as the one canary.
	res, _ = e.HandleReport(slowS1Report("u2"))
	if len(res.Changes) != 1 || res.Changes[0].Action != "activate" {
		t.Fatalf("canary not admitted: %+v", res.Changes)
	}
	m := e.Metrics()
	if m.CanaryActivations != 1 {
		t.Errorf("CanaryActivations = %d, want 1", m.CanaryActivations)
	}
	// Canary budget (1) exhausted: the next user is blocked again.
	res, _ = e.HandleReport(slowS1Report("u3"))
	if len(res.Changes) != 0 {
		t.Fatalf("second activation admitted beyond canary budget: %+v", res.Changes)
	}

	// A good outcome for the canary closes the breaker (CloseAfter: 1)...
	e.ObserveProviderOutcome("s2.net", true, 50)
	if m := e.Metrics(); m.BreakerCloses != 1 {
		t.Errorf("BreakerCloses = %d, want 1", m.BreakerCloses)
	}
	if got := e.OpenBreakers(); len(got) != 0 {
		t.Errorf("OpenBreakers = %v after close, want none", got)
	}
	// ...and activation is free again.
	res, _ = e.HandleReport(slowS1Report("u4"))
	if len(res.Changes) != 1 {
		t.Fatalf("activation still blocked after close: %+v", res.Changes)
	}
	var sawCanary, sawReadmit bool
	for _, ev := range e.TraceRecent(64) {
		switch ev.Kind {
		case obs.EventCanary:
			sawCanary = true
		case obs.EventReadmit:
			sawReadmit = true
		}
	}
	if !sawCanary || !sawReadmit {
		t.Errorf("trace canary=%v readmit=%v, want both", sawCanary, sawReadmit)
	}
}

func TestGuardBadCanaryReopens(t *testing.T) {
	e, clock := guardEngine(t, []*rules.Rule{jqRule(0)})
	e.QuarantineProvider("s2.net")
	clock.Advance(2 * time.Minute)

	res, _ := e.HandleReport(slowS1Report("u1"))
	if len(res.Changes) != 1 {
		t.Fatalf("canary not admitted: %+v", res.Changes)
	}
	// The canary went badly: the breaker reopens and rolls the canary back.
	e.ObserveProviderOutcome("s2.net", false, 900)
	if got := e.OpenBreakers(); len(got) != 1 {
		t.Fatalf("OpenBreakers = %v, want s2.net open again", got)
	}
	page := `<script src="http://s1.com/jquery.js">`
	if out, _ := e.ModifyPage("u1", "/index.html", page); out != page {
		t.Error("canary activation survived reopen")
	}
	if m := e.Metrics(); m.BreakerTrips < 2 {
		t.Errorf("BreakerTrips = %d, want >= 2 (manual + reopen)", m.BreakerTrips)
	}
}

func TestGuardBlockedAdvanceRevertsToDefault(t *testing.T) {
	// Two alternatives; the second's provider is quarantined, so when the
	// first turns bad the advance is blocked and the rule reverts to the
	// default instead.
	r := jqRule(0,
		`<script src="http://s2.net/jquery.js">`,
		`<script src="http://s3.org/jquery.js">`,
	)
	e, _ := guardEngine(t, []*rules.Rule{r})
	e.QuarantineProvider("s3.org")

	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	res, _ := e.HandleReport(loadReport("u1", map[string]float64{
		"s2.net":    5000,
		"a.example": 100, "b.example": 110, "c.example": 105, "d.example": 95,
	}))
	var deactivated, advanced bool
	for _, ch := range res.Changes {
		switch ch.Action {
		case "deactivate":
			deactivated = true
		case "advance":
			advanced = true
		}
	}
	if advanced {
		t.Fatalf("advanced onto quarantined s3.org: %+v", res.Changes)
	}
	if !deactivated {
		t.Fatalf("changes = %+v, want deactivate when advance blocked", res.Changes)
	}
	page := `<script src="http://s1.com/jquery.js">`
	if out, _ := e.ModifyPage("u1", "/", page); out != page {
		t.Error("page still rewritten after blocked advance")
	}
}

func TestGuardStatusSurface(t *testing.T) {
	plain, err := NewEngine([]*rules.Rule{jqRule(0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.GuardStatus(); ok {
		t.Error("GuardStatus ok on guardless engine")
	}
	if got := plain.OpenBreakers(); got != nil {
		t.Errorf("OpenBreakers = %v on guardless engine", got)
	}

	e, _ := guardEngine(t, []*rules.Rule{jqRule(0)})
	st, ok := e.GuardStatus()
	if !ok {
		t.Fatal("GuardStatus not ok with WithGuard")
	}
	if len(st.Breakers) != 0 || len(st.Quarantines) != 0 {
		t.Errorf("fresh guard status = %+v, want empty", st)
	}
	e.QuarantineProvider("s2.net")
	st, _ = e.GuardStatus()
	if len(st.Quarantines) != 1 || st.Quarantines[0] != "s2.net" {
		t.Errorf("Quarantines = %v, want [s2.net]", st.Quarantines)
	}
	if len(st.Breakers) != 1 || st.Breakers[0].State != "open" {
		t.Errorf("Breakers = %+v, want one open s2.net", st.Breakers)
	}
	e.ReleaseProvider("s2.net")
	if got := e.OpenBreakers(); len(got) != 0 {
		t.Errorf("OpenBreakers = %v after release", got)
	}
}

func TestGuardAlternateProviders(t *testing.T) {
	r := jqRule(0,
		`<script src="http://s2.net/jquery.js">`,
		`<script src="http://s3.org/jquery.js">`,
	)
	e, _ := guardEngine(t, []*rules.Rule{r})
	provs := e.AlternateProviders()
	for _, host := range []string{"s2.net", "s3.org"} {
		urls, ok := provs[host]
		if !ok || len(urls) == 0 {
			t.Errorf("AlternateProviders missing %s: %v", host, provs)
			continue
		}
		if !strings.Contains(urls[0], host) {
			t.Errorf("%s probe URL = %q", host, urls[0])
		}
	}
}

func TestServePanicIsolationServesUnmodifiedPage(t *testing.T) {
	// Panic isolation is always on — even without WithGuard a panicking
	// rewrite serves the unmodified page instead of crashing the request.
	e, err := NewEngine([]*rules.Rule{jqRule(0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	rules.SetApplyFailpoint(func(ruleID string) bool { return ruleID == "jquery" })
	defer rules.SetApplyFailpoint(nil)

	page := `<html><script src="http://s1.com/jquery.js"></script></html>`
	out, applied := e.ModifyPage("u1", "/index.html", page)
	if out != page {
		t.Errorf("panicking rewrite altered the page: %q", out)
	}
	if len(applied) != 0 {
		t.Errorf("applied = %+v, want none", applied)
	}
	if m := e.Metrics(); m.RewritePanics == 0 {
		t.Error("RewritePanics = 0, want > 0")
	}

	// Uninstalling the failpoint restores normal rewriting (no quarantine
	// ledger without guard).
	rules.SetApplyFailpoint(nil)
	if out, _ := e.ModifyPage("u1", "/index.html", page); !strings.Contains(out, "s2.net") {
		t.Errorf("rewrite not restored after failpoint removal: %q", out)
	}
}

func TestServePanicIsolationSparesHealthyRules(t *testing.T) {
	// Two active rules, one poisoned: the degraded sequential pass still
	// applies the healthy one.
	other := &rules.Rule{
		ID:           "other",
		Type:         rules.TypeReplaceSame,
		Default:      `<script src="http://s1.com/app.js">`,
		Alternatives: []string{`<script src="http://s2.net/app.js">`},
		Scope:        "*",
	}
	e, _ := guardEngine(t, []*rules.Rule{jqRule(0), other})
	rep := slowS1Report("u1")
	if _, err := e.HandleReport(rep); err != nil {
		t.Fatal(err)
	}
	page := `<script src="http://s1.com/jquery.js"> <script src="http://s1.com/app.js">`
	if out, _ := e.ModifyPage("u1", "/index.html", page); strings.Contains(out, "s1.com") {
		t.Fatalf("both rules should be active; got %q", out)
	}

	rules.SetApplyFailpoint(func(ruleID string) bool { return ruleID == "jquery" })
	defer rules.SetApplyFailpoint(nil)
	out, _ := e.ModifyPage("u1", "/index.html", page)
	if !strings.Contains(out, `http://s1.com/jquery.js`) {
		t.Errorf("poisoned rule applied anyway: %q", out)
	}
	if !strings.Contains(out, `http://s2.net/app.js`) {
		t.Errorf("healthy rule lost in degraded pass: %q", out)
	}
}

func TestServePanicQuarantinesRule(t *testing.T) {
	// PanicThreshold 2 (guardEngine config): after two panicking serves the
	// rule is quarantined and its activations rolled back.
	e, _ := guardEngine(t, []*rules.Rule{jqRule(0)})
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	rules.SetApplyFailpoint(func(ruleID string) bool { return ruleID == "jquery" })
	defer rules.SetApplyFailpoint(nil)

	page := `<script src="http://s1.com/jquery.js">`
	for i := 0; i < 2; i++ {
		if out, _ := e.ModifyPage("u1", "/index.html", page); out != page {
			t.Fatalf("serve %d: page modified: %q", i, out)
		}
	}
	st, _ := e.GuardStatus()
	if len(st.QuarantinedRules) != 1 || st.QuarantinedRules[0] != "jquery" {
		t.Fatalf("QuarantinedRules = %v, want [jquery]", st.QuarantinedRules)
	}
	if m := e.Metrics(); m.RuleQuarantines != 1 {
		t.Errorf("RuleQuarantines = %d, want 1", m.RuleQuarantines)
	}

	// The rollback ran on the serve that crossed the threshold: the page
	// stays unmodified on the very next call, failpoint removed.
	rules.SetApplyFailpoint(nil)
	if out, _ := e.ModifyPage("u1", "/index.html", page); out != page {
		t.Fatalf("quarantined rule's activation not rolled back: %q", out)
	}
	// Fresh activations of the quarantined rule are blocked.
	res, _ := e.HandleReport(slowS1Report("u2"))
	if len(res.Changes) != 0 {
		t.Errorf("quarantined rule re-activated: %+v", res.Changes)
	}
}

func TestGuardRuleQuarantineViaManualOverride(t *testing.T) {
	e, _ := guardEngine(t, []*rules.Rule{jqRule(0)})
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	page := `<script src="http://s1.com/jquery.js">`
	if out, _ := e.ModifyPage("u1", "/", page); !strings.Contains(out, "s2.net") {
		t.Fatal("rule not active before quarantine")
	}
	e.QuarantineRule("jquery")
	st, _ := e.GuardStatus()
	if len(st.QuarantinedRules) != 1 || st.QuarantinedRules[0] != "jquery" {
		t.Fatalf("QuarantinedRules = %v", st.QuarantinedRules)
	}
	// Quarantining a rule rolls back its activations synchronously.
	if out, _ := e.ModifyPage("u1", "/", page); out != page {
		t.Error("quarantined rule still applied")
	}
	// And blocks fresh activations of the same rule.
	res, _ := e.HandleReport(slowS1Report("u2"))
	if len(res.Changes) != 0 {
		t.Errorf("quarantined rule activated: %+v", res.Changes)
	}
	e.ReleaseRule("jquery")
	res, _ = e.HandleReport(slowS1Report("u3"))
	if len(res.Changes) != 1 {
		t.Errorf("released rule did not activate: %+v", res.Changes)
	}
}

// healthyPeers are the four well-behaved servers a report's violator is
// judged against.
var healthyPeers = map[string]float64{"a.example": 100, "b.example": 110, "c.example": 105, "d.example": 95}

// fill takes user's profile to maxProfileSize, to the byte, with violating
// servers no rule depends on, the way TestProfileRecordStaysWithinAFrame
// fills one. The user must have reported before.
func fill(t *testing.T, e *Engine, clock *testClock, user string) {
	t.Helper()
	for i := 0; ; i++ {
		size := e.shardFor(user).profiles[user].estimateSize()
		n := min(maxProfileSize-size-violationEntrySize, maxSpillStringLen)
		if n < 3 {
			return
		}
		r := loadReport(user, healthyPeers)
		r.Entries = append(r.Entries, report.Entry{
			URL: "http://filler.example/obj.js", ServerAddr: fmt.Sprintf("%02d", i) + strings.Repeat("x", n-2),
			SizeBytes: 1024, DurationMillis: 2000, Kind: report.KindScript,
		})
		if _, err := e.HandleReport(r); err != nil {
			t.Fatal(err)
		}
		if e.shardFor(user).profiles[user].estimateSize() == size {
			t.Fatalf("filler %d recorded no violation", i)
		}
		clock.Advance(time.Second)
	}
}

// handle ingests r and returns its rule changes.
func handle(t *testing.T, e *Engine, r *report.Report) []RuleChange {
	t.Helper()
	res, err := e.HandleReport(r)
	if err != nil {
		t.Fatal(err)
	}
	return res.Changes
}

// wantCanaries checks that provider's breaker has spent n canary slots and
// that n canary activations were counted.
func wantCanaries(t *testing.T, e *Engine, provider string, n int) {
	t.Helper()
	st, _ := e.GuardStatus()
	used := -1
	for _, b := range st.Breakers {
		if b.Provider == provider {
			used = b.CanariesUsed
		}
	}
	if used != n {
		t.Errorf("%s: %d canary slots used, want %d", provider, used, n)
	}
	if got := st.CanaryActivations; got != uint64(n) {
		t.Errorf("CanaryActivations = %d, want %d", got, n)
	}
}

// synthesisOn is a synthesis config for hand-fed traffic: providers are
// flagged by MarkDegraded only.
var synthesisOn = WithSynthesis(SynthesisConfig{
	Window: time.Minute, MinSamples: 1 << 30, MinBaselineSamples: 1 << 30, MaxProviders: 8,
})

// TestFullProfileSpendsNoCanarySlot: a half-open breaker admits
// HalfOpenCanaries activations, and each is spent by admitting one. A user
// whose profile has no room for the activation must not be admitted, or the
// slot goes to an activation that is never made and a user with room is
// turned away — on a fresh activation, on an advance to the breaker's
// alternative, and on a synthesized activation.
func TestFullProfileSpendsNoCanarySlot(t *testing.T) {
	t.Run("activation", func(t *testing.T) {
		e, clock := guardEngine(t, []*rules.Rule{jqRule(0)})
		e.QuarantineProvider("s2.net")
		// The open breaker blocks the activation; the violator is recorded.
		if ch := handle(t, e, slowS1Report("full")); len(ch) != 0 {
			t.Fatalf("changes %+v while s2.net is open", ch)
		}
		fill(t, e, clock, "full")
		clock.Advance(2 * time.Minute) // half-open: one canary slot
		if ch := handle(t, e, slowS1Report("full")); len(ch) != 0 {
			t.Fatalf("a full profile took an activation: %+v", ch)
		}
		wantCanaries(t, e, "s2.net", 0)
		if ch := handle(t, e, slowS1Report("roomy")); len(ch) != 1 || ch[0].Action != "activate" {
			t.Fatalf("a user with room was not admitted as the canary: %+v", ch)
		}
		wantCanaries(t, e, "s2.net", 1)
	})

	t.Run("advance", func(t *testing.T) {
		e, clock := guardEngine(t, []*rules.Rule{jqRule(0,
			`<script src="http://s2.net/jquery.js">`,
			`<script src="http://s3.org/jquery.js">`,
		)})
		// The alternate violates under an address longer than the
		// activation's trigger, so an advance grows the profile.
		slowAlt := func(user string) *report.Report {
			r := loadReport(user, healthyPeers)
			r.Entries = append(r.Entries, report.Entry{
				URL: "http://s2.net/jquery.js", ServerAddr: "ip-s2.net-behind-a-longer-name",
				SizeBytes: 1024, DurationMillis: 5000, Kind: report.KindScript,
			})
			return r
		}
		for _, user := range []string{"full", "roomy"} {
			if ch := handle(t, e, slowAlt(user)); len(ch) != 0 {
				t.Fatalf("%s: changes %+v before any activation", user, ch)
			}
			if ch := handle(t, e, slowS1Report(user)); len(ch) != 1 || ch[0].Action != "activate" {
				t.Fatalf("%s: changes %+v, want the activation onto s2.net", user, ch)
			}
		}
		e.QuarantineProvider("s3.org")
		fill(t, e, clock, "full")
		clock.Advance(2 * time.Minute) // half-open: one canary slot
		if ch := handle(t, e, slowAlt("full")); len(ch) != 0 {
			t.Fatalf("a full profile advanced: %+v", ch)
		}
		wantCanaries(t, e, "s3.org", 0)
		if ch := handle(t, e, slowAlt("roomy")); len(ch) != 1 || ch[0].Action != "advance" {
			t.Fatalf("a user with room was not admitted as the canary: %+v", ch)
		}
		wantCanaries(t, e, "s3.org", 1)
	})
	t.Run("synthesis", func(t *testing.T) {
		e, clock := guardEngine(t, []*rules.Rule{jqRule(0)}, synthesisOn)
		e.QuarantineProvider("s2.net")
		e.MarkDegraded("s1.com")
		degraded := func(user string) *report.Report { return loadReport(user, map[string]float64{"s1.com": 900}) }
		// The open breaker blocks the synthesized activation.
		if ch := handle(t, e, degraded("full")); len(ch) != 0 {
			t.Fatalf("changes %+v while s2.net is open", ch)
		}
		fill(t, e, clock, "full")
		clock.Advance(2 * time.Minute) // half-open: one canary slot
		if ch := handle(t, e, degraded("full")); len(ch) != 0 {
			t.Fatalf("a full profile took a synthesized activation: %+v", ch)
		}
		wantCanaries(t, e, "s2.net", 0)
		if ch := handle(t, e, degraded("roomy")); len(ch) != 1 || !ch[0].Synthesized {
			t.Fatalf("a user with room was not admitted as the canary: %+v", ch)
		}
		wantCanaries(t, e, "s2.net", 1)
		if got := e.Metrics().SynthesisBlocked; got != 1 {
			t.Errorf("SynthesisBlocked = %d, want 1 (the full profile is skipped, not blocked)", got)
		}
	})
}

// TestRefusedAlternativeSpendsNoCanarySlot: an alternative on two providers
// is admitted whole or not at all. With s2.net half-open (one canary slot)
// and s3.org open, the activation is refused and s2.net's slot stays unspent,
// so once s3.org is released the next user is admitted as s2.net's canary.
// Synthesis, which falls back to the rule's other alternatives, must not
// spend the slot of the preferred alternative it could not take either.
func TestRefusedAlternativeSpendsNoCanarySlot(t *testing.T) {
	both := `<script src="http://s2.net/jquery.js"><script src="http://s3.org/jquery.js">`
	halfOpenAndOpen := func(e *Engine, clock *testClock) {
		e.QuarantineProvider("s2.net")
		clock.Advance(2 * time.Minute) // s2.net half-open: one canary slot
		e.QuarantineProvider("s3.org")
	}

	t.Run("activation", func(t *testing.T) {
		e, clock := guardEngine(t, []*rules.Rule{jqRule(0, both)})
		halfOpenAndOpen(e, clock)
		if ch := handle(t, e, slowS1Report("u1")); len(ch) != 0 {
			t.Fatalf("activated onto open s3.org: %+v", ch)
		}
		wantCanaries(t, e, "s2.net", 0)
		if got := e.Metrics().ActivationsBlocked; got != 1 {
			t.Errorf("ActivationsBlocked = %d, want 1", got)
		}
		e.ReleaseProvider("s3.org")
		if ch := handle(t, e, slowS1Report("u2")); len(ch) != 1 || ch[0].Action != "activate" {
			t.Fatalf("the second user was not admitted as the canary: %+v", ch)
		}
		wantCanaries(t, e, "s2.net", 1)
	})

	t.Run("synthesis", func(t *testing.T) {
		rule := jqRule(0, both, `<script src="http://s4.example/jquery.js">`)
		e, clock := guardEngine(t, []*rules.Rule{rule}, synthesisOn)
		halfOpenAndOpen(e, clock)
		e.MarkDegraded("s1.com")
		ch := handle(t, e, loadReport("u1", map[string]float64{"s1.com": 900}))
		if len(ch) != 1 || !ch[0].Synthesized || ch[0].AltIndex != 1 {
			t.Fatalf("changes %+v, want a synthesized activation on alt 1", ch)
		}
		wantCanaries(t, e, "s2.net", 0)
		e.ReleaseProvider("s3.org")
		ch = handle(t, e, loadReport("u2", map[string]float64{"s1.com": 900}))
		if len(ch) != 1 || !ch[0].Synthesized || ch[0].AltIndex != 0 {
			t.Fatalf("changes %+v, want the canary on alt 0", ch)
		}
		wantCanaries(t, e, "s2.net", 1)
	})
}
