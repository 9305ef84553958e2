package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"oak/internal/rules"
)

// mustAudit is e.Audit(), failing the test on an error.
func mustAudit(t *testing.T, e *Engine) *Audit {
	t.Helper()
	a, err := e.Audit()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAuditSummarises(t *testing.T) {
	e, err := NewEngine([]*rules.Rule{jqRule(0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"u1", "u2", "u3"} {
		if _, err := e.HandleReport(slowS1Report(u)); err != nil {
			t.Fatal(err)
		}
	}
	a := mustAudit(t, e)
	if a.Users != 3 {
		t.Errorf("Users = %d, want 3", a.Users)
	}
	if a.Metrics.ReportsHandled != 3 || a.Metrics.RuleActivations != 3 {
		t.Errorf("metrics = %+v", a.Metrics)
	}
	if len(a.Rules) != 1 || a.Rules[0].RuleID != "jquery" {
		t.Fatalf("rules = %+v", a.Rules)
	}
	if a.Rules[0].Classification != "common" {
		t.Errorf("jquery classification = %q, want common (all users activated)", a.Rules[0].Classification)
	}
	if len(a.WorstServers) == 0 || a.WorstServers[0].ServerAddr != "ip-s1.com" {
		t.Errorf("worst servers = %+v", a.WorstServers)
	}
	if a.WorstServers[0].Users != 3 || a.WorstServers[0].Violations != 3 {
		t.Errorf("s1 footprint = %+v", a.WorstServers[0])
	}
}

func TestAuditClassifiesIndividual(t *testing.T) {
	e, _ := NewEngine([]*rules.Rule{jqRule(0)})
	// Nine healthy users, one with the problem: 10% < 18% -> individual.
	if _, err := e.HandleReport(slowS1Report("unlucky")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		rep := loadReport("fine-"+string(rune('a'+i)), map[string]float64{
			"a.example": 100, "b.example": 105, "c.example": 95,
		})
		if _, err := e.HandleReport(rep); err != nil {
			t.Fatal(err)
		}
	}
	a := mustAudit(t, e)
	if len(a.Rules) != 1 || a.Rules[0].Classification != "individual" {
		t.Errorf("rules = %+v, want individual jquery", a.Rules)
	}
}

func TestAuditRender(t *testing.T) {
	e, _ := NewEngine([]*rules.Rule{jqRule(0)})
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	out := mustAudit(t, e).Render()
	for _, want := range []string{"Oak audit", "users: 1", "worst servers", "ip-s1.com", "jquery"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestAuditEmptyEngine(t *testing.T) {
	e, _ := NewEngine(nil)
	a := mustAudit(t, e)
	if a.Users != 0 || len(a.Rules) != 0 || len(a.WorstServers) != 0 {
		t.Errorf("empty audit = %+v", a)
	}
	if out := a.Render(); !strings.Contains(out, "users: 0") {
		t.Errorf("empty Render = %q", out)
	}
}

// TestAuditCountsSpilledUsers: a capped engine with most of its violators
// spilled lists every one of them. (TestCappedServesWhatUncappedServes holds
// capped and uncapped audits equal throughout its stream.)
func TestAuditCountsSpilledUsers(t *testing.T) {
	e := newSpillEngine(t, newTestClock(), ResidencyConfig{MaxProfiles: 2})
	const users = 10
	for i := 0; i < users; i++ {
		if _, err := e.HandleReport(slowS1Report(fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.HandleReport(healthyReport("fine")); err != nil {
		t.Fatal(err)
	}
	if st, _ := e.SpillStatus(); st.ProfilesSpilled < users-2 {
		t.Fatalf("capped engine spilled %d profiles, want at least %d", st.ProfilesSpilled, users-2)
	}
	a := mustAudit(t, e)
	if a.Users != users+1 {
		t.Errorf("Users = %d, want %d", a.Users, users+1)
	}
	if len(a.WorstServers) == 0 || a.WorstServers[0].ServerAddr != "ip-s1.com" ||
		a.WorstServers[0].Users != users || a.WorstServers[0].Violations != users {
		t.Errorf("worst servers = %+v, want ip-s1.com first with %d users", a.WorstServers, users)
	}
	if len(a.Rules) != 1 || a.Rules[0].Users != users || a.Rules[0].Activations != users {
		t.Errorf("rules = %+v, want jquery across %d users", a.Rules, users)
	}
}

// TestAuditSurvivesRestart: the audit is what the profiles say, so an engine
// booted from a state file audits as the one that saved it did.
func TestAuditSurvivesRestart(t *testing.T) {
	clock := newTestClock()
	build := func() *Engine {
		e, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := build()
	for i := 0; i < 6; i++ {
		if _, err := e.HandleReport(slowS1Report(fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := e.HandleReport(healthyReport(fmt.Sprintf("fine%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before := mustAudit(t, e)
	path := filepath.Join(t.TempDir(), "state.json")
	if err := e.SaveStateFile(path); err != nil {
		t.Fatal(err)
	}
	e2 := build()
	if _, err := e2.LoadStateFile(path); err != nil {
		t.Fatal(err)
	}
	after := mustAudit(t, e2)
	if before.Users != after.Users || !reflect.DeepEqual(before.Rules, after.Rules) ||
		!reflect.DeepEqual(before.WorstServers, after.WorstServers) {
		t.Errorf("audit changed across a restart:\n before %d %+v %+v\n after  %d %+v %+v",
			before.Users, before.Rules, before.WorstServers, after.Users, after.Rules, after.WorstServers)
	}
	if len(after.Rules) != 1 || after.Rules[0].Users != 6 {
		t.Errorf("rules after restart = %+v, want jquery across 6 users", after.Rules)
	}
}
