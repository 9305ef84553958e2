package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"oak/internal/rules"
)

func TestLedgerStats(t *testing.T) {
	l := NewLedger()
	l.RecordUser("u1")
	l.RecordUser("u2")
	l.RecordUser("u3")
	l.RecordUser("u4")
	l.RecordActivation("fonts", "u1")
	l.RecordActivation("fonts", "u2")
	l.RecordActivation("fonts", "u3")
	l.RecordActivation("fonts", "u1") // repeat by same user
	l.RecordActivation("ads", "u1")

	stats := l.Stats()
	if len(stats) != 2 {
		t.Fatalf("got %d stats, want 2", len(stats))
	}
	if stats[0].RuleID != "fonts" {
		t.Errorf("stats[0] = %+v, want fonts first (highest fraction)", stats[0])
	}
	if stats[0].Users != 3 || stats[0].Activations != 4 || stats[0].UserFraction != 0.75 {
		t.Errorf("fonts stat = %+v", stats[0])
	}
	if stats[1].Users != 1 || stats[1].UserFraction != 0.25 {
		t.Errorf("ads stat = %+v", stats[1])
	}
	if l.TotalUsers() != 4 {
		t.Errorf("TotalUsers = %d, want 4", l.TotalUsers())
	}
}

func TestLedgerSplit(t *testing.T) {
	l := NewLedger()
	for _, u := range []string{"u1", "u2", "u3", "u4", "u5", "u6", "u7", "u8", "u9", "u10"} {
		l.RecordUser(u)
	}
	// common: 5/10 users; individual: 1/10.
	for _, u := range []string{"u1", "u2", "u3", "u4", "u5"} {
		l.RecordActivation("common-fonts", u)
	}
	l.RecordActivation("individual-img", "u1")

	individual, common := l.Split(0.18)
	if len(common) != 1 || common[0].RuleID != "common-fonts" {
		t.Errorf("common = %+v", common)
	}
	if len(individual) != 1 || individual[0].RuleID != "individual-img" {
		t.Errorf("individual = %+v", individual)
	}
}

func TestLedgerEmpty(t *testing.T) {
	l := NewLedger()
	if got := l.Stats(); len(got) != 0 {
		t.Errorf("empty Stats = %v", got)
	}
	if l.TotalUsers() != 0 {
		t.Error("empty TotalUsers != 0")
	}
}

func TestLedgerActivationWithoutRecordUser(t *testing.T) {
	l := NewLedger()
	l.RecordActivation("r", "uX") // should implicitly count the user
	if l.TotalUsers() != 1 {
		t.Errorf("TotalUsers = %d, want 1", l.TotalUsers())
	}
	if st := l.Stats(); st[0].UserFraction != 1 {
		t.Errorf("UserFraction = %v, want 1", st[0].UserFraction)
	}
}

func TestLedgerConcurrent(t *testing.T) {
	l := NewLedger()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.RecordActivation("r", "u")
				l.Stats()
			}
		}(i)
	}
	wg.Wait()
	if st := l.Stats(); st[0].Activations != 800 {
		t.Errorf("Activations = %d, want 800", st[0].Activations)
	}
}

func TestProfilePruneExpiredSorted(t *testing.T) {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	p := newProfile("u")
	mk := func(id string) *rules.Rule {
		return &rules.Rule{ID: id, Type: rules.TypeRemove, Default: "x", TTL: time.Minute}
	}
	p.activate(mk("zeta"), 0, now, "s", 1)
	p.activate(mk("alpha"), 0, now, "s", 1)
	removed := p.pruneExpired(now.Add(2 * time.Minute))
	want := []expiredActivation{{ID: "alpha"}, {ID: "zeta"}}
	if !reflect.DeepEqual(removed, want) {
		t.Errorf("pruneExpired = %v, want sorted [alpha zeta]", removed)
	}
	if len(p.activeRuleIDsInto(now, nil)) != 0 {
		t.Error("activations survive pruning")
	}
}

func TestProfileActivationsFilterScopeAndExpiry(t *testing.T) {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	p := newProfile("u")
	scoped := &rules.Rule{ID: "scoped", Type: rules.TypeRemove, Default: "x", Scope: "/a/*"}
	expired := &rules.Rule{ID: "expired", Type: rules.TypeRemove, Default: "y", TTL: time.Second}
	forever := &rules.Rule{ID: "forever", Type: rules.TypeRemove, Default: "z", Scope: "*"}
	p.activate(scoped, 0, now, "s", 1)
	p.activate(expired, 0, now, "s", 1)
	p.activate(forever, 0, now, "s", 1)

	later := now.Add(time.Minute)
	acts := p.deriveEntry("/b/page.html", later, 0).acts
	if len(acts) != 1 || acts[0].Rule.ID != "forever" {
		t.Errorf("activations = %+v, want only forever", acts)
	}
	acts = p.deriveEntry("/a/page.html", later, 0).acts
	if len(acts) != 2 {
		t.Errorf("activations = %+v, want scoped+forever", acts)
	}
}

func TestProfileViolationCounts(t *testing.T) {
	p := newProfile("u")
	if p.violations["s"] != 0 {
		t.Error("fresh profile has violations")
	}
	if got := p.recordViolation("s"); got != 1 {
		t.Errorf("first recordViolation = %d", got)
	}
	if got := p.recordViolation("s"); got != 2 {
		t.Errorf("second recordViolation = %d", got)
	}
}

func TestActiveRuleExpired(t *testing.T) {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	never := &ActiveRule{}
	if never.Expired(now) {
		t.Error("zero ExpiresAt must never expire")
	}
	timed := &ActiveRule{ExpiresAt: now}
	if timed.Expired(now) {
		t.Error("not expired exactly at deadline")
	}
	if !timed.Expired(now.Add(time.Nanosecond)) {
		t.Error("expired after deadline")
	}
}

func TestLinearSelector(t *testing.T) {
	r := &rules.Rule{ID: "r", Type: rules.TypeReplaceSame, Default: "d", Alternatives: []string{"a", "b"}}
	if got := LinearSelector(r, -1, "u"); got != 0 {
		t.Errorf("first selection = %d, want 0", got)
	}
	if got := LinearSelector(r, 0, "u"); got != 1 {
		t.Errorf("second selection = %d, want 1", got)
	}
	if got := LinearSelector(r, 1, "u"); got != 1 {
		t.Errorf("saturated selection = %d, want 1", got)
	}
}

func TestHashSelectorStable(t *testing.T) {
	r := &rules.Rule{ID: "r", Type: rules.TypeReplaceSame, Default: "d", Alternatives: []string{"a", "b", "c"}}
	first := HashSelector(r, -1, "user-42")
	for i := 0; i < 5; i++ {
		if got := HashSelector(r, i, "user-42"); got != first {
			t.Errorf("HashSelector not stable: %d != %d", got, first)
		}
	}
	empty := &rules.Rule{ID: "e", Type: rules.TypeRemove, Default: "d"}
	if got := HashSelector(empty, -1, "u"); got != 0 {
		t.Errorf("HashSelector(no alts) = %d, want 0", got)
	}
}

func TestPolicyNormalized(t *testing.T) {
	p := Policy{}.normalized()
	if p.MADMultiplier != 2 || p.MinViolations != 1 || p.SelectAlternative == nil {
		t.Errorf("normalized zero policy = %+v", p)
	}
	if p.MatchLevel != MatchExternalJS || p.MatchDepth != 1 {
		t.Errorf("normalized match config = %v/%d", p.MatchLevel, p.MatchDepth)
	}
	custom := Policy{MADMultiplier: 3, MinViolations: 5, MatchLevel: MatchDirect, MatchDepth: 2}.normalized()
	if custom.MADMultiplier != 3 || custom.MinViolations != 5 || custom.MatchLevel != MatchDirect || custom.MatchDepth != 2 {
		t.Errorf("normalized custom policy = %+v", custom)
	}
}
