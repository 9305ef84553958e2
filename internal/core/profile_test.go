package core

import (
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"oak/internal/rules"
)

func TestProfilePruneExpiredSorted(t *testing.T) {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	p := newProfile("u")
	mk := func(id string) *rules.Rule {
		return &rules.Rule{ID: id, Type: rules.TypeRemove, Default: "x", TTL: time.Minute}
	}
	p.activate(mk("zeta"), 0, 0, now, "s", 1)
	p.activate(mk("alpha"), 0, 0, now, "s", 1)
	var removed []string
	for _, a := range p.pruneDead(now.Add(2*time.Minute), nil) {
		removed = append(removed, a.Rule.ID)
	}
	if want := []string{"alpha", "zeta"}; !reflect.DeepEqual(removed, want) {
		t.Errorf("pruneDead = %v, want sorted %v", removed, want)
	}
	if len(p.activeRuleIDsInto(now, nil, nil)) != 0 {
		t.Error("activations survive pruning")
	}
}

func TestProfileActivationsFilterScopeAndExpiry(t *testing.T) {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	p := newProfile("u")
	scoped := &rules.Rule{ID: "scoped", Type: rules.TypeRemove, Default: "x", Scope: "/a/*"}
	expired := &rules.Rule{ID: "expired", Type: rules.TypeRemove, Default: "y", TTL: time.Second}
	forever := &rules.Rule{ID: "forever", Type: rules.TypeRemove, Default: "z", Scope: "*"}
	p.activate(scoped, 0, 0, now, "s", 1)
	p.activate(expired, 0, 0, now, "s", 1)
	p.activate(forever, 0, 0, now, "s", 1)

	later := now.Add(time.Minute)
	acts := p.viewAt("/b/page.html", later, nil, nil).acts
	if len(acts) != 1 || acts[0].Rule.ID != "forever" {
		t.Errorf("activations = %+v, want only forever", acts)
	}
	acts = p.viewAt("/a/page.html", later, nil, nil).acts
	if len(acts) != 2 {
		t.Errorf("activations = %+v, want scoped+forever", acts)
	}
}

func TestProfileViolationCounts(t *testing.T) {
	p := newProfile("u")
	if p.violations["s"] != 0 {
		t.Error("fresh profile has violations")
	}
	if got, _ := p.recordViolation("s"); got != 1 {
		t.Errorf("first recordViolation = %d", got)
	}
	if got, _ := p.recordViolation("s"); got != 2 {
		t.Errorf("second recordViolation = %d", got)
	}
}

// TestProfileOwnsTheAddressesItKeeps: a decoded server address may be a
// view into a longer string (the report decoder hands out substrings of its
// intern entries), and a profile counts only the address's own bytes
// against maxProfileSize. So the violation key and the activation's trigger
// server it keeps must be copies, not the view.
func TestProfileOwnsTheAddressesItKeeps(t *testing.T) {
	long := "http://cdn-a.example/app.js" + strings.Repeat("x", 120) + "10.0.0.1:443"
	addr := long[len(long)-len("10.0.0.1:443"):]
	p := newProfile("u")
	if _, ok := p.recordViolation(addr); !ok {
		t.Fatal("recordViolation refused a first server")
	}
	for k := range p.violations {
		if k != addr || unsafe.StringData(k) == unsafe.StringData(addr) {
			t.Errorf("violation key %q: want a copy of the address", k)
		}
	}
	r := &rules.Rule{ID: "r", Type: rules.TypeRemove, Default: "x"}
	a := p.activate(r, 0, 0, time.Now(), addr, 1)
	if a == nil || a.TriggerServer != addr || unsafe.StringData(a.TriggerServer) == unsafe.StringData(addr) {
		t.Errorf("activation %+v: want a copy of the address as its trigger server", a)
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
