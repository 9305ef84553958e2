package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oak/internal/report"
	"oak/internal/rules"
	"oak/internal/webgen"
)

// TestEnginesBuiltConcurrentlyFromOneRuleSet: an engine compiles copies of
// the rules it is given and never writes the caller's, so four engines built
// at once from one parsed rule set — or from one built in code, never
// compiled — share nothing mutable (run it under -race). The four serve a
// page alike, under one tag.
func TestEnginesBuiltConcurrentlyFromOneRuleSet(t *testing.T) {
	parsed, err := rules.ParseJSON(mustMarshal(t, benchServeRules(4)))
	if err != nil {
		t.Fatal(err)
	}
	page := benchServePage(parsed)
	for name, rs := range map[string][]*rules.Rule{"parsed": parsed, "built in code": benchServeRules(4)} {
		var engines [4]*Engine
		var errs [4]error
		var wg sync.WaitGroup
		for i := range engines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				engines[i], errs[i] = NewEngine(rs)
			}()
		}
		wg.Wait()
		var tag, body string
		for i, e := range engines {
			if errs[i] != nil {
				t.Fatalf("%s: engine %d: %v", name, i, errs[i])
			}
			for j, r := range e.Rules() {
				if r == rs[j] {
					t.Fatalf("%s: engine %d holds the caller's rule %s itself, not a copy", name, i, r.ID)
				}
			}
			if _, err := e.HandleReport(activatingReport(rs, "u1")); err != nil {
				t.Fatal(err)
			}
			e.SetPage("/p.html", page)
			plan, _ := e.ServePage("u1", e.Page("/p.html"), true)
			got := strings.Join(plan.Segments, "")
			if i == 0 {
				tag, body = plan.ETag, got
			}
			if plan.ETag == "" || plan.ETag != tag || got != body || len(plan.Applied) != len(rs) {
				t.Fatalf("%s: engine %d serves %d bytes under %q (%d applied), engine 0 %d under %q",
					name, i, len(got), plan.ETag, len(plan.Applied), len(body), tag)
			}
		}
	}
}

// activatingReport is a report that activates every rule of rs for uid:
// each rule's host is slow against twice as many healthy peers.
func activatingReport(rs []*rules.Rule, uid string) *report.Report {
	times := map[string]float64{}
	for i := 0; i < 2*len(rs); i++ {
		times[fmt.Sprintf("peer%d.example", i)] = 100 + float64(i)
	}
	for _, r := range rs {
		host := strings.SplitN(strings.SplitN(r.Default, "//", 2)[1], "/", 2)[0]
		times[host] = 2000
	}
	return loadReport(uid, times)
}

func mustMarshal(t *testing.T, rs []*rules.Rule) []byte {
	t.Helper()
	b, err := rules.MarshalJSON(rs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDerivedTagsAreSound serves every activation subset × alternative of a
// webgen rule set on the twelve webgen pages — per page, every subset of up
// to six rules that occur on it plus one that does not — and holds:
//
//   - the body is what the sequential reference rules.Apply writes, and
//     Length is its length;
//   - the untouched page goes out under ContentTag(page), a rewrite under a
//     derived tag, and equal tags mean equal bytes, across pages and sets;
//   - a second engine from the same rule file, and an engine rebooted from
//     the first one's saved state, give every serve the same tag;
//   - a serve whose splice panicked goes out with no tag.
func TestDerivedTagsAreSound(t *testing.T) {
	gen := webgen.NewGenerator(webgen.Config{Seed: 7, NumSites: 1, PagesPerSite: 12, MinExternalHosts: 12, MaxExternalHosts: 12})
	site := gen.Site(0)
	ruleFile := mustMarshal(t, webgen.BuildRules(site, []string{"na", "eu", "as"}))
	newEngine := func() *Engine {
		t.Helper()
		rs, err := rules.ParseJSON(ruleFile)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(rs, WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range site.Pages {
			e.SetPage(p.Path, p.HTML)
		}
		return e
	}
	primary, twin := newEngine(), newEngine()

	// One user per (page, subset, alternative pattern), activated alike on
	// the primary and the twin.
	type serve struct {
		user, path string
		acts       []rules.Activation // the primary's, sorted by rule ID
	}
	var serves []serve
	now := time.Now()
	for _, p := range site.Pages {
		var on []*rules.Rule
		var off *rules.Rule
		for _, r := range primary.rules {
			switch {
			case strings.Contains(p.HTML, r.Default) && len(on) < 6:
				on = append(on, r)
			case !strings.Contains(p.HTML, r.Default) && off == nil:
				off = r
			}
		}
		if off != nil {
			on = append(on, off)
		}
		for mask := 0; mask < 1<<len(on); mask++ {
			for pattern := 0; pattern < 4; pattern++ {
				uid := fmt.Sprintf("%s/%d/%d", p.Path, mask, pattern)
				var acts []rules.Activation
				for i, r := range on {
					if mask&(1<<i) == 0 {
						continue
					}
					alt := pattern // 0, 1, 2: one alternative for all; 3: mixed
					if pattern == 3 {
						alt = i % 3
					}
					acts = append(acts, rules.Activation{Rule: r, AltIndex: alt})
					for _, e := range []*Engine{primary, twin} {
						sh := e.shardFor(uid)
						sh.mu.Lock()
						e.profileLocked(sh, uid).activate(e.rulesByID[r.ID], alt, now, "s", 1)
						sh.mu.Unlock()
					}
				}
				serves = append(serves, serve{uid, p.Path, primary.ActiveRules(uid, p.Path)})
			}
		}
	}

	statePath := filepath.Join(t.TempDir(), "state.json")
	if err := primary.SaveStateFile(statePath); err != nil {
		t.Fatal(err)
	}
	rebooted := newEngine()
	if _, err := rebooted.LoadStateFile(statePath); err != nil {
		t.Fatal(err)
	}

	bodyOf := map[string]string{} // tag → bytes
	rewritten := 0
	for _, s := range serves {
		p := primary.Page(s.path)
		html := p.html
		plan, _ := primary.ServePage(s.user, p, true)
		got := strings.Join(plan.Segments, "")
		want, applied := rules.Apply(html, s.path, s.acts)
		if got != want || plan.Length != len(got) || len(plan.Applied) != len(applied) {
			t.Fatalf("%s: %d bytes (Length %d, %d applied), the reference writes %d (%d applied)",
				s.user, len(got), plan.Length, len(plan.Applied), len(want), len(applied))
		}
		switch {
		case applied == nil && plan.ETag != ContentTag(html):
			t.Fatalf("%s: untouched page under %q, want its own tag", s.user, plan.ETag)
		case applied != nil && (plan.ETag == "" || plan.ETag == ContentTag(html)):
			t.Fatalf("%s: rewrite under %q, want a derived tag", s.user, plan.ETag)
		}
		if applied != nil {
			rewritten++
		}
		if prev, seen := bodyOf[plan.ETag]; seen && prev != got {
			t.Fatalf("%s: tag %s names two different bodies", s.user, plan.ETag)
		}
		bodyOf[plan.ETag] = got
		for name, other := range map[string]*Engine{"twin": twin, "rebooted": rebooted} {
			if op, _ := other.ServePage(s.user, other.Page(s.path), true); op.ETag != plan.ETag {
				t.Fatalf("%s: %s engine tags it %q, the primary %q", s.user, name, op.ETag, plan.ETag)
			}
		}
	}
	t.Logf("%d serves, %d rewritten, %d distinct tags", len(serves), rewritten, len(bodyOf))
	if rewritten == 0 || len(bodyOf) < 2*len(site.Pages) {
		t.Fatalf("%d rewrites under %d tags: the sweep proved nothing", rewritten, len(bodyOf))
	}

	// The panic path: the splice panics once, the per-rule pass succeeds.
	var fired atomic.Bool
	rules.SetApplyFailpoint(func(string) bool { return fired.CompareAndSwap(false, true) })
	defer rules.SetApplyFailpoint(nil)
	for _, s := range serves {
		if len(s.acts) == 0 || !primary.Page(s.path).prepare().Occurs(s.acts[0].Rule) {
			continue
		}
		p := primary.Page(s.path)
		plan, _ := primary.ServePage(s.user, p, true)
		want, _ := rules.Apply(p.html, s.path, s.acts)
		if !fired.Load() || plan.ETag != "" || strings.Join(plan.Segments, "") != want {
			t.Fatalf("%s: panic path (fired %v) serves %d bytes under %q, want the rewrite untagged", s.user, fired.Load(), plan.Length, plan.ETag)
		}
		break
	}
}
