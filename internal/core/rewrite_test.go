package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"oak/internal/rules"
)

const rewriteTestPage = `<html><body>
<script src="http://s1.com/jquery.js"></script>
<p>content</p>
</body></html>`

// activatedEngine builds an engine with a TTL'd jquery rule activated for
// user "u1" via a real report.
func activatedEngine(t *testing.T, ttl time.Duration, opts ...Option) (*Engine, *testClock) {
	t.Helper()
	clock := newTestClock()
	opts = append([]Option{WithClock(clock.Now)}, opts...)
	e, err := NewEngine([]*rules.Rule{jqRule(ttl)}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	return e, clock
}

func TestRewritePageMatchesModifyPage(t *testing.T) {
	e, _ := activatedEngine(t, 0)
	rw := e.RewritePage("u1", "/index.html", rewriteTestPage)
	out, applied := e.ModifyPage("u1", "/index.html", rewriteTestPage)
	if rw.HTML != out {
		t.Errorf("RewritePage HTML %q != ModifyPage %q", rw.HTML, out)
	}
	if len(rw.Applied) != len(applied) {
		t.Errorf("Applied mismatch: %+v vs %+v", rw.Applied, applied)
	}
	if want := rules.CacheHintValue(applied); rw.Hint != want {
		t.Errorf("Hint = %q, want %q", rw.Hint, want)
	}
	if !strings.Contains(rw.HTML, "s2.net") {
		t.Errorf("rewrite did not apply: %q", rw.HTML)
	}
}

func TestRewritePageUnknownUserNoOp(t *testing.T) {
	e, _ := activatedEngine(t, 0)
	rw := e.RewritePage("nobody", "/index.html", rewriteTestPage)
	if rw.HTML != rewriteTestPage || rw.Applied != nil || rw.Hint != "" || rw.CacheHit || rw.ETag != "" {
		t.Errorf("unknown user rewrite = %+v", rw)
	}
}

// TestActivationExpiryBoundary: a rule lapsing exactly between two serves —
// with no ingest in between — must show on the first serve past the deadline,
// for a resident and a spilled user, with the deprecated WithRewriteCache
// option given and not (it must change nothing). Each serve derives the
// user's activations at its own instant and splices from the page's index,
// so there is nothing to invalidate.
func TestActivationExpiryBoundary(t *testing.T) {
	for _, layout := range []string{"resident", "spilled"} {
		for _, cache := range []int{16, 0} {
			t.Run(fmt.Sprintf("%s/cache=%d", layout, cache), func(t *testing.T) {
				opts := []Option{WithRewriteCache(cache)}
				if layout == "spilled" {
					opts = append(opts, WithShards(1),
						WithProfileResidency(ResidencyConfig{Dir: t.TempDir(), MaxProfiles: 1}))
				}
				e, clock := activatedEngine(t, time.Minute, opts...)
				t.Cleanup(func() { e.Close() })
				e.SetPage("/index.html", rewriteTestPage)
				if layout == "spilled" {
					forceSpill(t, e, "u1")
				}
				var tag string
				serve := func(when string, wantRule bool) {
					t.Helper()
					rw := e.RewritePage("u1", "/index.html", rewriteTestPage)
					if got := strings.Contains(rw.HTML, "s2.net"); got != wantRule {
						t.Fatalf("%s: rewrite applied the rule = %v, want %v: %q", when, got, wantRule, rw.HTML)
					}
					if rw.CacheHit {
						t.Fatalf("%s: CacheHit set; there is no rewrite cache", when)
					}
					if wantRule && (rw.ETag == "" || tag != "" && rw.ETag != tag) {
						t.Fatalf("%s: ETag %q, want the rewrite's derived tag (first %q)", when, rw.ETag, tag)
					}
					if wantRule {
						tag = rw.ETag
					}
					if !wantRule && (rw.HTML != rewriteTestPage || rw.Applied != nil || rw.ETag != "") {
						t.Fatalf("%s: rewrite = %+v, want the untouched page", when, rw)
					}
					n, fp := len(e.ActiveRules("u1", "/index.html")), e.ActivationFingerprint("u1", "/index.html")
					if wantRule != (n == 1) || wantRule != (fp != 0) {
						t.Fatalf("%s: %d active rules, fingerprint %d; want the rule live = %v", when, n, fp, wantRule)
					}
				}
				serve("before expiry", true)
				serve("again", true)
				// At exactly ExpiresAt the rule is still active (Expired uses After).
				clock.Advance(time.Minute)
				serve("at the exact expiry instant", true)
				// One nanosecond past the deadline the activation is gone, on the
				// first serve, with no ingest.
				clock.Advance(time.Nanosecond)
				serve("past the deadline", false)
				if got := e.Residency("u1"); got != layout {
					t.Errorf("Residency(u1) = %q after serving, want %q", got, layout)
				}
			})
		}
	}
}

// TestRewriteTagIsDerivedNotHashed: a rewritten registered page carries a tag
// derived from what decides its bytes, not a hash of them: stable from serve
// to serve, the same on a second engine built from the same rules, and a new
// one when the page changes. The deprecated cache counters read zero.
func TestRewriteTagIsDerivedNotHashed(t *testing.T) {
	e, _ := activatedEngine(t, 0, WithRewriteCache(16))
	twin, _ := activatedEngine(t, 0)
	for _, en := range []*Engine{e, twin} {
		en.SetPage("/index.html", rewriteTestPage)
	}
	rw := e.RewritePage("u1", "/index.html", rewriteTestPage)
	if rw.ETag == "" || rw.ETag == ContentTag(rw.HTML) || rw.CacheHit {
		t.Fatalf("rewrite = %+v, want a derived tag and no cache hit", rw)
	}
	for i, other := range []Rewrite{
		e.RewritePage("u1", "/index.html", rewriteTestPage),
		twin.RewritePage("u1", "/index.html", rewriteTestPage),
	} {
		if other.ETag != rw.ETag || other.HTML != rw.HTML || other.Hint != rw.Hint {
			t.Fatalf("serve %d = %+v, want the first's bytes and tag %s", i, other, rw.ETag)
		}
	}
	changed := rewriteTestPage + "<!-- v2 -->"
	e.SetPage("/index.html", changed)
	if rw2 := e.RewritePage("u1", "/index.html", changed); rw2.ETag == "" || rw2.ETag == rw.ETag {
		t.Fatalf("changed page tag %q, want a new tag (old %q)", rw2.ETag, rw.ETag)
	}
	// A body the engine does not hold is spliced all the same, untagged.
	if rw3 := e.RewritePage("u1", "/index.html", rewriteTestPage); rw3.ETag != "" || rw3.HTML != rw.HTML {
		t.Fatalf("unregistered body: %+v", rw3)
	}
	if st := e.RewriteCacheStats(); st != (RewriteCacheStats{}) {
		t.Errorf("rewrite cache stats = %+v, want zero", st)
	}
}

func TestRewriteCacheDisabledIdenticalBehavior(t *testing.T) {
	eCached, _ := activatedEngine(t, 0, WithRewriteCache(64))
	ePlain, _ := activatedEngine(t, 0, WithRewriteCache(0))
	eCached.SetPage("/index.html", rewriteTestPage)
	ePlain.SetPage("/index.html", rewriteTestPage)

	for i := 0; i < 3; i++ {
		a := eCached.RewritePage("u1", "/index.html", rewriteTestPage)
		b := ePlain.RewritePage("u1", "/index.html", rewriteTestPage)
		if a.HTML != b.HTML || a.Hint != b.Hint || len(a.Applied) != len(b.Applied) || a.ETag != b.ETag {
			t.Fatalf("pass %d: cached %+v != plain %+v", i, a, b)
		}
		if a.CacheHit || b.CacheHit {
			t.Fatal("a rewrite reported a cache hit; there is no rewrite cache")
		}
	}
	if st := ePlain.RewriteCacheStats(); st != (RewriteCacheStats{}) {
		t.Errorf("cache stats = %+v, want zero", st)
	}
}

// TestContentTagIsAFunctionOfTheBytes pins the tag format and value: a strong
// validator over 128 bits of SHA-256, the same in every process — backends
// and restarts must agree on it, so it may never depend on a seed.
func TestContentTagIsAFunctionOfTheBytes(t *testing.T) {
	for body, want := range map[string]string{
		"":    `"e3b0c44298fc1c149afbf4c8996fb924"`,
		"abc": `"ba7816bf8f01cfea414140de5dae2223"`,
	} {
		if got := ContentTag(body); got != want {
			t.Errorf("ContentTag(%q) = %s, want %s", body, got, want)
		}
	}
	if ContentTag(rewriteTestPage) == ContentTag(rewriteTestPage+" ") {
		t.Error("different bytes, same tag")
	}
}

func TestRewriteCachedFastPath(t *testing.T) {
	e, _ := activatedEngine(t, 0, WithRewriteCache(64))

	// Unknown user: servable without computing anything.
	rw, ok := e.RewriteCached("nobody", "/index.html", rewriteTestPage)
	if !ok || rw.HTML != rewriteTestPage {
		t.Fatalf("RewriteCached(nobody) = (%+v, %v), want no-op ok", rw, ok)
	}
	// Active user, lock free, resident: spliced on the spot, first time.
	want := e.RewritePage("u1", "/index.html", rewriteTestPage)
	rw, ok = e.RewriteCached("u1", "/index.html", rewriteTestPage)
	if !ok || rw.CacheHit || rw.HTML != want.HTML || !strings.Contains(rw.HTML, "s2.net") {
		t.Fatalf("RewriteCached(u1) = (%+v, %v), want the rewrite", rw, ok)
	}
	// Shard lock held by ingest: declines instead of waiting.
	sh := e.shardFor("u1")
	sh.mu.Lock()
	_, ok = e.RewriteCached("u1", "/index.html", rewriteTestPage)
	sh.mu.Unlock()
	if ok {
		t.Fatal("RewriteCached waited for a held shard lock")
	}
}

func TestRewriteCachedNoCacheConfigured(t *testing.T) {
	e, _ := activatedEngine(t, 0)
	// No cache configured, none needed: both users are served.
	if rw, ok := e.RewriteCached("u1", "/index.html", rewriteTestPage); !ok || !strings.Contains(rw.HTML, "s2.net") {
		t.Fatalf("RewriteCached(u1) = (%+v, %v), want the rewrite", rw, ok)
	}
	if rw, ok := e.RewriteCached("nobody", "/index.html", rewriteTestPage); !ok || rw.HTML != rewriteTestPage {
		t.Fatalf("RewriteCached(nobody) = (%+v, %v)", rw, ok)
	}
}

// TestRewriteNoOpPathZeroAlloc is the acceptance criterion that serving a
// user with no activations allocates nothing.
func TestRewriteNoOpPathZeroAlloc(t *testing.T) {
	e, _ := activatedEngine(t, 0, WithRewriteCache(64))
	// Users that have reported but activated nothing also take the no-op
	// path; exercise the stricter profile-less variant and the cached-entry
	// variant.
	e.RewritePage("nobody", "/index.html", rewriteTestPage) // warm (first call may build cache state)
	if allocs := testing.AllocsPerRun(200, func() {
		e.RewritePage("nobody", "/index.html", rewriteTestPage)
	}); allocs != 0 {
		t.Errorf("no-profile RewritePage allocates %v/call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, ok := e.RewriteCached("nobody", "/index.html", rewriteTestPage); !ok {
			t.Fatal("fast path declined")
		}
	}); allocs != 0 {
		t.Errorf("no-profile RewriteCached allocates %v/call, want 0", allocs)
	}
	e.SetPage("/index.html", rewriteTestPage)
	p := e.Page("/index.html")
	if allocs := testing.AllocsPerRun(200, func() {
		if plan, ok := e.ServePage("nobody", p, false); !ok || plan.Length != len(rewriteTestPage) {
			t.Fatalf("ServePage(nobody) = (%+v, %v)", plan, ok)
		}
	}); allocs != 0 {
		t.Errorf("no-profile ServePage allocates %v/call, want 0", allocs)
	}
}

// TestModifyPageConcurrentWithIngest hammers the serve path against
// ingest-driven activation changes and TTL expiry; run with -race this
// checks that a view derived under the read lock shares nothing ingest
// writes, and that the rewrite cache publishes entries safely.
func TestModifyPageConcurrentWithIngest(t *testing.T) {
	clock := newTestClock()
	e, err := NewEngine([]*rules.Rule{jqRule(50 * time.Millisecond)},
		WithClock(clock.Now), WithRewriteCache(32))
	if err != nil {
		t.Fatal(err)
	}
	const (
		users   = 4
		readers = 4
		iters   = 300
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Clock mover: expire activations mid-flight. Stopped after the
	// workers finish.
	var clockWG sync.WaitGroup
	clockWG.Add(1)
	go func() {
		defer clockWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clock.Advance(10 * time.Millisecond)
			}
		}
	}()
	// Ingest writers: re-activate rules (epoch bumps under write lock).
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			user := fmt.Sprintf("u%d", u)
			for i := 0; i < iters; i++ {
				if _, err := e.HandleReport(slowS1Report(user)); err != nil {
					t.Error(err)
					return
				}
			}
		}(u)
	}
	// Serve readers: ModifyPage + the cached fast path, checking invariants.
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters*2; i++ {
				user := fmt.Sprintf("u%d", (g+i)%users)
				out, applied := e.ModifyPage(user, "/index.html", rewriteTestPage)
				if len(applied) > 0 && applied[0].Replacements > 0 {
					if !strings.Contains(out, "s2.net") || strings.Contains(out, "s1.com") {
						t.Errorf("inconsistent rewrite: applied=%+v out=%q", applied, out)
						return
					}
				} else if out != rewriteTestPage {
					t.Errorf("no-op rewrite changed the page: %q", out)
					return
				}
				if rw, ok := e.RewriteCached(user, "/index.html", rewriteTestPage); ok {
					if rw.HTML != rewriteTestPage && !strings.Contains(rw.HTML, "s2.net") {
						t.Errorf("cached rewrite inconsistent: %q", rw.HTML)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	clockWG.Wait()
}
