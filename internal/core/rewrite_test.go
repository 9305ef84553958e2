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
// for a resident and a spilled user, with the rewrite cache on and off. Each
// serve derives the user's activations at its own instant, so there is
// nothing to invalidate; a rewrite cache entry for the old activation set
// simply stops being asked for.
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
				if layout == "spilled" {
					forceSpill(t, e, "u1")
				}
				serve := func(when string, wantRule, wantHit bool) {
					t.Helper()
					rw := e.RewritePage("u1", "/index.html", rewriteTestPage)
					if got := strings.Contains(rw.HTML, "s2.net"); got != wantRule {
						t.Fatalf("%s: rewrite applied the rule = %v, want %v: %q", when, got, wantRule, rw.HTML)
					}
					if rw.CacheHit != wantHit {
						t.Fatalf("%s: CacheHit = %v, want %v", when, rw.CacheHit, wantHit)
					}
					if !wantRule && (rw.HTML != rewriteTestPage || rw.Applied != nil || rw.ETag != "") {
						t.Fatalf("%s: rewrite = %+v, want the untouched page", when, rw)
					}
					n, fp := len(e.ActiveRules("u1", "/index.html")), e.ActivationFingerprint("u1", "/index.html")
					if wantRule != (n == 1) || wantRule != (fp != 0) {
						t.Fatalf("%s: %d active rules, fingerprint %d; want the rule live = %v", when, n, fp, wantRule)
					}
				}
				serve("before expiry", true, false)
				serve("warm", true, cache > 0)
				// At exactly ExpiresAt the rule is still active (Expired uses After).
				clock.Advance(time.Minute)
				serve("at the exact expiry instant", true, cache > 0)
				// One nanosecond past the deadline the activation is gone, on the
				// first serve, with no ingest.
				clock.Advance(time.Nanosecond)
				serve("past the deadline", false, false)
				if got := e.Residency("u1"); got != layout {
					t.Errorf("Residency(u1) = %q after serving, want %q", got, layout)
				}
			})
		}
	}
}

func TestRewriteCacheHitMissEviction(t *testing.T) {
	e, _ := activatedEngine(t, 0, WithRewriteCache(rewriteCacheShards)) // 1 entry per shard

	rw := e.RewritePage("u1", "/index.html", rewriteTestPage)
	if rw.CacheHit {
		t.Fatal("first rewrite cannot be a cache hit")
	}
	if rw.ETag != ContentTag(rw.HTML) {
		t.Fatalf("stored rewrite ETag = %q, want the tag of its output %q", rw.ETag, ContentTag(rw.HTML))
	}
	rw2 := e.RewritePage("u1", "/index.html", rewriteTestPage)
	if !rw2.CacheHit || rw2.HTML != rw.HTML || rw2.Hint != rw.Hint || rw2.ETag != rw.ETag {
		t.Fatalf("second rewrite = %+v, want cache hit identical to first", rw2)
	}
	st := e.RewriteCacheStats()
	if st.Hits != 1 || st.Misses != 1 || !st.Enabled {
		t.Errorf("stats after hit = %+v", st)
	}
	if st.Bytes <= 0 || st.Entries != 1 {
		t.Errorf("stats accounting = %+v, want positive bytes and 1 entry", st)
	}

	// Distinct page contents eventually collide on a shard (1 entry each)
	// and evict.
	for i := 0; i < 64; i++ {
		page := fmt.Sprintf("%s<!-- v%d -->", rewriteTestPage, i)
		e.RewritePage("u1", "/index.html", page)
	}
	if st = e.RewriteCacheStats(); st.Evictions == 0 {
		t.Errorf("no evictions after overfilling: %+v", st)
	}
	if st.Entries > rewriteCacheShards {
		t.Errorf("entries %d exceed capacity %d", st.Entries, rewriteCacheShards)
	}

	e.FlushRewriteCache()
	if st = e.RewriteCacheStats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("stats after flush = %+v, want empty", st)
	}
}

func TestRewriteCacheDisabledIdenticalBehavior(t *testing.T) {
	eCached, _ := activatedEngine(t, 0, WithRewriteCache(64))
	ePlain, _ := activatedEngine(t, 0, WithRewriteCache(0))

	for i := 0; i < 3; i++ {
		a := eCached.RewritePage("u1", "/index.html", rewriteTestPage)
		b := ePlain.RewritePage("u1", "/index.html", rewriteTestPage)
		if a.HTML != b.HTML || a.Hint != b.Hint || len(a.Applied) != len(b.Applied) {
			t.Fatalf("pass %d: cached %+v != plain %+v", i, a, b)
		}
		if b.CacheHit {
			t.Fatal("disabled cache reported a hit")
		}
		if b.ETag != "" {
			t.Fatalf("a rewrite no cache holds carries ETag %q; nothing may hash per request", b.ETag)
		}
	}
	if st := ePlain.RewriteCacheStats(); st.Enabled || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("disabled cache stats = %+v, want zero", st)
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
	// Active user, cold cache: must decline.
	if _, ok := e.RewriteCached("u1", "/index.html", rewriteTestPage); ok {
		t.Fatal("RewriteCached served a rewrite it should have declined to compute")
	}
	e.RewritePage("u1", "/index.html", rewriteTestPage)
	rw, ok = e.RewriteCached("u1", "/index.html", rewriteTestPage)
	if !ok || !rw.CacheHit || !strings.Contains(rw.HTML, "s2.net") {
		t.Fatalf("RewriteCached after warm = (%+v, %v), want cache hit", rw, ok)
	}
}

func TestRewriteCachedNoCacheConfigured(t *testing.T) {
	e, _ := activatedEngine(t, 0)
	// No cache: active user always declines, no-activation user still served.
	if _, ok := e.RewriteCached("u1", "/index.html", rewriteTestPage); ok {
		t.Fatal("RewriteCached computed a rewrite without a cache")
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
