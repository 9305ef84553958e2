package origin

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"oak/internal/core"
	"oak/internal/rules"
)

// getPageAs fetches path as the given user and returns body + response.
func getPageAs(t *testing.T, tsURL, path, user string) (string, *http.Response) {
	t.Helper()
	resp, body := fetch(t, http.MethodGet, tsURL+path, user, "")
	return body, resp
}

// TestServeRewriteCacheEndToEnd drives page serving through the cached fast
// path and checks the /oak/v1/metrics counters and the precomputed
// X-Oak-Alternate header survive caching.
func TestServeRewriteCacheEndToEnd(t *testing.T) {
	engine, err := core.NewEngine([]*rules.Rule{swapRule()}, core.WithRewriteCache(64))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(engine)
	srv.SetPage("/index.html", `<html><img src="http://slow.example/x.png"></html>`)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	postReport(t, ts.URL, "u1")

	var first, firstResp = getPageAs(t, ts.URL, "/index.html", "u1")
	if !strings.Contains(first, "fast.example") {
		t.Fatalf("page not rewritten: %q", first)
	}
	wantHint := "http://slow.example/x.png=http://fast.example/x.png"
	if h := firstResp.Header.Get(rules.CacheHintHeader); h != wantHint {
		t.Fatalf("first %s = %q, want %q", rules.CacheHintHeader, h, wantHint)
	}

	// Repeat requests must serve identical bytes and headers from cache.
	for i := 0; i < 3; i++ {
		body, resp := getPageAs(t, ts.URL, "/index.html", "u1")
		if body != first {
			t.Fatalf("cached serve diverged: %q vs %q", body, first)
		}
		if h := resp.Header.Get(rules.CacheHintHeader); h != wantHint {
			t.Fatalf("cached %s = %q, want %q", rules.CacheHintHeader, h, wantHint)
		}
	}

	var m MetricsResponse
	getJSON(t, ts.URL+MetricsPathV1, &m)
	if m.RewriteCacheHits == 0 {
		t.Errorf("rewrite_cache_hits = 0 after repeat serves; metrics = %+v", m)
	}
	if m.RewriteCacheMisses == 0 {
		t.Error("rewrite_cache_misses = 0, want at least the first computation")
	}
	if m.RewriteCacheEntries == 0 || m.RewriteCacheBytes <= 0 {
		t.Errorf("cache occupancy missing from metrics: entries=%d bytes=%d",
			m.RewriteCacheEntries, m.RewriteCacheBytes)
	}

	// A registry change flushes the cache.
	srv.SetPage("/index.html", `<html><p>new content, nothing to rewrite</p></html>`)
	getJSON(t, ts.URL+MetricsPathV1, &m)
	if m.RewriteCacheEntries != 0 || m.RewriteCacheBytes != 0 {
		t.Errorf("cache not flushed on SetPage: entries=%d bytes=%d",
			m.RewriteCacheEntries, m.RewriteCacheBytes)
	}
	body, _ := getPageAs(t, ts.URL, "/index.html", "u1")
	if !strings.Contains(body, "new content") {
		t.Errorf("stale page served after registry change: %q", body)
	}
}

// TestServeRewriteCacheDisabledIdentical serves the same traffic with and
// without the cache and requires identical bytes and headers (acceptance:
// -rewrite-cache 0 behaves exactly like today).
func TestServeRewriteCacheDisabledIdentical(t *testing.T) {
	page := `<html><img src="http://slow.example/x.png"></html>`
	build := func(cacheEntries int) (*httptest.Server, func()) {
		engine, err := core.NewEngine([]*rules.Rule{swapRule()}, core.WithRewriteCache(cacheEntries))
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(engine)
		srv.SetPage("/index.html", page)
		ts := httptest.NewServer(srv)
		return ts, ts.Close
	}
	cached, closeCached := build(64)
	defer closeCached()
	plain, closePlain := build(0)
	defer closePlain()

	postReport(t, cached.URL, "u1")
	postReport(t, plain.URL, "u1")
	for i := 0; i < 3; i++ {
		a, ra := getPageAs(t, cached.URL, "/index.html", "u1")
		b, rb := getPageAs(t, plain.URL, "/index.html", "u1")
		if a != b {
			t.Fatalf("pass %d: cached body %q != plain body %q", i, a, b)
		}
		if ha, hb := ra.Header.Get(rules.CacheHintHeader), rb.Header.Get(rules.CacheHintHeader); ha != hb {
			t.Fatalf("pass %d: hint %q != %q", i, ha, hb)
		}
	}
	var m MetricsResponse
	getJSON(t, plain.URL+MetricsPathV1, &m)
	if m.RewriteCacheHits != 0 || m.RewriteCacheMisses != 0 || m.RewriteCacheEntries != 0 {
		t.Errorf("disabled cache reported activity: %+v", m)
	}
}
