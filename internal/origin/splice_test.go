package origin

import (
	"fmt"
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

// TestServeRewriteCacheEndToEnd drives page serving end to end now that the
// rewrite cache is gone: repeat serves splice identical bytes and headers
// from the page's index, /oak/v1/metrics counts the index (one rule on one
// page) while the deprecated cache counters read zero, and a registry
// change serves the new page at once.
func TestServeRewriteCacheEndToEnd(t *testing.T) {
	engine, err := core.NewEngine([]*rules.Rule{swapRule()}, core.WithRewriteCache(64))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(engine)
	srv.SetPage("/index.html", `<html><img src="http://slow.example/x.png"></html>`)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var m MetricsResponse
	getJSON(t, ts.URL+MetricsPathV1, &m)
	if m.PageIndexEntries != 0 {
		t.Fatalf("page_index_entries = %d before any serve; registering must index nothing", m.PageIndexEntries)
	}
	postReport(t, ts.URL, "u1")

	var first, firstResp = getPageAs(t, ts.URL, "/index.html", "u1")
	if !strings.Contains(first, "fast.example") {
		t.Fatalf("page not rewritten: %q", first)
	}
	wantHint := "http://slow.example/x.png=http://fast.example/x.png"
	if h := firstResp.Header.Get(rules.CacheHintHeader); h != wantHint {
		t.Fatalf("first %s = %q, want %q", rules.CacheHintHeader, h, wantHint)
	}

	// Repeat requests, from this user and others, serve identical bytes
	// and headers.
	for i := 0; i < 3; i++ {
		body, resp := getPageAs(t, ts.URL, "/index.html", "u1")
		if body != first {
			t.Fatalf("repeat serve diverged: %q vs %q", body, first)
		}
		for _, h := range []string{rules.CacheHintHeader, "ETag"} {
			if resp.Header.Get(h) != firstResp.Header.Get(h) {
				t.Fatalf("repeat %s = %q, want %q", h, resp.Header.Get(h), firstResp.Header.Get(h))
			}
		}
		getPageAs(t, ts.URL, "/index.html", fmt.Sprintf("other-%d", i))
	}

	getJSON(t, ts.URL+MetricsPathV1, &m)
	if m.PageIndexEntries != 1 {
		t.Errorf("page_index_entries = %d after serving four users, want 1 (one rule on one page)", m.PageIndexEntries)
	}
	if m.RewriteCacheHits != 0 || m.RewriteCacheMisses != 0 || m.RewriteCacheBytes != 0 {
		t.Errorf("deprecated rewrite-cache counters moved: %+v", m)
	}

	// A registry change serves the new page, and drops the old index.
	srv.SetPage("/index.html", `<html><p>new content, nothing to rewrite</p></html>`)
	body, _ := getPageAs(t, ts.URL, "/index.html", "u1")
	if !strings.Contains(body, "new content") {
		t.Errorf("stale page served after registry change: %q", body)
	}
	getJSON(t, ts.URL+MetricsPathV1, &m)
	if m.PageIndexEntries != 0 {
		t.Errorf("page_index_entries = %d for a page no rule occurs on", m.PageIndexEntries)
	}
}

// TestServeRewriteCacheDisabledIdentical serves the same traffic with and
// without the deprecated cache option and requires identical bytes and
// headers, entity tags included: the option changes nothing.
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
		for _, h := range []string{rules.CacheHintHeader, "ETag"} {
			if ha, hb := ra.Header.Get(h), rb.Header.Get(h); ha != hb || h == "ETag" && ha == "" {
				t.Fatalf("pass %d: %s %q != %q", i, h, ha, hb)
			}
		}
	}
	var m MetricsResponse
	getJSON(t, plain.URL+MetricsPathV1, &m)
	if m.RewriteCacheHits != 0 || m.RewriteCacheMisses != 0 || m.RewriteCacheBytes != 0 {
		t.Errorf("rewrite-cache counters moved: %+v", m)
	}
}
