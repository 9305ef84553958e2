package origin

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"oak/internal/core"
	"oak/internal/obs"
	"oak/internal/rules"
)

const taggedPage = `<html><img src="http://slow.example/x.png"><p>body</p></html>`

// fetch performs one page request as user with the given If-None-Match
// ("" sends none) and returns the response and its body.
func fetch(t *testing.T, method, url, user, ifNoneMatch string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if user != "" {
		req.AddCookie(&http.Cookie{Name: CookieName, Value: user})
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// decisions is everything the engine records about page serves; a 304 must
// move each of them exactly as a 200 does.
type decisions struct {
	modified, untouched, rewrites, rewriteEvents uint64
}

func decisionsOf(e *core.Engine) decisions {
	m := e.Metrics()
	d := decisions{modified: m.PagesModified, untouched: m.PagesUntouched, rewrites: e.Latencies().Rewrite.Count}
	for _, ev := range e.TraceRecent(1 << 20) {
		if ev.Kind == obs.EventRewrite {
			d.rewriteEvents++
		}
	}
	return d
}

func (d decisions) minus(o decisions) decisions {
	return decisions{d.modified - o.modified, d.untouched - o.untouched, d.rewrites - o.rewrites, d.rewriteEvents - o.rewriteEvents}
}

// TestPageEntityTag: every page body is served under the content tag of its
// bytes, and a GET that lists the tag gets a bodyless 304 after the same
// per-user decision and accounting as a 200.
func TestPageEntityTag(t *testing.T) {
	engine, err := core.NewEngine([]*rules.Rule{swapRule()}, core.WithRewriteCache(64))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	srv := NewServer(engine)
	srv.SetPage("/index.html", taggedPage)
	if srv.pages["/index.html"].tag != "" {
		t.Fatal("SetPage hashed the page; the tag must wait for the first serve")
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	postReport(t, ts.URL, "activated")
	url := ts.URL + "/index.html"

	for _, user := range []string{"healthy", "activated"} {
		before := decisionsOf(engine)
		full, body := fetch(t, http.MethodGet, url, user, "")
		perServe := decisionsOf(engine).minus(before)
		tag := full.Header.Get("ETag")
		if full.StatusCode != http.StatusOK || tag != core.ContentTag(body) {
			t.Fatalf("%s: status %d, ETag %q, want 200 and %q", user, full.StatusCode, tag, core.ContentTag(body))
		}
		if cc := full.Header.Get("Cache-Control"); cc != "private, no-cache" {
			t.Errorf("%s: Cache-Control = %q", user, cc)
		}
		if rewritten := strings.Contains(body, "fast.example"); rewritten != (user == "activated") {
			t.Fatalf("%s: rewritten = %v", user, rewritten)
		}

		for _, tc := range []struct {
			name, method, ifNoneMatch string
			want                      int
		}{
			{"exact", http.MethodGet, tag, http.StatusNotModified},
			{"listed", http.MethodGet, `"0123", ` + tag + ` , "4567"`, http.StatusNotModified},
			{"other tag", http.MethodGet, `"00000000000000000000000000000000"`, http.StatusOK},
			{"weak form", http.MethodGet, "W/" + tag, http.StatusOK},
			{"star", http.MethodGet, "*", http.StatusOK},
			{"unquoted", http.MethodGet, strings.Trim(tag, `"`), http.StatusOK},
			{"head", http.MethodHead, tag, http.StatusOK},
		} {
			before := decisionsOf(engine)
			resp, got := fetch(t, tc.method, url, user, tc.ifNoneMatch)
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s: status %d, want %d", user, tc.name, resp.StatusCode, tc.want)
				continue
			}
			if d := decisionsOf(engine).minus(before); d != perServe {
				t.Errorf("%s %s: engine accounting %+v, a plain 200 records %+v", user, tc.name, d, perServe)
			}
			for _, h := range []string{"ETag", "Cache-Control", rules.CacheHintHeader} {
				if resp.Header.Get(h) != full.Header.Get(h) {
					t.Errorf("%s %s: %s = %q, the 200 carries %q", user, tc.name, h, resp.Header.Get(h), full.Header.Get(h))
				}
			}
			wantBody := body
			if tc.want == http.StatusNotModified || tc.method == http.MethodHead {
				wantBody = ""
			}
			if got != wantBody {
				t.Errorf("%s %s: %d body bytes, want %d", user, tc.name, len(got), len(wantBody))
			}
			if tc.method == http.MethodHead && resp.ContentLength != int64(len(body)) {
				t.Errorf("%s head: Content-Length %d, want %d", user, resp.ContentLength, len(body))
			}
		}
	}

	// Two If-None-Match lines are one list.
	_, body := fetch(t, http.MethodGet, url, "healthy", "")
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.AddCookie(&http.Cookie{Name: CookieName, Value: "healthy"})
	req.Header["If-None-Match"] = []string{`"aa"`, core.ContentTag(body)}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("tag on a second If-None-Match line: status %d, want 304", resp.StatusCode)
	}

	var m MetricsResponse
	getJSON(t, ts.URL+MetricsPathV1, &m)
	if m.PagesNotModified != 5 {
		t.Errorf("pages_not_modified = %d, want 5", m.PagesNotModified)
	}

	// New bytes, new tag: the old one no longer matches.
	old := core.ContentTag(taggedPage)
	srv.SetPage("/index.html", taggedPage+"<!-- v2 -->")
	resp, body = fetch(t, http.MethodGet, url, "healthy", old)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == old || resp.Header.Get("ETag") != core.ContentTag(body) {
		t.Errorf("after SetPage: status %d, ETag %q (old %q)", resp.StatusCode, resp.Header.Get("ETag"), old)
	}
}

// TestUncachedRewriteCarriesNoTag: with the rewrite cache off a rewritten
// body has no stored tag, and none is computed per request — it always
// answers 200. The untouched page still carries its own.
func TestUncachedRewriteCarriesNoTag(t *testing.T) {
	engine, err := core.NewEngine([]*rules.Rule{swapRule()}, core.WithRewriteCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	srv := NewServer(engine)
	srv.SetPage("/index.html", taggedPage)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	postReport(t, ts.URL, "activated")

	_, rewritten := fetch(t, http.MethodGet, ts.URL+"/index.html", "activated", "")
	resp, body := fetch(t, http.MethodGet, ts.URL+"/index.html", "activated", core.ContentTag(rewritten))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != "" || body != rewritten {
		t.Errorf("uncached rewrite: status %d, ETag %q", resp.StatusCode, resp.Header.Get("ETag"))
	}
	resp, _ = fetch(t, http.MethodGet, ts.URL+"/index.html", "healthy", core.ContentTag(taggedPage))
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("untouched page with the cache off: status %d, want 304", resp.StatusCode)
	}
}

// TestIssuedIdentityNeverCollidesWithRestoredUser: a server restored from a
// state that holds an active rule for "oak-1" — the first ID the old
// per-process counter issued — must not hand that identity, and with it
// that user's rewritten page, to its first cookie-less visitor.
func TestIssuedIdentityNeverCollidesWithRestoredUser(t *testing.T) {
	s1 := newTestServer(t, []*rules.Rule{swapRule()})
	ts1 := httptest.NewServer(s1)
	defer ts1.Close()
	postReport(t, ts1.URL, "oak-1")
	state, err := s1.Engine().ExportState()
	if err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, []*rules.Rule{swapRule()})
	if err := s2.Engine().ImportState(state); err != nil {
		t.Fatal(err)
	}
	s2.SetPage("/index.html", taggedPage)
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	if _, body := fetch(t, http.MethodGet, ts2.URL+"/index.html", "oak-1", ""); !strings.Contains(body, "fast.example") {
		t.Fatal("the restored user's rule is not active; the test proves nothing")
	}

	issued := regexp.MustCompile(`^oak-[0-9a-f]{32}$`)
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		resp, body := fetch(t, http.MethodGet, ts2.URL+"/index.html", "", "")
		var id string
		for _, c := range resp.Cookies() {
			if c.Name == CookieName {
				id = c.Value
			}
		}
		if !issued.MatchString(id) || seen[id] {
			t.Fatalf("visitor %d was issued %q (seen before: %v), want oak- and 128 fresh random bits", i, id, seen[id])
		}
		seen[id] = true
		if body != taggedPage {
			t.Fatalf("visitor %d (%s) got a rewritten page: %q", i, id, body)
		}
	}
}
