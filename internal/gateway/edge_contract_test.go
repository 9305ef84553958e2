package gateway_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"oak"
	"oak/internal/client"
	"oak/internal/core"
	"oak/internal/gateway"
	"oak/internal/rules"
)

// What the gateway must answer exactly like the node behind it: retired
// routes, the retry horizon of a shedding backend, and a page's framing.

// frontedNode serves an engine from an origin server behind a one-backend
// gateway whose forwards are not retried.
func frontedNode(t *testing.T, engine *oak.Engine) (node, gw *httptest.Server) {
	t.Helper()
	return fronted(t, oak.NewServer(engine))
}

// fronted serves a node handler directly and behind a one-backend gateway
// whose forwards are not retried.
func fronted(t *testing.T, h http.Handler) (node, gw *httptest.Server) {
	t.Helper()
	node = httptest.NewServer(h)
	t.Cleanup(node.Close)
	g, err := gateway.NewGateway(gateway.Config{
		Backends: []string{node.URL},
		Retry:    client.RetryPolicy{MaxAttempts: 1},
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	gw = httptest.NewServer(g)
	t.Cleanup(gw.Close)
	return node, gw
}

// TestUnversionedPathsAnswer404 pins the single route table: the aliases
// retired in PR 12 are not endpoints on either tier, for any method.
func TestUnversionedPathsAnswer404(t *testing.T) {
	engine, err := oak.NewEngine(nil, oak.WithSynthesis(oak.SynthesisConfig{Window: time.Minute}))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	node, gw := frontedNode(t, engine)

	const body = `{"userId":"u","page":"/","entries":[{"url":"http://a.example/a.png","serverAddr":"ip-a","sizeBytes":1,"durationMillis":1}]}`
	for _, path := range []string{"/oak/report", "/oak/audit", "/oak/metrics", "/oak/healthz", "/oak/trace", "/oak/population"} {
		for tier, base := range map[string]string{"origin": node.URL, "gateway": gw.URL} {
			for _, method := range []string{http.MethodGet, http.MethodPost} {
				req, err := http.NewRequest(method, base+path, strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("Content-Type", "application/json")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNotFound {
					t.Errorf("%s %s on %s = %d, want 404", method, path, tier, resp.StatusCode)
				}
			}
		}
	}
	if got := engine.Metrics().ReportsHandled; got != 0 {
		t.Errorf("ReportsHandled = %d: an unversioned path ingested a report", got)
	}
}

// TestGatewayClassifiesContentTypeLikeOrigin posts the same cookie-less
// two-line body under Content-Types that only look like batch types. The
// origin reads each as one (malformed) JSON report; the gateway must not
// split what the backend will not read as a batch, so both tiers answer
// alike. The real batch type is the control: both ingest two reports.
func TestGatewayClassifiesContentTypeLikeOrigin(t *testing.T) {
	engine, err := oak.NewEngine(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	node, gw := frontedNode(t, engine)

	line := func(user string) string {
		return `{"userId":"` + user + `","page":"/","entries":[{"url":"http://a.example/a.png","serverAddr":"ip-a","sizeBytes":1,"durationMillis":1}]}`
	}
	body := line("ct-1") + "\n" + line("ct-2") + "\n"
	for _, tc := range []struct {
		contentType string
		want        int
	}{
		{"application/x-oak-report-batch-v2", http.StatusBadRequest},
		{"text/plain; note=jsonl", http.StatusBadRequest},
		{"application/vnd.ndjson-ish", http.StatusBadRequest},
		{"Application/X-NDJSON; charset=utf-8", http.StatusOK},
	} {
		for tier, base := range map[string]string{"origin": node.URL, "gateway": gw.URL} {
			resp, err := http.Post(base+oak.ReportPathV1, tc.contentType, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s, Content-Type %q: status = %d, want %d", tier, tc.contentType, resp.StatusCode, tc.want)
			}
		}
	}
}

// TestShedRetryAfterThroughGateway saturates a backend whose admission
// policy advertises 2s and checks that a shed single report and a fully
// shed cookie-less batch carry exactly that horizon, direct and through the
// gateway's merge.
func TestShedRetryAfterThroughGateway(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	fetcher := core.ScriptFetcherFunc(func(string) (string, error) {
		close(entered)
		<-release
		return "", nil
	})
	loader, err := oak.ParseRulesJSON([]byte(`[{
		"id":"loader","type":1,
		"default":"<script src=\"http://lib.example/loader.js\"></script>",
		"scope":"*","ttlMillis":0
	}]`))
	if err != nil {
		t.Fatal(err)
	}
	engine, err := oak.NewEngine(loader,
		oak.WithScriptFetcher(fetcher),
		oak.WithAdmission(oak.Admission{MaxInFlight: 1, RetryAfter: 2 * time.Second}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	defer close(release)
	node, gw := frontedNode(t, engine)

	reportJSON := func(user string) string {
		return `{"userId":"` + user + `","page":"/index.html","entries":[
		  {"url":"http://lib.example/loader.js","serverAddr":"ip-lib","sizeBytes":1024,"durationMillis":95,"kind":"script"},
		  {"url":"http://evil.example/p.png","serverAddr":"ip-evil","sizeBytes":1024,"durationMillis":2000},
		  {"url":"http://a.example/a.png","serverAddr":"ip-a","sizeBytes":1024,"durationMillis":100},
		  {"url":"http://b.example/b.png","serverAddr":"ip-b","sizeBytes":1024,"durationMillis":110}
		]}`
	}
	wedge, err := oak.UnmarshalReport([]byte(reportJSON("wedged")))
	if err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = engine.HandleReport(wedge) }()
	<-entered

	oneLine := func(user string) string { return strings.Join(strings.Fields(reportJSON(user)), "") }
	batch := oneLine("b1") + "\n" + oneLine("b2") + "\n"
	for tier, base := range map[string]string{"origin": node.URL, "gateway": gw.URL} {
		for _, tc := range []struct{ name, contentType, body string }{
			{"single", "application/json", reportJSON("s1")},
			{"batch", oak.BatchContentType, batch},
		} {
			resp, err := http.Post(base+oak.ReportPathV1, tc.contentType, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			respBody, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("%s %s: status = %d, want 503", tier, tc.name, resp.StatusCode)
			}
			if got := resp.Header.Get("Retry-After"); got != "2" {
				t.Errorf("%s %s: Retry-After = %q, want \"2\"", tier, tc.name, got)
			}
			if tc.name == "batch" {
				var res oak.BatchResult
				if err := json.Unmarshal(respBody, &res); err != nil {
					t.Fatalf("%s batch: decode %q: %v", tier, respBody, err)
				}
				if res.Submitted != 2 || res.Overloaded != 2 || res.Processed != 0 {
					t.Errorf("%s batch summary = %+v, want 2 submitted, 2 overloaded", tier, res)
				}
			}
		}
	}
}

// TestPageFramingThroughGateway: the gateway stages a page whole, so it
// knows its length — a page fetched through it is framed like the node
// frames it (Content-Length, not chunked), HEAD carries the length a GET
// would and no body, and the mirrored headers arrive on both.
func TestPageFramingThroughGateway(t *testing.T) {
	engine, err := oak.NewEngine(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	server := oak.NewServer(engine)
	page := "<html>" + strings.Repeat("x", 128<<10-13) + "</html>"
	server.SetPage("/big.html", page)
	// The origin sets Retry-After and the cache hint only in states this test
	// does not set up; the contract is that whatever the node says, the edge
	// repeats.
	node, gw := fronted(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.Header().Set(rules.CacheHintHeader, "cdn-a.example=cdn-b.example")
		server.ServeHTTP(w, r)
	}))

	for _, method := range []string{http.MethodGet, http.MethodHead} {
		var got [2]*http.Response
		for i, base := range []string{node.URL, gw.URL} {
			req, err := http.NewRequest(method, base+"/big.html", nil)
			if err != nil {
				t.Fatal(err)
			}
			req.AddCookie(&http.Cookie{Name: oak.CookieName, Value: "framing-user"})
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			want := page
			if method == http.MethodHead {
				want = ""
			}
			if resp.StatusCode != http.StatusOK || string(body) != want {
				t.Fatalf("%s %s: status %d, %d body bytes, want 200 and %d", method, base, resp.StatusCode, len(body), len(want))
			}
			got[i] = resp
		}
		direct, via := got[0], got[1]
		if cl := via.Header.Get("Content-Length"); cl == "" || cl != direct.Header.Get("Content-Length") || via.ContentLength != int64(len(page)) {
			t.Errorf("%s: Content-Length %q via the gateway, %q direct, page is %d bytes", method, cl, direct.Header.Get("Content-Length"), len(page))
		}
		if len(via.TransferEncoding) != 0 {
			t.Errorf("%s: Transfer-Encoding %v via the gateway, want none", method, via.TransferEncoding)
		}
		for _, h := range []string{"Content-Type", "Retry-After", rules.CacheHintHeader} {
			if v := via.Header.Get(h); v == "" || v != direct.Header.Get(h) {
				t.Errorf("%s: %s = %q via the gateway, %q direct", method, h, v, direct.Header.Get(h))
			}
		}
	}
}

// The page contract: whatever variant the node picks for a user, the edge
// delivers exactly that — cold (the backend ships it) and warm (the backend
// names it and the edge serves its copy).

// variantRuleTTL is how long the variant rule stays active once a slow
// report activates it.
const variantRuleTTL = time.Minute

// variantRule swaps one image for a mirror, for variantRuleTTL.
func variantRule(t testing.TB) *oak.Rule {
	t.Helper()
	rs, err := oak.ParseRulesJSON([]byte(fmt.Sprintf(`[{
		"id":"swap","type":2,
		"default":"<img src=\"http://slow.example/x.png\">",
		"alternatives":["<img src=\"http://fast.example/x.png\">"],
		"scope":"*","ttlMillis":%d
	}]`, variantRuleTTL.Milliseconds())))
	if err != nil {
		t.Fatal(err)
	}
	return rs[0]
}

// variantPage is a page of exactly size bytes that variantRule rewrites;
// seed makes its bytes its own.
func variantPage(seed string, size int) string {
	head := `<html><!-- ` + seed + ` --><img src="http://slow.example/x.png">`
	const tail = `</html>`
	return head + strings.Repeat("x", size-len(head)-len(tail)) + tail
}

// slowReport is a report in which slow.example badly under-performs, so it
// activates variantRule for user.
func slowReport(user, path string) string {
	return fmt.Sprintf(`{"userId":%q,"page":%q,"entries":[
	  {"url":"http://slow.example/x.png","serverAddr":"9.9.9.9","sizeBytes":1000,"durationMillis":3000},
	  {"url":"http://a.example/a.png","serverAddr":"1.1.1.1","sizeBytes":1000,"durationMillis":100},
	  {"url":"http://b.example/b.png","serverAddr":"2.2.2.2","sizeBytes":1000,"durationMillis":110},
	  {"url":"http://c.example/c.png","serverAddr":"3.3.3.3","sizeBytes":1000,"durationMillis":95}
	]}`, user, path)
}

// virtualClock is an engine clock tests advance by hand.
type virtualClock struct{ ns atomic.Int64 }

func newVirtualClock() *virtualClock {
	c := &virtualClock{}
	c.ns.Store(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	return c
}
func (c *virtualClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *virtualClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// variantNode is a full backend — engine on a virtual clock with the
// rewrite cache on, like oakd's default — serving pages under variantRule.
type variantNode struct {
	clock  *virtualClock
	engine *oak.Engine
	server *oak.Server
}

func newVariantNode(t testing.TB, pages map[string]string) *variantNode {
	t.Helper()
	n := &variantNode{clock: newVirtualClock()}
	var err error
	n.engine, err = oak.NewEngine([]*oak.Rule{variantRule(t)}, oak.WithClock(n.clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.engine.Close() })
	n.server = oak.NewServer(n.engine)
	for path, html := range pages {
		n.server.SetPage(path, html)
	}
	return n
}

// exchange is one HTTP exchange as user; ifNoneMatch "" sends none.
func exchange(t testing.TB, method, url, user, ifNoneMatch, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.AddCookie(&http.Cookie{Name: oak.CookieName, Value: user})
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read body: %v", method, url, err)
	}
	return resp, string(got)
}

// pageHeaders are the page response headers the edge must repeat verbatim.
var pageHeaders = []string{"Content-Type", "Content-Length", rules.CacheHintHeader, "ETag", "Cache-Control"}

// samePage fails unless via is the response direct is: status, body and
// every page header.
func samePage(t *testing.T, what string, direct, via *http.Response, directBody, viaBody string) {
	t.Helper()
	if via.StatusCode != direct.StatusCode {
		t.Errorf("%s: status %d via the gateway, %d direct", what, via.StatusCode, direct.StatusCode)
	}
	if viaBody != directBody {
		t.Errorf("%s: %d body bytes via the gateway differ from the %d direct", what, len(viaBody), len(directBody))
	}
	for _, h := range pageHeaders {
		if via.Header.Get(h) != direct.Header.Get(h) {
			t.Errorf("%s: %s = %q via the gateway, %q direct", what, h, via.Header.Get(h), direct.Header.Get(h))
		}
	}
	if len(via.TransferEncoding) != 0 {
		t.Errorf("%s: Transfer-Encoding %v via the gateway", what, via.TransferEncoding)
	}
}

// edgeStats reads the gateway's edge-cache counters off its metrics endpoint.
func edgeStats(t *testing.T, gwURL string) gateway.EdgeCacheMetrics {
	t.Helper()
	resp, err := http.Get(gwURL + oak.MetricsPathV1)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cm gateway.ClusterMetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&cm); err != nil {
		t.Fatal(err)
	}
	return cm.Gateway.EdgeCache
}

func TestPageVariantsThroughGateway(t *testing.T) {
	pages := map[string]string{}
	for _, kb := range []int{8, 32, 128} {
		pages[fmt.Sprintf("/p%d.html", kb)] = variantPage(fmt.Sprint(kb), kb<<10)
	}
	n := newVariantNode(t, pages)
	node, gw := fronted(t, n.server)
	if resp, _ := exchange(t, http.MethodPost, node.URL+oak.ReportPathV1, "activated", "", slowReport("activated", "/p8.html")); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("activating report: status %d", resp.StatusCode)
	}

	// Cold and warm, every size, both variants.
	for path, html := range pages {
		for _, user := range []string{"healthy", "activated"} {
			what := path + " as " + user
			direct, directBody := exchange(t, http.MethodGet, node.URL+path, user, "", "")
			if direct.StatusCode != http.StatusOK || (directBody == html) != (user == "healthy") || direct.Header.Get("ETag") == "" {
				t.Fatalf("%s direct: status %d, untouched %v, ETag %q", what, direct.StatusCode, directBody == html, direct.Header.Get("ETag"))
			}
			if hint := direct.Header.Get(rules.CacheHintHeader); (hint != "") != (user == "activated") {
				t.Fatalf("%s direct: %s = %q", what, rules.CacheHintHeader, hint)
			}
			before := edgeStats(t, gw.URL)
			cold, coldBody := exchange(t, http.MethodGet, gw.URL+path, user, "", "")
			samePage(t, what+" cold", direct, cold, directBody, coldBody)
			mid := edgeStats(t, gw.URL)
			if mid.Fills != before.Fills+1 || mid.Hits != before.Hits {
				t.Errorf("%s cold: edge cache %+v -> %+v, want one fill", what, before, mid)
			}
			warm, warmBody := exchange(t, http.MethodGet, gw.URL+path, user, "", "")
			samePage(t, what+" warm", direct, warm, directBody, warmBody)
			after := edgeStats(t, gw.URL)
			if after.Hits != mid.Hits+1 || after.Fills != mid.Fills || after.Refetches != 0 {
				t.Errorf("%s warm: edge cache %+v -> %+v, want one hit", what, mid, after)
			}

			// HEAD: the headers of the GET, no body.
			dh, dhBody := exchange(t, http.MethodHead, node.URL+path, user, "", "")
			vh, vhBody := exchange(t, http.MethodHead, gw.URL+path, user, "", "")
			samePage(t, what+" HEAD", dh, vh, dhBody, vhBody)
			if vhBody != "" || vh.Header.Get("ETag") != direct.Header.Get("ETag") || vh.ContentLength != int64(len(directBody)) {
				t.Errorf("%s HEAD via the gateway: %d body bytes, ETag %q, Content-Length %d", what, len(vhBody), vh.Header.Get("ETag"), vh.ContentLength)
			}

			// The client's own If-None-Match: a bodyless 304, end to end.
			tag := direct.Header.Get("ETag")
			for _, base := range []string{node.URL, gw.URL} {
				resp, body := exchange(t, http.MethodGet, base+path, user, `"other", `+tag, "")
				if resp.StatusCode != http.StatusNotModified || body != "" || resp.Header.Get("ETag") != tag {
					t.Errorf("%s If-None-Match at %s: status %d, %d body bytes, ETag %q", what, base, resp.StatusCode, len(body), resp.Header.Get("ETag"))
				}
				if resp.Header.Get(rules.CacheHintHeader) != direct.Header.Get(rules.CacheHintHeader) {
					t.Errorf("%s If-None-Match at %s: %s = %q", what, base, rules.CacheHintHeader, resp.Header.Get(rules.CacheHintHeader))
				}
			}
			// A stale client tag is answered in full, from the edge's copy.
			stale, staleBody := exchange(t, http.MethodGet, gw.URL+path, user, `"00000000000000000000000000000000"`, "")
			samePage(t, what+" stale client tag", direct, stale, directBody, staleBody)
		}
	}
	if got := edgeStats(t, gw.URL); got.Variants != 6 || got.Bytes < 2*(8+32+128)<<10-64 || got.Evictions != 0 {
		t.Errorf("edge cache holds %+v, want 6 variants of 2×168 KB", got)
	}

	// A report flips the user's page to the new variant; expiry flips it back.
	const path = "/p32.html"
	check := func(what, user string, rewritten bool) {
		t.Helper()
		direct, directBody := exchange(t, http.MethodGet, node.URL+path, user, "", "")
		via, viaBody := exchange(t, http.MethodGet, gw.URL+path, user, "", "")
		samePage(t, what, direct, via, directBody, viaBody)
		if got := viaBody != pages[path]; got != rewritten {
			t.Errorf("%s: rewritten = %v, want %v", what, got, rewritten)
		}
	}
	check("before the report", "flipper", false)
	if resp, _ := exchange(t, http.MethodPost, gw.URL+oak.ReportPathV1, "flipper", "", slowReport("flipper", path)); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("report via the gateway: status %d", resp.StatusCode)
	}
	check("after the report", "flipper", true)
	n.clock.Advance(variantRuleTTL + time.Second)
	check("after the rule expired", "flipper", false)
	check("after the rule expired", "activated", false)

	// New content is a new tag: nothing held under the old one is served.
	pages[path] = variantPage("second edition", 24<<10)
	n.server.SetPage(path, pages[path])
	check("after SetPage", "healthy", false)
	if _, body := exchange(t, http.MethodGet, gw.URL+path, "healthy", "", ""); body != pages[path] {
		t.Error("after SetPage: the gateway did not deliver the new page")
	}
}

// TestBackendsAgreeOnTags: two backends — separate engines, nothing shared
// — give the same bytes the same tag, untouched and rewritten, so a variant
// the edge filled from one is valid when the other names it (failover).
func TestBackendsAgreeOnTags(t *testing.T) {
	pages := map[string]string{"/index.html": variantPage("agree", 8<<10)}
	var tags [2][2]string
	for i := range tags {
		n := newVariantNode(t, pages)
		ts := httptest.NewServer(n.server)
		defer ts.Close()
		exchange(t, http.MethodPost, ts.URL+oak.ReportPathV1, "activated", "", slowReport("activated", "/index.html"))
		for j, user := range []string{"healthy", "activated"} {
			resp, _ := exchange(t, http.MethodGet, ts.URL+"/index.html", user, "", "")
			tags[i][j] = resp.Header.Get("ETag")
		}
	}
	if tags[0] != tags[1] || tags[0][0] == "" || tags[0][0] == tags[0][1] {
		t.Errorf("tags per backend = %q, want the same distinct pair on both", tags)
	}
}

// TestGatewayIssuesUnguessableIdentity: a cookie-less visitor is named at
// the edge with 128 random bits — never a counter that a restarted gateway
// would replay onto users the backends already know — and only the edge's
// cookie reaches the client.
func TestGatewayIssuesUnguessableIdentity(t *testing.T) {
	n := newVariantNode(t, map[string]string{"/index.html": variantPage("identity", 4<<10)})
	_, gw := fronted(t, n.server)
	issued := regexp.MustCompile(`^oak-gw-[0-9a-f]{32}$`)
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		resp, err := http.Get(gw.URL + "/index.html")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		cookies := resp.Cookies()
		if len(cookies) != 1 || cookies[0].Name != oak.CookieName || !issued.MatchString(cookies[0].Value) || seen[cookies[0].Value] {
			t.Fatalf("visitor %d: cookies %v, want one fresh oak-gw- identity", i, cookies)
		}
		seen[cookies[0].Value] = true
	}
}
