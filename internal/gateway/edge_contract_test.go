package gateway_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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
