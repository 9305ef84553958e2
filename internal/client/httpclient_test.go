package client

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oak/internal/report"
)

// staticResolver maps every host to one test server.
func staticResolver(ts *httptest.Server) HostResolver {
	return func(host string) (string, bool) {
		u, err := url.Parse(ts.URL)
		if err != nil {
			return "", false
		}
		return u.Host, true
	}
}

func TestHTTPClientLoadPage(t *testing.T) {
	content := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/a.js":
			w.Header().Set("Content-Type", "application/javascript")
			_, _ = w.Write([]byte(`oakFetch("http://deep.example/b.bin");`))
		default:
			_, _ = w.Write(make([]byte, 2048))
		}
	}))
	defer content.Close()

	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.SetCookie(w, &http.Cookie{Name: "oak-user", Value: "issued-1"})
		_, _ = w.Write([]byte(`<html>
<script src="http://cdn.example/a.js"></script>
<img src="http://img.example/c.bin">
<script>var u = "http://inline.example/d.bin"; go(u);</script>
</html>`))
	}))
	defer origin.Close()

	c := &HTTPClient{Resolve: staticResolver(content)}
	res, html, err := c.LoadPage(origin.URL, "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	if c.UserID != "issued-1" {
		t.Errorf("client did not adopt issued cookie: %q", c.UserID)
	}
	if !strings.Contains(html, "cdn.example") {
		t.Error("html not returned")
	}
	// Four objects: a.js + its loaded b.bin + c.bin + inline d.bin.
	if len(res.Report.Entries) != 4 {
		t.Fatalf("entries = %d, want 4: %+v", len(res.Report.Entries), res.Report.Entries)
	}
	byURL := make(map[string]report.Entry)
	for _, e := range res.Report.Entries {
		byURL[e.URL] = e
	}
	dep, ok := byURL["http://deep.example/b.bin"]
	if !ok {
		t.Fatal("script-loaded object not fetched")
	}
	if dep.InitiatorURL != "http://cdn.example/a.js" {
		t.Errorf("initiator = %q", dep.InitiatorURL)
	}
	if _, ok := byURL["http://inline.example/d.bin"]; !ok {
		t.Error("inline-script object not fetched")
	}
	if res.PLT <= 0 {
		t.Error("PLT not positive")
	}
}

func TestHTTPClientUnresolvableHost(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`<img src="http://ghost.example/x.bin">`))
	}))
	defer origin.Close()

	c := &HTTPClient{Resolve: func(string) (string, bool) { return "", false }}
	if _, _, err := c.LoadPage(origin.URL, "/"); err == nil {
		t.Error("unresolvable host: want error")
	}
}

func TestHTTPClientPageStatusError(t *testing.T) {
	origin := httptest.NewServer(http.NotFoundHandler())
	defer origin.Close()
	c := &HTTPClient{Resolve: func(string) (string, bool) { return "", false }}
	if _, _, err := c.LoadPage(origin.URL, "/missing"); err == nil {
		t.Error("404 page: want error")
	}
}

func TestHTTPClientObjectFailureIsPartialReport(t *testing.T) {
	var hits atomic.Int64
	content := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.NotFound(w, r)
	}))
	defer content.Close()
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`<img src="http://broken.example/x.bin">`))
	}))
	defer origin.Close()

	c := &HTTPClient{Resolve: staticResolver(content), Seed: 1}
	res, _, err := c.LoadPage(origin.URL, "/")
	if err != nil {
		t.Fatalf("dead object must not abort the load: %v", err)
	}
	if got := res.Report.FailedCount(); got != 1 {
		t.Fatalf("FailedCount = %d, want 1: %+v", got, res.Report.Entries)
	}
	e := res.Report.Entries[0]
	if !e.Failed || e.URL != "http://broken.example/x.bin" {
		t.Errorf("failed entry = %+v", e)
	}
	if e.DurationMillis < 0 {
		t.Errorf("failed entry duration = %v", e.DurationMillis)
	}
	// 404 is not retryable: exactly one attempt.
	if hits.Load() != 1 {
		t.Errorf("attempts = %d, want 1 (no retry on 404)", hits.Load())
	}
}

func TestHTTPClientObjectRetriesThenSucceeds(t *testing.T) {
	var hits atomic.Int64
	content := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) < 3 {
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		_, _ = w.Write(make([]byte, 128))
	}))
	defer content.Close()
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`<img src="http://flaky.example/x.bin">`))
	}))
	defer origin.Close()

	c := &HTTPClient{
		Resolve: staticResolver(content),
		Seed:    42,
		Retry:   RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	}
	res, _, err := c.LoadPage(origin.URL, "/")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Report.FailedCount(); got != 0 {
		t.Fatalf("FailedCount = %d, want 0 after successful retry", got)
	}
	if res.Report.Entries[0].SizeBytes != 128 {
		t.Errorf("entry = %+v", res.Report.Entries[0])
	}
	if hits.Load() != 3 {
		t.Errorf("attempts = %d, want 3", hits.Load())
	}
}

func TestHTTPClientObjectTimeout(t *testing.T) {
	release := make(chan struct{})
	content := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // hang until the test ends
	}))
	defer content.Close()
	defer close(release)
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`<img src="http://dead.example/x.bin">`))
	}))
	defer origin.Close()

	c := &HTTPClient{
		Resolve:       staticResolver(content),
		Seed:          7,
		ObjectTimeout: 20 * time.Millisecond,
		Retry:         RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
	}
	start := time.Now()
	res, _, err := c.LoadPage(origin.URL, "/")
	if err != nil {
		t.Fatalf("hung provider must not abort the load: %v", err)
	}
	if got := res.Report.FailedCount(); got != 1 {
		t.Fatalf("FailedCount = %d, want 1", got)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("load took %v; per-object deadline not applied", elapsed)
	}
	if res.Report.Entries[0].DurationMillis < 20 {
		t.Errorf("failed entry should record time spent trying, got %vms", res.Report.Entries[0].DurationMillis)
	}
}

func TestHTTPClientSubmitReportRetriesHonoringRetryAfter(t *testing.T) {
	var hits atomic.Int64
	var sawDelay time.Duration
	var last time.Time
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now()
		if n := hits.Add(1); n == 1 {
			last = now
			w.Header().Set("Retry-After", "1")
			http.Error(w, "shed", http.StatusServiceUnavailable)
			return
		}
		sawDelay = now.Sub(last)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer origin.Close()

	c := &HTTPClient{
		Seed:  3,
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	}
	rep := &report.Report{UserID: "u", Page: "/", Entries: []report.Entry{
		{URL: "http://x.example/a", SizeBytes: 1, DurationMillis: 1},
	}}
	if err := c.SubmitReport(origin.URL, rep); err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 2 {
		t.Fatalf("attempts = %d, want 2", hits.Load())
	}
	// The origin said Retry-After: 1s; the client must have waited at least
	// most of it rather than using its (millisecond) backoff schedule.
	if sawDelay < 700*time.Millisecond {
		t.Errorf("delay before retry = %v, want >= ~1s (Retry-After honored)", sawDelay)
	}
}

// TestHTTPClientWireFormats pins what each wire setting puts on the wire:
// WireJSON posts application/json that report.Decode accepts, WireBinary
// posts an OAKRPT1 body under its content type that decodes to the same
// report — and the binary body is the smaller of the two.
func TestHTTPClientWireFormats(t *testing.T) {
	rep := &report.Report{UserID: "wire-u", Page: "/p", Entries: []report.Entry{
		{URL: "http://x.example/a.png", ServerAddr: "1.1.1.1", SizeBytes: 1000, DurationMillis: 42.5},
		{URL: "http://y.example/b.js", ServerAddr: "2.2.2.2", SizeBytes: 90000, DurationMillis: 120, Kind: report.KindScript},
	}}

	type capture struct {
		contentType string
		body        []byte
	}
	var got capture
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		got = capture{contentType: r.Header.Get("Content-Type"), body: body}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer origin.Close()

	c := &HTTPClient{UserID: "wire-u"}
	if err := c.SubmitReport(origin.URL, rep); err != nil {
		t.Fatal(err)
	}
	jsonCap := got
	if jsonCap.contentType != report.ContentTypeJSON {
		t.Errorf("default Content-Type = %q, want %q", jsonCap.contentType, report.ContentTypeJSON)
	}
	if _, err := report.Decode(jsonCap.body); err != nil {
		t.Errorf("default body is not a JSON report: %v", err)
	}

	c.Wire = WireBinary
	if err := c.SubmitReport(origin.URL, rep); err != nil {
		t.Fatal(err)
	}
	if got.contentType != report.ContentTypeBinary {
		t.Errorf("binary Content-Type = %q, want %q", got.contentType, report.ContentTypeBinary)
	}
	decoded, err := report.UnmarshalBinary(got.body)
	if err != nil {
		t.Fatalf("binary body does not decode: %v", err)
	}
	if decoded.UserID != rep.UserID || len(decoded.Entries) != len(rep.Entries) {
		t.Errorf("binary round trip = %+v, want %+v", decoded, rep)
	}
	if len(got.body) >= len(jsonCap.body) {
		t.Errorf("binary body %d bytes >= JSON %d bytes; binary must be smaller", len(got.body), len(jsonCap.body))
	}
}

func TestHTTPClientDefaultClientCached(t *testing.T) {
	c := &HTTPClient{}
	if c.httpc() != c.httpc() {
		t.Error("default http.Client not cached: new allocation per call")
	}
	custom := &http.Client{}
	c2 := &HTTPClient{HTTP: custom}
	if c2.httpc() != custom {
		t.Error("explicit HTTP client not used")
	}
}

func TestHTTPClientSubmitReportStatus(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusBadRequest)
	}))
	defer origin.Close()
	c := &HTTPClient{}
	rep := &report.Report{UserID: "u", Page: "/", Entries: []report.Entry{
		{URL: "http://x.example/a", SizeBytes: 1, DurationMillis: 1},
	}}
	if err := c.SubmitReport(origin.URL, rep); err == nil {
		t.Error("rejected report: want error")
	}
}

func TestHTTPClientKeepsExplicitUserID(t *testing.T) {
	var gotCookie string
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c, err := r.Cookie("oak-user"); err == nil {
			gotCookie = c.Value
		}
		_, _ = w.Write([]byte("<html></html>"))
	}))
	defer origin.Close()

	c := &HTTPClient{UserID: "pinned"}
	if _, _, err := c.LoadPage(origin.URL, "/"); err != nil {
		t.Fatal(err)
	}
	if gotCookie != "pinned" {
		t.Errorf("sent cookie = %q, want pinned", gotCookie)
	}
	if c.UserID != "pinned" {
		t.Errorf("UserID changed to %q", c.UserID)
	}
}

func TestRetryAfterHintForms(t *testing.T) {
	now := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	mk := func(val string) http.Header {
		h := http.Header{}
		if val != "" {
			h.Set("Retry-After", val)
		}
		return h
	}
	cases := []struct {
		name   string
		header http.Header
		want   time.Duration
	}{
		{"nil header", nil, 0},
		{"absent", mk(""), 0},
		{"delta seconds", mk("7"), 7 * time.Second},
		{"zero seconds", mk("0"), 0},
		{"negative seconds", mk("-3"), 0},
		{"http date future", mk(now.Add(90 * time.Second).Format(http.TimeFormat)), 90 * time.Second},
		{"http date past", mk(now.Add(-time.Minute).Format(http.TimeFormat)), 0},
		{"rfc850 date", mk(now.Add(30 * time.Second).Format("Monday, 02-Jan-06 15:04:05 MST")), 30 * time.Second},
		{"garbage", mk("soon"), 0},
	}
	for _, tc := range cases {
		if got := RetryAfter(tc.header, now); got != tc.want {
			t.Errorf("%s: RetryAfter = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// A far-future HTTP-date must not park the client: retryDelay clamps the
// hint to its 30s bound.
func TestRetryDelayClampsDateHint(t *testing.T) {
	now := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	h := http.Header{}
	h.Set("Retry-After", now.Add(time.Hour).Format(http.TimeFormat))
	hint := RetryAfter(h, now)
	if hint != time.Hour {
		t.Fatalf("hint = %v, want 1h", hint)
	}
	c := &HTTPClient{Seed: 1}
	if d := c.retryDelay(0, hint); d > 31*time.Second {
		t.Errorf("retryDelay = %v, want clamped to <= ~30s", d)
	}
}

// TestSubmitThroughARetry drives SubmitBytes through a retry: the server
// refuses the first attempt with a body of its own, then accepts.
// Every attempt must carry the same request bytes and cookie, and a
// refusal's body and an empty 204 must both come back as the caller's own
// bytes.
func TestSubmitThroughARetry(t *testing.T) {
	var mu sync.Mutex
	seen := map[string][]string{} // content type → bodies received, in order
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		ct := r.Header.Get("Content-Type")
		mu.Lock()
		seen[ct] = append(seen[ct], string(body))
		first := len(seen[ct]) == 1
		mu.Unlock()
		if ck, err := r.Cookie("oak-user"); err != nil || ck.Value != "u1" {
			http.Error(w, "cookie lost", http.StatusBadRequest)
			return
		}
		if first {
			http.Error(w, strings.Repeat("busy ", 2000), http.StatusServiceUnavailable) // ~10 KB, declared
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()
	endpoint := ts.URL + reportPathV1
	once := &HTTPClient{Retry: RetryPolicy{MaxAttempts: 1}}
	retrying := &HTTPClient{Retry: RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}}
	cookies := []*http.Cookie{{Name: "oak-user", Value: "u1"}}
	payload := []byte(strings.Repeat("report bytes ", 700)) // ~9 KB

	// One attempt: the refusal itself is the result.
	res, err := once.SubmitBytes(context.Background(), endpoint, "text/refused", payload, cookies)
	if err != nil || res.Status != http.StatusServiceUnavailable || string(res.Body) != strings.Repeat("busy ", 2000)+"\n" {
		t.Fatalf("refusal: err %v, result %+v", err, res)
	}

	// Two attempts: the retry replays the same body and cookie.
	res, err = retrying.SubmitBytes(context.Background(), endpoint, "text/bytes", payload, cookies)
	if err != nil || res.Status != http.StatusNoContent || len(res.Body) != 0 {
		t.Fatalf("retry: err %v, result %+v", err, res)
	}
	mu.Lock()
	got := seen["text/bytes"]
	mu.Unlock()
	if len(got) != 2 || got[0] != string(payload) || got[1] != string(payload) {
		t.Errorf("retry: server read %d bodies, want the payload twice", len(got))
	}
}
