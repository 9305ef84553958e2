package origin

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"oak/internal/core"
	"oak/internal/report"
	"oak/internal/rules"
)

// loaderRule references lib.example's loader script but not the violator, so
// matching requires fetching the script — the hook tests use to wedge the
// engine deterministically.
func loaderRule() *rules.Rule {
	return &rules.Rule{
		ID:      "loader",
		Type:    rules.TypeRemove,
		Default: `<script src="http://lib.example/loader.js"></script>`,
		Scope:   "*",
	}
}

// tier3ReportJSON is a report whose violator can only be matched through the
// external-JavaScript tier: processing it calls the script fetcher.
func tier3ReportJSON(t *testing.T, user string) string {
	t.Helper()
	rep := &report.Report{UserID: user, Page: "/index.html", Entries: []report.Entry{
		{URL: "http://lib.example/loader.js", ServerAddr: "ip-lib.example", SizeBytes: 1024, DurationMillis: 95, Kind: report.KindScript},
		{URL: "http://evil.example/pixel.png", ServerAddr: "ip-evil.example", SizeBytes: 1024, DurationMillis: 2000, Kind: report.KindImage},
		{URL: "http://a.example/a.png", ServerAddr: "ip-a.example", SizeBytes: 1024, DurationMillis: 100, Kind: report.KindImage},
		{URL: "http://b.example/b.png", ServerAddr: "ip-b.example", SizeBytes: 1024, DurationMillis: 110, Kind: report.KindImage},
	}}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// plainReportJSON is an ordinary valid report for user.
func plainReportJSON(t *testing.T, user string) string {
	t.Helper()
	rep := &report.Report{UserID: user, Page: "/index.html", Entries: []report.Entry{
		{URL: "http://s1.com/x.js", ServerAddr: "ip-s1.com", SizeBytes: 1024, DurationMillis: 2000},
		{URL: "http://a.example/a.png", ServerAddr: "ip-a.example", SizeBytes: 1024, DurationMillis: 100},
		{URL: "http://b.example/b.png", ServerAddr: "ip-b.example", SizeBytes: 1024, DurationMillis: 110},
		{URL: "http://c.example/c.png", ServerAddr: "ip-c.example", SizeBytes: 1024, DurationMillis: 95},
	}}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// saturatedServer builds a server bounded to one report in flight, with
// that one parked inside the script fetcher, so every further submission
// sheds. The returned release lets it finish and returns once it has; the
// engine is cleaned up by t.Cleanup.
func saturatedServer(t *testing.T) (*Server, func()) {
	t.Helper()
	entered := make(chan struct{})
	release := make(chan struct{})
	fetcher := core.ScriptFetcherFunc(func(string) (string, error) {
		close(entered)
		<-release
		return "", nil
	})
	engine, err := core.NewEngine([]*rules.Rule{loaderRule()},
		core.WithScriptFetcher(fetcher),
		core.WithAdmission(core.Admission{MaxInFlight: 1, MaxWait: 5 * time.Millisecond, RetryAfter: 2 * time.Second}),
	)
	if err != nil {
		t.Fatal(err)
	}
	released, finished := false, make(chan struct{})
	doRelease := func() {
		if !released {
			released = true
			close(release)
			<-finished
		}
	}
	t.Cleanup(func() {
		doRelease()
		engine.Close()
	})

	blocker, err := report.Decode([]byte(tier3ReportJSON(t, "u-block")))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(finished)
		_, _ = engine.HandleReport(blocker)
	}()
	<-entered

	return NewServer(engine), doRelease
}

func TestReportOverloadReturns503WithRetryAfter(t *testing.T) {
	s, _ := saturatedServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Post(ts.URL+ReportPathV1, "application/json",
		strings.NewReader(plainReportJSON(t, "u-new")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
	if s.Engine().Metrics().ReportsShed == 0 {
		t.Error("shed not counted in metrics")
	}
}

func TestBatchAllShedReturns503WithRetryAfter(t *testing.T) {
	s, _ := saturatedServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := plainReportJSON(t, "b1") + "\n" + plainReportJSON(t, "b2") + "\n"
	resp, err := http.Post(ts.URL+ReportPathV1, BatchContentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q on all-shed batch, want the policy's \"2\"", got)
	}
	var res core.BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Overloaded != 2 || res.Processed != 0 {
		t.Errorf("batch result = %+v, want 2 overloaded, 0 processed", res)
	}
}

func TestHealthzDegradedWhileSaturated(t *testing.T) {
	s, release := saturatedServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	get := func() string {
		resp, err := http.Get(ts.URL + HealthzPathV1)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hz HealthzResponse
		if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
			t.Fatal(err)
		}
		return hz.Status
	}
	if got := get(); got != "degraded" {
		t.Errorf("healthz while saturated = %q, want degraded", got)
	}
	release()
	if depth, _ := s.Engine().IngestQueue(); depth != 0 {
		t.Errorf("ingest queue depth %d once the parked report returned, want 0", depth)
	}
	if got := get(); got != "ok" {
		t.Errorf("healthz after drain = %q, want ok", got)
	}
}

func TestReportShutdownReturns503(t *testing.T) {
	engine, err := core.NewEngine(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Close(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(engine))
	defer ts.Close()

	resp, err := http.Post(ts.URL+ReportPathV1, "application/json",
		strings.NewReader(plainReportJSON(t, "late")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("no Retry-After on shutdown 503")
	}
}

func TestReportMalformedReturns400(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, body := range []string{"{not json", `{"userId":"u","page":"/","entries":[]}`} {
		resp, err := http.Post(ts.URL+ReportPathV1, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q status = %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestWriteIngestErrorMapping(t *testing.T) {
	s := newTestServer(t, nil)
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"overload", &core.OverloadError{RetryAfter: time.Second}, http.StatusServiceUnavailable},
		{"overload sentinel", core.ErrOverloaded, http.StatusServiceUnavailable},
		{"shutdown", core.ErrShuttingDown, http.StatusServiceUnavailable},
		{"canceled", context.Canceled, StatusClientClosedRequest},
		{"deadline", context.DeadlineExceeded, StatusClientClosedRequest},
		{"wrapped cancel", errors.Join(errors.New("while queued"), context.Canceled), StatusClientClosedRequest},
		{"validation", report.ErrNoEntries, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			s.writeIngestError(rec, tc.err)
			if rec.Code != tc.want {
				t.Errorf("status = %d, want %d", rec.Code, tc.want)
			}
			if tc.want == http.StatusServiceUnavailable && rec.Header().Get("Retry-After") == "" {
				t.Error("503 without Retry-After")
			}
		})
	}
}

func TestPageServedUnmodifiedWhenRewriteBudgetLapses(t *testing.T) {
	// A synchronous engine processes reports on the caller's goroutine while
	// holding the user's shard lock; a blocked fetcher therefore wedges that
	// shard — exactly the state page delivery must survive.
	entered := make(chan struct{})
	release := make(chan struct{})
	fetcher := core.ScriptFetcherFunc(func(string) (string, error) {
		close(entered)
		<-release
		return "", nil
	})
	engine, err := core.NewEngine([]*rules.Rule{loaderRule()}, core.WithScriptFetcher(fetcher))
	if err != nil {
		t.Fatal(err)
	}
	defer close(release)

	s := NewServer(engine, WithRewriteBudget(30*time.Millisecond))
	const page = "<html><body>original</body></html>"
	s.SetPage("/index.html", page)
	ts := httptest.NewServer(s)
	defer ts.Close()

	blocker, err := report.Decode([]byte(tier3ReportJSON(t, "wedged-user")))
	if err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = engine.HandleReport(blocker) }()
	<-entered

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/index.html", nil)
	req.AddCookie(&http.Cookie{Name: CookieName, Value: "wedged-user"})
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d, want 200 while engine is wedged", resp.StatusCode)
	}
	if string(body) != page {
		t.Errorf("body = %q, want the unmodified page", body)
	}
	if tag := resp.Header.Get("ETag"); tag != core.ContentTag(page) {
		t.Errorf("degraded serve ETag = %q, want the page's own %q", tag, core.ContentTag(page))
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("page delivery took %v; rewrite budget not applied", elapsed)
	}
	if got := s.PagesDegraded(); got != 1 {
		t.Errorf("PagesDegraded = %d, want 1", got)
	}

	// The degraded delivery shows up on the metrics endpoint.
	mresp, err := http.Get(ts.URL + MetricsPathV1)
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m MetricsResponse
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.PagesDegraded != 1 {
		t.Errorf("metrics pages_degraded = %d, want 1", m.PagesDegraded)
	}
}

// TestBatchPartialShedAdvertisesPolicyRetryAfter: a batch in which only
// some reports were shed is still a 200 with the summary, and carries the
// admission policy's retry horizon — not a default — for the shed ones.
func TestBatchPartialShedAdvertisesPolicyRetryAfter(t *testing.T) {
	s := newTestServer(t, nil)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, ReportPathV1, nil)
	s.finishBatch(rec, req, core.BatchResult{
		Submitted: 3, Processed: 1, Failed: 2, Overloaded: 2, RetryAfter: 2 * time.Second,
	}, core.BatchResult{})
	if rec.Code != http.StatusOK {
		t.Errorf("status = %d, want 200", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
	var res core.BatchResult
	if err := json.NewDecoder(rec.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Processed != 1 || res.Overloaded != 2 {
		t.Errorf("summary = %+v, want 1 processed, 2 overloaded", res)
	}
}
