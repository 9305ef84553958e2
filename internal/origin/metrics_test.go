package origin

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"oak/internal/core"
	"oak/internal/obs"
	"oak/internal/rules"
)

// slowReportBody is a report where 9.9.9.9 badly under-performs three peers.
func slowReportBody(user string) string {
	return fmt.Sprintf(`{"userId":%q,"page":"/index.html","entries":[
	  {"url":"http://slow.example/x.png","serverAddr":"9.9.9.9","sizeBytes":1000,"durationMillis":3000},
	  {"url":"http://a.example/a.png","serverAddr":"1.1.1.1","sizeBytes":1000,"durationMillis":100},
	  {"url":"http://b.example/b.png","serverAddr":"2.2.2.2","sizeBytes":1000,"durationMillis":110},
	  {"url":"http://c.example/c.png","serverAddr":"3.3.3.3","sizeBytes":1000,"durationMillis":95}
	]}`, user)
}

func swapRule() *rules.Rule {
	return &rules.Rule{
		ID:           "swap",
		Type:         rules.TypeReplaceSame,
		Default:      `<img src="http://slow.example/x.png">`,
		Alternatives: []string{`<img src="http://fast.example/x.png">`},
		Scope:        "*",
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("GET %s Content-Type = %q, want application/json", url, ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// postReport POSTs one report as the given user.
func postReport(t *testing.T, tsURL, user string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, tsURL+ReportPathV1, strings.NewReader(slowReportBody(user)))
	req.AddCookie(&http.Cookie{Name: CookieName, Value: user})
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("POST report = %d", resp.StatusCode)
	}
}

// TestMetricsEndpointConcurrent round-trips /oak/v1/metrics JSON while many
// clients ingest reports and load pages; run with -race.
func TestMetricsEndpointConcurrent(t *testing.T) {
	s := newTestServer(t, []*rules.Rule{swapRule()})
	s.SetPage("/index.html", `<html><img src="http://slow.example/x.png"></html>`)
	ts := httptest.NewServer(s)
	defer ts.Close()

	const users = 4
	const rounds = 10
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			user := fmt.Sprintf("u%d", u)
			for i := 0; i < rounds; i++ {
				postReport(t, ts.URL, user)
				req, _ := http.NewRequest(http.MethodGet, ts.URL+"/index.html", nil)
				req.AddCookie(&http.Cookie{Name: CookieName, Value: user})
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				var m MetricsResponse
				getJSON(t, ts.URL+MetricsPathV1, &m)
			}
		}(u)
	}
	wg.Wait()

	var m MetricsResponse
	getJSON(t, ts.URL+MetricsPathV1, &m)
	if m.Counters.ReportsHandled != users*rounds {
		t.Errorf("ReportsHandled = %d, want %d", m.Counters.ReportsHandled, users*rounds)
	}
	if m.Ingest.Count != users*rounds {
		t.Errorf("Ingest.Count = %d, want %d", m.Ingest.Count, users*rounds)
	}
	if m.Rewrite.Count != users*rounds {
		t.Errorf("Rewrite.Count = %d, want %d", m.Rewrite.Count, users*rounds)
	}
	if m.Ingest.P99Ms <= 0 || m.Ingest.MaxMs <= 0 {
		t.Errorf("ingest histogram not populated: %+v", m.Ingest)
	}
	if len(m.IngestBuckets) == 0 || len(m.RewriteBuckets) == 0 {
		t.Error("histogram buckets missing from metrics JSON")
	}
	if m.Counters.PagesModified == 0 {
		t.Errorf("PagesModified = 0, want > 0 (rule should have activated); counters %+v", m.Counters)
	}
}

func TestTraceEndpointBounds(t *testing.T) {
	engine, err := core.NewEngine([]*rules.Rule{swapRule()}, core.WithTraceCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(engine)
	ts := httptest.NewServer(s)
	defer ts.Close()

	var evs []obs.Event
	getJSON(t, ts.URL+TracePathV1, &evs)
	if len(evs) != 0 {
		t.Errorf("fresh trace = %d events, want 0 (and [] not null)", len(evs))
	}

	for i := 0; i < 30; i++ {
		postReport(t, ts.URL, "u1")
	}
	getJSON(t, ts.URL+TracePathV1+"?n=5", &evs)
	if len(evs) != 5 {
		t.Fatalf("trace?n=5 = %d events", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Errorf("events out of order: seq %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	// Asking for more than the ring holds returns the whole ring, no more.
	getJSON(t, ts.URL+TracePathV1+"?n=10000", &evs)
	if len(evs) != 16 {
		t.Errorf("trace?n=10000 = %d events, want ring capacity 16", len(evs))
	}
	// Default window is 100.
	getJSON(t, ts.URL+TracePathV1, &evs)
	if len(evs) != 16 {
		t.Errorf("trace default = %d events, want 16", len(evs))
	}

	for _, bad := range []string{"?n=0", "?n=-3", "?n=x"} {
		resp, err := http.Get(ts.URL + TracePathV1 + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("trace%s = %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestHealthzBeforeAfterStateImport(t *testing.T) {
	// A first server learns state from a report.
	s1 := newTestServer(t, []*rules.Rule{swapRule()})
	ts1 := httptest.NewServer(s1)
	defer ts1.Close()

	var h HealthzResponse
	getJSON(t, ts1.URL+HealthzPathV1, &h)
	if h.Status != "ok" || h.Users != 0 || h.Rules != 1 || h.Reports != 0 {
		t.Errorf("fresh healthz = %+v, want ok/0 users/1 rule/0 reports", h)
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("uptime = %f, want >= 0", h.UptimeSeconds)
	}
	postReport(t, ts1.URL, "u1")
	getJSON(t, ts1.URL+HealthzPathV1, &h)
	if h.Users != 1 || h.Reports != 1 {
		t.Errorf("healthz after report = %+v, want 1 user / 1 report", h)
	}

	// A restarted server importing that state reports the users immediately.
	state, err := s1.Engine().ExportState()
	if err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, []*rules.Rule{swapRule()})
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	getJSON(t, ts2.URL+HealthzPathV1, &h)
	if h.Users != 0 {
		t.Fatalf("second server healthz before import = %+v", h)
	}
	if err := s2.Engine().ImportState(state); err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts2.URL+HealthzPathV1, &h)
	if h.Users != 1 {
		t.Errorf("healthz after import = %+v, want 1 user", h)
	}
	if h.Reports != 0 {
		t.Errorf("Reports after import = %d, want 0 (counters are per-process)", h.Reports)
	}
}

func TestObservabilityEndpointsGetOnly(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	for _, path := range []string{MetricsPathV1, HealthzPathV1, TracePathV1} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, resp.StatusCode)
		}
	}
}
