package gateway_test

// Tests of the gateway's one backend call: every backend answer is read
// whole under a bound, and more than the bound is an error — never a stored
// or relayed prefix, never an unbounded read. A status is checked before a
// body is believed, and a redirect is an answer, not an instruction.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"oak/internal/gateway"
	"oak/internal/origin"
)

// clusterView is the gateway's detailed fleet view.
func clusterView(t *testing.T, gw *gateway.Gateway) gateway.ClusterHealthResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, httptest.NewRequest("GET", gateway.ClusterPathV1, nil))
	var ch gateway.ClusterHealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ch); err != nil {
		t.Fatalf("cluster view: %v", err)
	}
	return ch
}

// oversizeAnswer writes a declared answer of one byte more than the gateway
// stages, the way oakd declares its snapshots.
func oversizeAnswer(w http.ResponseWriter) {
	w.Header().Set("Content-Length", fmt.Sprint(gateway.MaxForwardBytes+1))
	_, _ = io.CopyN(w, endless{}, gateway.MaxForwardBytes+1)
}

// TestOversizeSnapshotKeepsThePreviousOne: a backend whose state outgrows
// the read bound used to have the first 64 MiB of it stored as its snapshot,
// and shipped as such by a later Replace. The poll now refuses it: the
// previous snapshot stays, and is what Replace ships.
func TestOversizeSnapshotKeepsThePreviousOne(t *testing.T) {
	const small = "OAKSNAP2-STAND-IN"
	var big atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != origin.StatePathV1 {
			http.NotFound(w, r)
			return
		}
		if big.Load() {
			oversizeAnswer(w)
			return
		}
		_, _ = io.WriteString(w, small)
	}))
	defer ts.Close()
	var mu sync.Mutex
	var logged []string
	gw, err := gateway.NewGateway(gateway.Config{
		Backends: []string{ts.URL},
		Logf: func(format string, args ...any) {
			mu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	gw.ShipSnapshots()
	if got := clusterView(t, gw).Backends[0].SnapshotBytes; got != len(small) {
		t.Fatalf("snapshot_bytes after the first poll = %d, want %d", got, len(small))
	}
	big.Store(true)
	gw.ShipSnapshots()
	if got := clusterView(t, gw).Backends[0].SnapshotBytes; got != len(small) {
		t.Errorf("snapshot_bytes after an oversize poll = %d, want the previous %d", got, len(small))
	}
	mu.Lock()
	refused := strings.Contains(strings.Join(logged, "\n"), "refused")
	mu.Unlock()
	if !refused {
		t.Errorf("the refusal was not logged: %q", logged)
	}

	replacement := newFakeBackend(t)
	if err := gw.Replace(t.Context(), 0, replacement.ts.URL); err != nil {
		t.Fatal(err)
	}
	if got := replacement.snapshot().stateGot; string(got) != small {
		t.Errorf("replacement received %d bytes, want the previous snapshot (%d)", len(got), len(small))
	}
}

// TestOversizeReportAnswerIsAFailedForward: a backend answering a report
// with more than the gateway stages used to have the whole answer read and
// relayed. It is a failed forward: the report fails over, and with every
// backend doing it the client gets a 502, not 64 MiB.
func TestOversizeReportAnswerIsAFailedForward(t *testing.T) {
	var hits [2]atomic.Int32
	oversize := func(i int) string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[i].Add(1)
			_, _ = io.Copy(io.Discard, r.Body)
			oversizeAnswer(w)
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	gw, err := gateway.NewGateway(gateway.Config{Backends: []string{oversize(0)}, Standby: oversize(1), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	ts := httptest.NewServer(gw)
	defer ts.Close()

	req, _ := http.NewRequest("POST", ts.URL+origin.ReportPathV1, strings.NewReader(benchReportBody("big-answer")))
	req.AddCookie(&http.Cookie{Name: origin.CookieName, Value: "big-answer"})
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	n, _ := io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusBadGateway || n > 4096 {
		t.Errorf("status %d with %d bytes relayed, want a 502", resp.StatusCode, n)
	}
	if hits[0].Load() == 0 || hits[1].Load() == 0 {
		t.Errorf("primary answered %d times, standby %d: want both tried", hits[0].Load(), hits[1].Load())
	}
}

// TestFailedMetricsScrapeIsAnErrorRow: a backend answering its metrics
// endpoint with a 500 whose body happens to be valid JSON used to have that
// body shown as its metrics. It is the backend's error row.
func TestFailedMetricsScrapeIsAnErrorRow(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = io.WriteString(w, `{"uptime_seconds": 1}`)
	}))
	defer ts.Close()
	gw, err := gateway.NewGateway(gateway.Config{Backends: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, httptest.NewRequest("GET", origin.MetricsPathV1, nil))
	var cm gateway.ClusterMetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cm); err != nil {
		t.Fatal(err)
	}
	if row := cm.Backends[0]; row.Metrics != nil || row.Error == "" {
		t.Errorf("backend row = metrics %v, error %q; want an error row", row.Metrics, row.Error)
	}
}

// TestBackendRedirectIsNotFollowed: a backend answering 307 used to have the
// gateway re-POST the report, and re-send the probe, to wherever Location
// pointed. A redirect is an answer like any other: relayed to the client for
// a report, a failed probe for healthz, and nothing reaches the target.
func TestBackendRedirectIsNotFollowed(t *testing.T) {
	var elsewhere atomic.Int32
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		elsewhere.Add(1)
		_ = json.NewEncoder(w).Encode(origin.HealthzResponse{Status: "ok"})
	}))
	defer target.Close()
	redirecting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, target.URL+r.URL.Path, http.StatusTemporaryRedirect)
	}))
	defer redirecting.Close()
	gw, err := gateway.NewGateway(gateway.Config{Backends: []string{redirecting.URL}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	req := httptest.NewRequest("POST", origin.ReportPathV1, strings.NewReader(benchReportBody("moved")))
	req.AddCookie(&http.Cookie{Name: origin.CookieName, Value: "moved"})
	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, req)
	if rec.Code != http.StatusTemporaryRedirect {
		t.Errorf("report: status %d, want the backend's 307 relayed", rec.Code)
	}
	gw.ProbeOnce()
	if row := clusterView(t, gw).Backends[0]; row.ConsecutiveFails != 1 {
		t.Errorf("probe of a redirecting backend: %d consecutive fails (%q), want 1", row.ConsecutiveFails, row.LastError)
	}
	if n := elsewhere.Load(); n != 0 {
		t.Errorf("the redirect target received %d requests, want none", n)
	}
}
