package gateway_test

// Unit tests drive the gateway against small fake backends that record
// what they receive; the state machine, routing, batch splitting and the
// control broadcasts are all asserted deterministically by calling
// ProbeOnce / ControlSweep / ShipSnapshots directly (no background loops).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"oak/internal/core"
	"oak/internal/gateway"
	"oak/internal/origin"
	"oak/internal/report"
)

// fakeBackend is a recording stand-in for one oakd process.
type fakeBackend struct {
	ts *httptest.Server

	mu          sync.Mutex
	down        bool
	healthz     origin.HealthzResponse
	pop         *core.PopulationStatus
	reports     [][]byte // bodies received on the report path
	quarantines []string // providers force-quarantined via the control verb
	degrades    []string
	clears      []string
	stateGot    []byte // body received on POST /oak/v1/state
	stateServe  []byte // body served on GET /oak/v1/state
	batchReply  *core.BatchResult
	// after, when set, holds a report's answer until it is closed;
	// answered, when set, is closed once a report is answered.
	after, answered chan struct{}
}

func newFakeBackend(t *testing.T) *fakeBackend {
	t.Helper()
	f := &fakeBackend{healthz: origin.HealthzResponse{Status: "ok"}}
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.down {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		switch r.URL.Path {
		case origin.HealthzPathV1:
			_ = json.NewEncoder(w).Encode(f.healthz)
		case origin.ReportPathV1:
			body, _ := io.ReadAll(r.Body)
			f.reports = append(f.reports, body)
			if f.after != nil {
				<-f.after
			}
			if f.answered != nil {
				defer close(f.answered)
			}
			if f.batchReply != nil {
				_ = json.NewEncoder(w).Encode(f.batchReply)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		case origin.GuardQuarantinePathV1:
			f.quarantines = append(f.quarantines, r.URL.Query().Get("provider"))
			w.WriteHeader(http.StatusNoContent)
		case origin.PopulationDegradePathV1:
			f.degrades = append(f.degrades, r.URL.Query().Get("provider"))
			w.WriteHeader(http.StatusNoContent)
		case origin.PopulationClearPathV1:
			f.clears = append(f.clears, r.URL.Query().Get("provider"))
			w.WriteHeader(http.StatusNoContent)
		case origin.PopulationPathV1:
			if f.pop == nil {
				http.Error(w, "no population subsystem", http.StatusNotFound)
				return
			}
			_ = json.NewEncoder(w).Encode(f.pop)
		case origin.StatePathV1:
			if r.Method == http.MethodPost {
				f.stateGot, _ = io.ReadAll(r.Body)
				w.WriteHeader(http.StatusNoContent)
				return
			}
			_, _ = w.Write(f.stateServe)
		default: // page serve
			_, _ = fmt.Fprintf(w, "page-from-%s", f.ts.Listener.Addr())
		}
	}))
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeBackend) setDown(v bool) {
	f.mu.Lock()
	f.down = v
	f.mu.Unlock()
}

// received is a copy of everything the fake backend has recorded.
type received struct {
	reports     []string
	quarantines []string
	degrades    []string
	clears      []string
	stateGot    []byte
}

func (f *fakeBackend) snapshot() received {
	f.mu.Lock()
	defer f.mu.Unlock()
	var got received
	for _, b := range f.reports {
		got.reports = append(got.reports, string(b))
	}
	got.quarantines = append(got.quarantines, f.quarantines...)
	got.degrades = append(got.degrades, f.degrades...)
	got.clears = append(got.clears, f.clears...)
	got.stateGot = append(got.stateGot, f.stateGot...)
	return got
}

func newTestGateway(t *testing.T, backends []*fakeBackend, standby *fakeBackend) *gateway.Gateway {
	t.Helper()
	cfg := gateway.Config{}
	for _, b := range backends {
		cfg.Backends = append(cfg.Backends, b.ts.URL)
	}
	if standby != nil {
		cfg.Standby = standby.ts.URL
	}
	cfg.Logf = t.Logf
	gw, err := gateway.NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	return gw
}

// userFor finds a user ID owned by arc i of an n-way split.
func userFor(t *testing.T, i, n int) string {
	t.Helper()
	ranges := core.EqualRanges(n)
	for s := 0; s < 100000; s++ {
		uid := fmt.Sprintf("user-%d-%d", i, s)
		if core.RangeFor(uid, ranges) == i {
			return uid
		}
	}
	t.Fatalf("no user found for arc %d/%d", i, n)
	return ""
}

func TestReportRoutesToOwnerBackend(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)}
	gw := newTestGateway(t, fakes, nil)

	for i := range fakes {
		uid := userFor(t, i, 3)
		body := fmt.Sprintf(`{"userId":%q,"page":"/p","entries":[]}`, uid)
		req := httptest.NewRequest("POST", origin.ReportPathV1, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.AddCookie(&http.Cookie{Name: origin.CookieName, Value: uid})
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		if rec.Code != http.StatusNoContent {
			t.Fatalf("report for arc %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	for i, f := range fakes {
		got := f.snapshot()
		if len(got.reports) != 1 {
			t.Errorf("backend %d received %d reports, want exactly its own 1", i, len(got.reports))
		}
	}
}

func TestBatchSplitsByUserAndMerges(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)}
	for _, f := range fakes {
		f.batchReply = &core.BatchResult{Submitted: 2, Processed: 2}
	}
	gw := newTestGateway(t, fakes, nil)

	// Two lines per arc, so every backend gets exactly one sub-batch.
	var lines []string
	counts := [3]int{}
	for i := range fakes {
		for j := 0; j < 2; j++ {
			uid := userFor(t, i, 3) + fmt.Sprintf("-%d", j)
			arc := core.RangeFor(uid, core.EqualRanges(3))
			counts[arc]++
			lines = append(lines, fmt.Sprintf(`{"userId":%q,"page":"/p","entries":[]}`, uid))
		}
	}
	perArc := map[int]int{0: counts[0], 1: counts[1], 2: counts[2]}

	req := httptest.NewRequest("POST", origin.ReportPathV1, strings.NewReader(strings.Join(lines, "\n")))
	req.Header.Set("Content-Type", "application/x-ndjson")
	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
	}
	var merged core.BatchResult
	if err := json.Unmarshal(rec.Body.Bytes(), &merged); err != nil {
		t.Fatal(err)
	}
	reached := 0
	for i, f := range fakes {
		got := f.snapshot()
		if perArc[i] > 0 {
			if len(got.reports) != 1 {
				t.Errorf("backend %d got %d sub-batches, want 1", i, len(got.reports))
			} else {
				reached++
				if n := strings.Count(got.reports[0], "\n") + 1; n != perArc[i] {
					t.Errorf("backend %d sub-batch has %d lines, want %d", i, n, perArc[i])
				}
			}
		}
	}
	if wantSubmitted := reached * 2; merged.Submitted != wantSubmitted {
		t.Errorf("merged.Submitted = %d, want %d", merged.Submitted, wantSubmitted)
	}
}

// TestSplitBatchMergesInBodyOrder: a split batch's answer lists the
// backends' samples in the order their owners' first items appear in the
// body, whichever backend answers first. Here the owner of the first item
// answers last.
func TestSplitBatchMergesInBodyOrder(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	for i, f := range fakes {
		f.batchReply = &core.BatchResult{Submitted: 1, Failed: 1, Errors: []string{fmt.Sprintf("sample from backend %d", i)}}
	}
	second := make(chan struct{})
	fakes[1].answered = second
	fakes[0].after = make(chan struct{})
	go func() {
		<-second
		time.Sleep(50 * time.Millisecond) // the gateway has backend 1's answer
		close(fakes[0].after)
	}()
	gw := newTestGateway(t, fakes, nil)

	body := fmt.Sprintf(`{"userId":%q,"page":"/p","entries":[]}`+"\n"+`{"userId":%q,"page":"/p","entries":[]}`,
		userFor(t, 0, 2), userFor(t, 1, 2))
	req := httptest.NewRequest("POST", origin.ReportPathV1, strings.NewReader(body))
	req.Header.Set("Content-Type", report.ContentTypeNDJSON)
	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, req)
	var merged core.BatchResult
	if err := json.Unmarshal(rec.Body.Bytes(), &merged); err != nil {
		t.Fatalf("status %d: %v: %s", rec.Code, err, rec.Body.String())
	}
	want := []string{"sample from backend 0", "sample from backend 1"}
	if !slices.Equal(merged.Errors, want) {
		t.Errorf("merged samples %q, want %q: the first item's owner first", merged.Errors, want)
	}
}

func TestProbeStateMachineAndRecovery(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	gw := newTestGateway(t, fakes, nil)

	probeTimes := func(n int) {
		for i := 0; i < n; i++ {
			gw.ProbeOnce()
		}
	}
	probeTimes(1)
	if st := gw.BackendStates(); st[0] != gateway.StateHealthy || st[1] != gateway.StateHealthy {
		t.Fatalf("initial states = %v", st)
	}

	fakes[0].setDown(true)
	probeTimes(2) // FailThreshold
	if st := gw.BackendStates(); st[0] != gateway.StateUnhealthy {
		t.Fatalf("after 2 failures: %v", st)
	}
	probeTimes(1) // DrainThreshold
	if st := gw.BackendStates(); st[0] != gateway.StateDraining {
		t.Fatalf("after 3 failures: %v", st)
	}
	probeTimes(2) // DeadThreshold
	if st := gw.BackendStates(); st[0] != gateway.StateDead {
		t.Fatalf("after 5 failures: %v", st)
	}

	// A node that answers again is readmitted automatically.
	fakes[0].setDown(false)
	probeTimes(1)
	if st := gw.BackendStates(); st[0] != gateway.StateHealthy {
		t.Fatalf("after recovery: %v", st)
	}
}

func TestPageFailoverToStandby(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	standby := newFakeBackend(t)
	gw := newTestGateway(t, fakes, standby)
	gw.ProbeOnce()

	// Backend 0's owner goes down; its user's page must still serve 200.
	fakes[0].setDown(true)
	for i := 0; i < 3; i++ {
		gw.ProbeOnce()
	}
	uid := userFor(t, 0, 2)
	req := httptest.NewRequest("GET", "/index.html", nil)
	req.AddCookie(&http.Cookie{Name: origin.CookieName, Value: uid})
	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("page during backend loss: status %d", rec.Code)
	}
	sURL, _ := url.Parse(standby.ts.URL)
	if !strings.Contains(rec.Body.String(), sURL.Host) {
		t.Errorf("page served by %q, want standby %s", rec.Body.String(), sURL.Host)
	}
}

func TestBreakerBroadcastIsEdgeTriggered(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)}
	gw := newTestGateway(t, fakes, nil)

	fakes[0].mu.Lock()
	fakes[0].healthz.OpenBreakers = []string{"cdn.example"}
	fakes[0].mu.Unlock()
	gw.ProbeOnce()
	gw.ControlSweep()

	// The trip is mirrored to the other two backends, not back to the
	// originator.
	if got := fakes[0].snapshot().quarantines; len(got) != 0 {
		t.Errorf("originator quarantined: %v", got)
	}
	for i := 1; i < 3; i++ {
		if got := fakes[i].snapshot().quarantines; len(got) != 1 || got[0] != "cdn.example" {
			t.Errorf("backend %d quarantines = %v, want [cdn.example]", i, got)
		}
	}

	// A second sweep with the breaker still open must not re-broadcast.
	gw.ControlSweep()
	if got := fakes[1].snapshot().quarantines; len(got) != 1 {
		t.Errorf("repeat sweep re-broadcast: %v", got)
	}

	// Once no backend reports the breaker open, the edge re-arms: a fresh
	// trip broadcasts again.
	fakes[0].mu.Lock()
	fakes[0].healthz.OpenBreakers = nil
	fakes[0].mu.Unlock()
	gw.ProbeOnce()
	gw.ControlSweep()
	fakes[0].mu.Lock()
	fakes[0].healthz.OpenBreakers = []string{"cdn.example"}
	fakes[0].mu.Unlock()
	gw.ProbeOnce()
	gw.ControlSweep()
	if got := fakes[1].snapshot().quarantines; len(got) != 2 {
		t.Errorf("re-armed edge did not re-broadcast: %v", got)
	}
}

func TestDegradeMirrorAndClear(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	for _, f := range fakes {
		f.pop = &core.PopulationStatus{}
	}
	gw := newTestGateway(t, fakes, nil)

	// An organic episode on backend 0 is mirrored onto backend 1 only.
	fakes[0].mu.Lock()
	fakes[0].pop.Degraded = []core.DegradedProvider{{Provider: "ads.example"}}
	fakes[0].mu.Unlock()
	gw.ProbeOnce()
	gw.ControlSweep()
	if got := fakes[0].snapshot().degrades; len(got) != 0 {
		t.Errorf("originator re-marked: %v", got)
	}
	if got := fakes[1].snapshot().degrades; len(got) != 1 || got[0] != "ads.example" {
		t.Fatalf("mirror = %v, want [ads.example]", got)
	}

	// Backend 1 now reports the (manual) mirror; no duplicate mark, no
	// feedback loop.
	fakes[1].mu.Lock()
	fakes[1].pop.Degraded = []core.DegradedProvider{{Provider: "ads.example", Manual: true}}
	fakes[1].mu.Unlock()
	gw.ControlSweep()
	if got := fakes[1].snapshot().degrades; len(got) != 1 {
		t.Errorf("mirror duplicated: %v", got)
	}
	if got := fakes[0].snapshot().degrades; len(got) != 0 {
		t.Errorf("manual mirror fed back onto originator: %v", got)
	}

	// The organic episode recovers: the gateway clears exactly its mirror.
	fakes[0].mu.Lock()
	fakes[0].pop.Degraded = nil
	fakes[0].mu.Unlock()
	gw.ControlSweep()
	if got := fakes[1].snapshot().clears; len(got) != 1 || got[0] != "ads.example" {
		t.Errorf("clears on mirror target = %v, want [ads.example]", got)
	}
	if got := fakes[0].snapshot().clears; len(got) != 0 {
		t.Errorf("clears on originator = %v, want none", got)
	}
}

func TestReplaceShipsStoredSnapshot(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	fakes[0].mu.Lock()
	fakes[0].stateServe = []byte("OAKSNAP2-STAND-IN")
	fakes[0].mu.Unlock()
	gw := newTestGateway(t, fakes, nil)
	gw.ProbeOnce()
	gw.ShipSnapshots()

	replacement := newFakeBackend(t)
	if err := gw.Replace(t.Context(), 0, replacement.ts.URL); err != nil {
		t.Fatal(err)
	}
	if got := replacement.snapshot().stateGot; string(got) != "OAKSNAP2-STAND-IN" {
		t.Errorf("replacement received %q, want the stored snapshot", got)
	}
	if st := gw.BackendStates(); st[0] != gateway.StateHealthy {
		t.Errorf("replaced backend state = %v", st[0])
	}
	// Traffic now flows to the replacement's address.
	uid := userFor(t, 0, 2)
	req := httptest.NewRequest("GET", "/index.html", nil)
	req.AddCookie(&http.Cookie{Name: origin.CookieName, Value: uid})
	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, req)
	rURL, _ := url.Parse(replacement.ts.URL)
	if !strings.Contains(rec.Body.String(), rURL.Host) {
		t.Errorf("page served by %q, want replacement %s", rec.Body.String(), rURL.Host)
	}
}

func TestClusterHealthAggregates(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	fakes[0].mu.Lock()
	fakes[0].healthz.Users = 3
	fakes[0].healthz.Reports = 10
	fakes[0].healthz.OpenBreakers = []string{"x.example"}
	fakes[0].mu.Unlock()
	fakes[1].mu.Lock()
	fakes[1].healthz.Users = 4
	fakes[1].healthz.Reports = 7
	fakes[1].healthz.DegradedProviders = []string{"y.example"}
	fakes[1].mu.Unlock()
	gw := newTestGateway(t, fakes, nil)
	gw.ProbeOnce()

	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, httptest.NewRequest("GET", origin.HealthzPathV1, nil))
	var ch gateway.ClusterHealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ch); err != nil {
		t.Fatal(err)
	}
	if ch.Status != "ok" || ch.Users != 7 || ch.Reports != 17 {
		t.Errorf("aggregate = %s/%d users/%d reports, want ok/7/17", ch.Status, ch.Users, ch.Reports)
	}
	if len(ch.OpenBreakers) != 1 || len(ch.DegradedProviders) != 1 {
		t.Errorf("unions = %v / %v", ch.OpenBreakers, ch.DegradedProviders)
	}

	// A dead backend degrades the aggregate status.
	fakes[1].setDown(true)
	for i := 0; i < 5; i++ {
		gw.ProbeOnce()
	}
	rec = httptest.NewRecorder()
	gw.ServeHTTP(rec, httptest.NewRequest("GET", origin.HealthzPathV1, nil))
	ch = gateway.ClusterHealthResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &ch); err != nil {
		t.Fatal(err)
	}
	if ch.Status != "degraded" {
		t.Errorf("status with dead backend = %s, want degraded", ch.Status)
	}
}
