package guard

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oak/internal/faultinject"
)

// recorder collects Report callbacks.
type recorder struct {
	mu       sync.Mutex
	outcomes map[string][]bool
}

func newRecorder() *recorder { return &recorder{outcomes: make(map[string][]bool)} }

func (r *recorder) report(provider string, good bool, deltaMs float64) {
	r.mu.Lock()
	r.outcomes[provider] = append(r.outcomes[provider], good)
	r.mu.Unlock()
}

func (r *recorder) get(provider string) []bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]bool(nil), r.outcomes[provider]...)
}

func TestProbeOnce(t *testing.T) {
	okSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("probe ok"))
	}))
	defer okSrv.Close()
	deadSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer deadSrv.Close()

	resolve := func(host string) (string, bool) {
		switch host {
		case "good.example":
			return hostPort(t, okSrv.URL), true
		case "dead.example":
			return hostPort(t, deadSrv.URL), true
		default:
			return "", false
		}
	}

	rec := newRecorder()
	p := &Prober{
		Targets: func() map[string][]string {
			return map[string][]string{
				"good.example":    {"http://good.example/lib.js"},
				"dead.example":    {"http://dead.example/lib.js"},
				"unknown.example": {"http://unknown.example/lib.js"}, // unresolvable: skipped
				"empty.example":   {},                                // no URLs: skipped
			}
		},
		Report:  rec.report,
		Resolve: resolve,
		Timeout: 2 * time.Second,
	}
	p.ProbeOnce()

	if got := rec.get("good.example"); len(got) != 1 || !got[0] {
		t.Fatalf("good.example outcomes = %v", got)
	}
	if got := rec.get("dead.example"); len(got) != 1 || got[0] {
		t.Fatalf("dead.example outcomes = %v", got)
	}
	if got := rec.get("unknown.example"); len(got) != 0 {
		t.Fatalf("unresolvable provider reported: %v", got)
	}
	if got := rec.get("empty.example"); len(got) != 0 {
		t.Fatalf("URL-less provider reported: %v", got)
	}
}

// TestProbeFaultInjection runs probes through a deterministic fault-injecting
// transport: with ErrorRate 1 every probe fails and reports bad.
func TestProbeFaultInjection(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	rec := newRecorder()
	p := &Prober{
		Targets: func() map[string][]string {
			return map[string][]string{"cdn.example": {"http://cdn.example/lib.js"}}
		},
		Report: rec.report,
		Resolve: func(string) (string, bool) {
			return hostPort(t, srv.URL), true
		},
		Client: &http.Client{Transport: &faultinject.Transport{
			Base:      http.DefaultTransport,
			Seed:      1,
			ErrorRate: 1,
		}},
	}
	p.ProbeOnce()
	if got := rec.get("cdn.example"); len(got) != 1 || got[0] {
		t.Fatalf("outcomes under ErrorRate=1: %v, want one bad", got)
	}
}

func TestProberStartStop(t *testing.T) {
	var hits atomic.Int64
	second := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 2 {
			close(second)
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	rec := newRecorder()
	p := &Prober{
		Targets: func() map[string][]string {
			return map[string][]string{"cdn.example": {srv.URL + "/probe.js"}}
		},
		Report:   rec.report,
		Interval: 5 * time.Millisecond,
	}
	p.Start()
	p.Start() // idempotent
	select {
	case <-second:
	case <-time.After(2 * time.Second):
		t.Fatalf("prober hit the target %d times, want >= 2", hits.Load())
	}
	p.Stop()
	p.Stop() // idempotent
	settled := hits.Load()
	time.Sleep(25 * time.Millisecond) // five intervals of real time, in which a prober still running would probe
	if hits.Load() != settled {
		t.Fatal("prober kept probing after Stop")
	}
	if got := rec.get("cdn.example"); len(got) == 0 || !got[0] {
		t.Fatalf("outcomes = %v", got)
	}
}

func TestProberMisconfiguredStart(t *testing.T) {
	p := &Prober{Interval: time.Millisecond} // no Targets/Report
	p.Start()                                // must not panic or spin
	p.Stop()
	(&Prober{}).ProbeOnce() // no-op
}

func hostPort(t *testing.T, rawURL string) string {
	t.Helper()
	u, err := url.Parse(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}
