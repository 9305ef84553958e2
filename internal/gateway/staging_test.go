package gateway_test

// Tests of the gateway's staged bodies and its own transport: what a backend
// receives is what the client sent — across retries, failover and split
// batches, with other exchanges recycling buffers at the same time — an
// oversize backend answer is a failed forward, and backend connections are
// kept. The lifetime tests assert most under -race, where a released buffer
// is overwritten at once (see bodybuf).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oak/internal/client"
	"oak/internal/core"
	"oak/internal/gateway"
	"oak/internal/origin"
	"oak/internal/report"
)

// TestGatewayKeepsBackendConnections drives bursts of concurrent forwards at
// one backend. The gateway's own transport must hold one connection per
// concurrent forward across bursts, not net/http's default two.
func TestGatewayKeepsBackendConnections(t *testing.T) {
	const forwards, rounds = 8, 50
	var dials atomic.Int64
	backend := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusNoContent)
	}))
	backend.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	backend.Start()
	t.Cleanup(backend.Close)
	gw, err := gateway.NewGateway(gateway.Config{Backends: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i := 0; i < forwards; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req := httptest.NewRequest("POST", origin.ReportPathV1, strings.NewReader(`{"userId":"u","page":"/"}`))
				req.AddCookie(&http.Cookie{Name: origin.CookieName, Value: "u"})
				rec := httptest.NewRecorder()
				gw.ServeHTTP(rec, req)
				if rec.Code != http.StatusNoContent {
					t.Errorf("forward: status %d: %s", rec.Code, rec.Body)
				}
			}()
		}
		wg.Wait()
	}
	if n := dials.Load(); n > forwards {
		t.Errorf("backend saw %d new connections for %d rounds of %d concurrent forwards, want at most %d", n, rounds, forwards, forwards)
	}
}

// backendConns reads the gateway's own account of its backend connections
// off its metrics endpoint.
func backendConns(t *testing.T, gw *gateway.Gateway) (conns gateway.BackendConnMetrics, failovers uint64) {
	t.Helper()
	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, httptest.NewRequest("GET", origin.MetricsPathV1, nil))
	var m gateway.ClusterMetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("gateway metrics: %v", err)
	}
	return m.Gateway.BackendConns, m.Gateway.Failovers
}

// TestForwardSurvivesBackendRestart: the connections the gateway keeps can
// die while they sit idle — the backend restarts on its port, or closes
// keep-alives it considers idle. The transport finds out only when it next
// uses one; that must cost a counted retry on another connection, never a
// failed forward or a failover.
func TestForwardSurvivesBackendRestart(t *testing.T) {
	forward := func(t *testing.T, gw *gateway.Gateway, user string) {
		t.Helper()
		req := httptest.NewRequest("POST", origin.ReportPathV1, strings.NewReader(`{"userId":"`+user+`","page":"/"}`))
		req.AddCookie(&http.Cookie{Name: origin.CookieName, Value: user})
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		if rec.Code != http.StatusNoContent {
			t.Errorf("forward for %s: status %d: %s", user, rec.Code, rec.Body)
		}
	}
	accept := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusNoContent)
	})
	// The standby would take any failover, so a failed forward shows up as
	// one rather than as a 502.
	standby := httptest.NewServer(accept)
	t.Cleanup(standby.Close)

	t.Run("restarted on the same port", func(t *testing.T) {
		const rounds, concurrent = 5, 4
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := l.Addr().String()
		gw, err := gateway.NewGateway(gateway.Config{Backends: []string{addr}, Standby: standby.URL, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(gw.Close)
		for round := 0; round < rounds; round++ {
			if round > 0 {
				if l, err = net.Listen("tcp", addr); err != nil {
					t.Fatal(err)
				}
			}
			backend := &httptest.Server{Listener: l, Config: &http.Server{Handler: accept}}
			backend.Start()
			// A concurrent burst, so several connections are pooled when the
			// backend goes away; then one at a time, through the dead ones.
			var wg sync.WaitGroup
			for i := 0; i < concurrent; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					forward(t, gw, fmt.Sprintf("restart-u%d", i))
				}()
			}
			wg.Wait()
			for i := 0; i < concurrent; i++ {
				forward(t, gw, fmt.Sprintf("restart-u%d", i))
			}
			backend.Close() // closes its connections, the pooled ones included
		}
		conns, failovers := backendConns(t, gw)
		t.Logf("backend_conns %+v", conns)
		if failovers != 0 {
			t.Errorf("%d failovers, want 0: a dead pooled connection is not a dead backend", failovers)
		}
		if conns.StaleRetries < rounds-1 {
			t.Errorf("stale_retries %d, want at least one per restart (%d)", conns.StaleRetries, rounds-1)
		}
	})

	t.Run("backend closes idle keep-alives", func(t *testing.T) {
		const forwards = 20
		backend := httptest.NewUnstartedServer(accept)
		backend.Config.IdleTimeout = 10 * time.Millisecond
		backend.Start()
		t.Cleanup(backend.Close)
		gw, err := gateway.NewGateway(gateway.Config{Backends: []string{backend.URL}, Standby: standby.URL, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(gw.Close)
		for i := 0; i < forwards; i++ {
			forward(t, gw, "idle-u")
			time.Sleep(25 * time.Millisecond) // past the backend's idle timeout
		}
		conns, failovers := backendConns(t, gw)
		t.Logf("backend_conns %+v", conns)
		if failovers != 0 {
			t.Errorf("%d failovers, want 0", failovers)
		}
		if conns.StaleRetries == 0 || conns.Dials < 2 {
			t.Errorf("backend_conns %+v: every forward found its pooled connection closed, want stale retries and re-dials", conns)
		}
	})
}

// endless is a body that never ends.
type endless struct{}

var endlessChunk = bytes.Repeat([]byte("x"), 64<<10)

func (endless) Read(p []byte) (int, error) { return copy(p, endlessChunk), nil }

// TestOversizeBackendPageIsAFailedForward: a backend that sends more than
// the gateway will stage used to have its page relayed cut short under a
// 200. It is a failed forward — the page fails over, and with nowhere to
// fail over to the client gets a 502, never a truncated page.
func TestOversizeBackendPageIsAFailedForward(t *testing.T) {
	oversize := func(declare bool) string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if declare {
				w.Header().Set("Content-Length", fmt.Sprint(gateway.MaxForwardBytes+1))
			}
			_, _ = io.CopyN(w, endless{}, gateway.MaxForwardBytes+1)
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	get := func(cfg gateway.Config) (int, string) {
		cfg.Logf = t.Logf
		gw, err := gateway.NewGateway(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer gw.Close()
		ts := httptest.NewServer(gw)
		defer ts.Close()
		resp, err := http.Get(ts.URL + "/index.html")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		head, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		if n, _ := io.Copy(io.Discard, resp.Body); n > 0 {
			t.Errorf("status %d relayed %d bytes", resp.StatusCode, int64(len(head))+n)
		}
		return resp.StatusCode, string(head)
	}

	// Undeclared, so the gateway finds out by reading one byte too many.
	standby := newFakeBackend(t)
	code, body := get(gateway.Config{Backends: []string{oversize(false)}, Standby: standby.ts.URL})
	if code != http.StatusOK || !strings.HasPrefix(body, "page-from-") {
		t.Errorf("with a standby: status %d body %q, want the standby's page", code, body)
	}
	// Declared, so it is refused unread.
	if code, _ := get(gateway.Config{Backends: []string{oversize(true)}}); code != http.StatusBadGateway {
		t.Errorf("with no failover target: status %d, want 502", code)
	}
}

// TestStagedBodyAcrossRetryAndFailover sends distinct report bodies at once
// through a gateway whose primary misbehaves in the ways that stretch a
// forwarded request body's life past one round trip:
//
//   - refused unread: it answers 503 without reading the body — larger than
//     a loopback socket buffers, so net/http is still blocked sending it —
//     and reads on only once the client has the relayed 503, that is, after
//     the gateway's handler has returned and released what it staged;
//   - early 503: it answers 503 + Retry-After before reading, then takes the
//     retry;
//   - dropped: it closes every connection unanswered, so the forward fails
//     over to the standby.
//
// Whoever ends up reading a body must read the bytes the client sent.
func TestStagedBodyAcrossRetryAndFailover(t *testing.T) {
	bodyOf := func(i, size int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("body %d|", i)), size/8)
	}
	userOf := func(r *http.Request) string {
		ck, _ := r.Cookie(origin.CookieName)
		return ck.Value
	}
	// recorder keeps what a backend read, by the user the gateway forwarded
	// the request for.
	type recorder struct {
		mu   sync.Mutex
		got  map[string][]byte
		seen map[string]int
	}
	record := func(rec *recorder, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		rec.mu.Lock()
		rec.got[userOf(r)] = body
		rec.mu.Unlock()
	}
	firstAttempt := func(rec *recorder, r *http.Request) bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		rec.seen[userOf(r)]++
		return rec.seen[userOf(r)] == 1
	}

	for _, tc := range []struct {
		name     string
		requests int
		attempts int
		size     func(i int) int
		// primary serves the primary backend; answered(user) is closed once
		// the test's client has its response for that user.
		primary  func(rec *recorder, answered func(user string) <-chan struct{}, w http.ResponseWriter, r *http.Request)
		want     int
		receiver string // which backend must hold (a prefix of) every body afterwards
		prefix   bool   // the receiver may have been cut off mid-body
	}{
		{
			name:     "refused unread",
			requests: 6,
			attempts: 1,
			size:     func(i int) int { return 6<<20 + i<<16 },
			primary: func(rec *recorder, answered func(string) <-chan struct{}, w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Length", "0") // a whole answer, not an open chunked one
				w.WriteHeader(http.StatusServiceUnavailable)
				w.(http.Flusher).Flush()
				<-answered(userOf(r))
				// net/http gives up on the unsent rest 50 ms after the answer, so
				// this may be cut short; what does arrive must be the client's.
				record(rec, r)
			},
			want:     http.StatusServiceUnavailable,
			receiver: "primary",
			prefix:   true,
		},
		{
			name:     "early 503 then retry",
			requests: 200,
			attempts: 2,
			size:     func(i int) int { return 48<<10 + i*1031 },
			primary: func(rec *recorder, _ func(string) <-chan struct{}, w http.ResponseWriter, r *http.Request) {
				if firstAttempt(rec, r) {
					w.Header().Set("Retry-After", "1")
					w.WriteHeader(http.StatusServiceUnavailable)
					return
				}
				record(rec, r)
				w.WriteHeader(http.StatusNoContent)
			},
			want:     http.StatusNoContent,
			receiver: "primary",
		},
		{
			name:     "dropped connections then failover",
			requests: 200,
			attempts: 2,
			size:     func(i int) int { return 48<<10 + i*1031 },
			primary: func(_ *recorder, _ func(string) <-chan struct{}, w http.ResponseWriter, _ *http.Request) {
				if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
					conn.Close()
				}
			},
			want:     http.StatusNoContent,
			receiver: "standby",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs := map[string]*recorder{
				"primary": {got: map[string][]byte{}, seen: map[string]int{}},
				"standby": {got: map[string][]byte{}, seen: map[string]int{}},
			}
			answered := make(map[string]chan struct{}, tc.requests)
			for i := 0; i < tc.requests; i++ {
				answered[fmt.Sprintf("u%d", i)] = make(chan struct{})
			}
			primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				tc.primary(recs["primary"], func(user string) <-chan struct{} { return answered[user] }, w, r)
			}))
			defer primary.Close()
			standby := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				record(recs["standby"], r)
				w.WriteHeader(http.StatusNoContent)
			}))
			defer standby.Close()
			gw, err := gateway.NewGateway(gateway.Config{
				Backends: []string{primary.URL},
				Standby:  standby.URL,
				Retry:    client.RetryPolicy{MaxAttempts: tc.attempts, BaseDelay: time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()
			edge := httptest.NewServer(gw)
			defer edge.Close()
			hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: tc.requests}}
			defer hc.CloseIdleConnections()

			var wg sync.WaitGroup
			for i := 0; i < tc.requests; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					user := fmt.Sprintf("u%d", i)
					defer close(answered[user])
					req, err := http.NewRequest("POST", edge.URL+origin.ReportPathV1, bytes.NewReader(bodyOf(i, tc.size(i))))
					if err != nil {
						t.Error(err)
						return
					}
					req.Header.Set("Content-Type", "application/json")
					req.AddCookie(&http.Cookie{Name: origin.CookieName, Value: user})
					resp, err := hc.Do(req)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != tc.want {
						t.Errorf("request %d: status %d, want %d", i, resp.StatusCode, tc.want)
					}
				}(i)
			}
			wg.Wait()
			primary.Close() // waits for the handlers still reading
			rec := recs[tc.receiver]
			rec.mu.Lock()
			defer rec.mu.Unlock()
			for i := 0; i < tc.requests; i++ {
				got, sent := rec.got[fmt.Sprintf("u%d", i)], bodyOf(i, tc.size(i))
				if tc.prefix {
					sent = sent[:min(len(got), len(sent))]
				}
				if !bytes.Equal(got, sent) {
					t.Errorf("request %d: the %s read %d bytes that are not the client's", i, tc.receiver, len(got))
				}
			}
		})
	}
}

// TestSplitBatchesAndSinglesStayApart runs cookie-less NDJSON and OAKRPT1
// batches that span both arcs — each split into sub-batches whose lines and
// frames alias one staged body until they are joined — while single reports
// go through the same buffer pools. Every line and frame is unique; each backend must receive
// exactly the ones its arc owns, whole, once.
func TestSplitBatchesAndSinglesStayApart(t *testing.T) {
	const workers, rounds, perArc = 8, 25, 3
	ranges := core.EqualRanges(2)

	var mu sync.Mutex
	received := []map[string]int{{}, {}} // per backend: line or frame payload → times seen
	backends := make([]string, 2)
	for i := range backends {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			var pieces [][]byte
			switch report.ClassifyContentType(r.Header.Get("Content-Type")) {
			case report.FormatNDJSON:
				pieces = bytes.Split(body, []byte("\n"))
			case report.FormatBinaryBatch:
				for rest := body; ; {
					frame, next, err := report.NextBinaryFrame(rest)
					if err != nil || frame == nil {
						break
					}
					pieces, rest = append(pieces, frame), next
				}
			default:
				pieces = [][]byte{body}
				w.WriteHeader(http.StatusNoContent)
			}
			mu.Lock()
			for _, p := range pieces {
				received[i][string(p)]++
			}
			mu.Unlock()
			if len(pieces) > 1 {
				_ = json.NewEncoder(w).Encode(core.BatchResult{Submitted: len(pieces), Processed: len(pieces)})
			}
		}))
		t.Cleanup(ts.Close)
		backends[i] = ts.URL
	}
	gw, err := gateway.NewGateway(gateway.Config{Backends: backends})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)

	users := make([][]string, 2) // perArc user IDs owned by each arc
	for s := 0; len(users[0]) < perArc || len(users[1]) < perArc; s++ {
		u := fmt.Sprintf("split-u%d", s)
		if arc := core.RangeFor(u, ranges); len(users[arc]) < perArc {
			users[arc] = append(users[arc], u)
		}
	}
	sent := map[string]int{} // payload → owning arc
	post := func(contentType string, body []byte, want int) {
		req := httptest.NewRequest("POST", origin.ReportPathV1, bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		if rec.Code != want {
			t.Errorf("%s: status %d, want %d: %s", contentType, rec.Code, want, rec.Body)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Build each worker's traffic first: the expectation map is written
		// here, on the test goroutine only.
		type exchange struct {
			contentType string
			body        []byte
			want        int
		}
		var traffic []exchange
		for round := 0; round < rounds; round++ {
			var ndjson, frames []byte
			for arc := range users {
				for _, u := range users[arc] {
					tag := fmt.Sprintf("/w%d/r%d/%s", w, round, strings.Repeat("p", 40*(w+round)))
					line := fmt.Sprintf(`{"userId":%q,"page":%q,"entries":[]}`, u, tag)
					sent[line] = arc
					ndjson = append(append(ndjson, line...), '\n')

					rep := binFrameReport(u)
					rep.Page = tag
					payload, err := rep.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					sent[string(payload)] = arc
					frames, _ = report.AppendBinaryFrame(frames, nil, rep)

					single := fmt.Sprintf(`{"userId":%q,"page":"/single%s","entries":[]}`, u, tag)
					sent[single] = arc
					traffic = append(traffic, exchange{report.ContentTypeJSON, []byte(single), http.StatusNoContent})
				}
			}
			traffic = append(traffic,
				exchange{report.ContentTypeNDJSON, bytes.TrimSuffix(ndjson, []byte("\n")), http.StatusOK},
				exchange{report.ContentTypeBinaryBatch, frames, http.StatusOK})
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, x := range traffic {
				post(x.contentType, x.body, x.want)
			}
		}()
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for i, got := range received {
		for payload, n := range got {
			arc, ok := sent[payload]
			switch {
			case !ok:
				t.Errorf("backend %d received a piece nobody sent: %.80q", i, payload)
			case arc != i:
				t.Errorf("backend %d received arc %d's piece: %.80q", i, arc, payload)
			case n != 1:
				t.Errorf("backend %d received a piece %d times: %.80q", i, n, payload)
			}
		}
	}
	for payload, arc := range sent {
		if received[arc][payload] == 0 {
			t.Errorf("arc %d's backend never received %.80q", arc, payload)
		}
	}
}
