package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"oak/internal/origin"
	"oak/internal/rules"
)

func bytesReader(b []byte) io.Reader {
	if len(b) == 0 {
		return nil
	}
	return bytes.NewReader(b)
}

// small returns a copy of the named workload shrunk to a population a test
// can prepare in milliseconds.
func small(t *testing.T, name string) *workload {
	t.Helper()
	wl := *findWorkload(name)
	wl.users, wl.rate = 300, 400
	if wl.topo == topoSpill {
		wl.users, wl.profileCache = 600, 60
	}
	return &wl
}

// TestModelAgainstARealEngine drives 200 operations of the page-heavy mix
// through a real in-process origin server, one at a time, and requires every
// response to be what the per-user model predicts; afterwards the engine's
// activations must be exactly the model's active users.
func TestModelAgainstARealEngine(t *testing.T) {
	wl := small(t, "page_direct")
	wl.users = 40 // every user is touched several times in 200 operations
	wl.share = [numKinds]int{opPage: 60, opReport: 35, opBatch: 5}
	w, err := newWorld(11, wl.users)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(w, wl, "")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	srv := origin.NewServer(e)
	for _, p := range w.pages {
		srv.SetPage(p.path, p.html)
	}
	m := newModel(w)
	g := newOpGen(w, wl, m, streamPaced, "test")
	r := &runner{w: w, wl: wl, m: m}
	var o op
	rewritten := 0
	for i := 0; i < 200; i++ {
		g.next(uint64(i), &o)
		if !g.exclusive(&o) {
			t.Fatalf("op %d not exclusive with one operation in flight", i)
		}
		method, path := http.MethodPost, origin.ReportPathV1
		if o.kind == opPage {
			method, path = http.MethodGet, w.pages[o.pages[0]].path
		}
		req := httptest.NewRequest(method, path, bytesReader(o.body))
		if o.kind != opBatch {
			req.AddCookie(&http.Cookie{Name: origin.CookieName, Value: w.userIDs[o.users[0]]})
		}
		if o.kind != opPage {
			req.Header.Set("Content-Type", o.contentType)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		resp := response{status: rec.Code, alt: rec.Header().Get(rules.CacheHintHeader), body: rec.Body.Bytes()}
		if why := r.check(&o, resp, true, true); why != "" {
			t.Fatalf("op %d (%s): %s", i, o.kind, why)
		}
		if o.kind == opPage && resp.alt != "" {
			rewritten++
		}
		g.finish(&o, true)
	}
	if rewritten == 0 {
		t.Fatal("no page was rewritten in 200 operations: the test exercises nothing")
	}
	for u, uid := range w.userIDs {
		snap, _ := e.Snapshot(uid)
		wantActive := m.state[u].Load() == stActive
		if wantActive != (len(snap.ActiveRules) > 0) {
			t.Errorf("user %s: model active=%v, engine rules %v", uid, wantActive, snap.ActiveRules)
		}
		if wantActive && (len(snap.ActiveRules) != 1 || snap.ActiveRules[0] != w.providers[w.afflict[u]].ruleID) {
			t.Errorf("user %s: engine rules %v, want [%s]", uid, snap.ActiveRules, w.providers[w.afflict[u]].ruleID)
		}
	}
}

// TestQuickSmokeOfAllFourMixes runs every workload's mix, closed loop and
// paced, against in-process servers with real loopback sockets, and
// requires every exchange to verify and every acknowledged report to be
// counted by a server.
func TestQuickSmokeOfAllFourMixes(t *testing.T) {
	for i := range workloads {
		wl := small(t, workloads[i].name)
		t.Run(wl.name, func(t *testing.T) {
			w, err := newWorld(2, wl.users)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			root, _, err := w.writeSite(dir)
			if err != nil {
				t.Fatal(err)
			}
			dep, err := startInproc(w, wl, root, filepath.Join(dir, "servers"), newTracer())
			if err != nil {
				t.Fatal(err)
			}
			defer dep.close()
			if err := prepareUsers(w, dep.front); err != nil {
				t.Fatal(err)
			}
			r := &runner{w: w, wl: wl, m: newModel(w), addr: dep.front}
			var acked int64
			for _, po := range []phaseOpts{
				{stream: streamWarmup, duration: 300 * time.Millisecond, checkAll: true},
				{stream: streamPaced, rate: wl.rate, duration: 300 * time.Millisecond},
			} {
				ph := r.run(po)
				if len(ph.samples) == 0 {
					t.Fatal("phase ran no operations")
				}
				for _, f := range ph.firstFailures {
					t.Error(f)
				}
				acked += ph.ackedReports
			}
			var handled uint64
			for _, e := range dep.engines {
				handled += e.Metrics().ReportsHandled
			}
			if int64(handled) != acked+int64(wl.users) {
				t.Errorf("servers handled %d reports, generator saw %d acknowledged after %d of preparation", handled, acked, wl.users)
			}
		})
	}
}

// TestQuickLayers runs the traced run end to end on the gateway mix and
// checks that every per-layer metric is reported and the span file exists.
func TestQuickLayers(t *testing.T) {
	wl := small(t, "gateway_mixed")
	repo := t.TempDir()
	if err := os.MkdirAll(filepath.Join(repo, "bench", "out"), 0o755); err != nil {
		t.Fatal(err)
	}
	h := &harness{repo: repo, dir: filepath.Join(repo, "work")}
	lr, err := runLayers(h, wl, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range lr.Failures {
		t.Error(f)
	}
	if lr.Failed != 0 || lr.Ops == 0 {
		t.Fatalf("failed %d of %d, %d traced ops", lr.Failed, lr.Attempted, lr.Ops)
	}
	for _, lm := range layerMetrics {
		if _, ok := lr.Metrics[lm.name]; !ok {
			t.Errorf("metric %s missing", lm.name)
		}
	}
	for _, name := range []string{"nethttp.report_self_us", "origin.report_us", "origin.page_us", "core.ingest_us", "gateway.report_added_us", "gateway.page_added_us", "client.submit_us"} {
		if lr.Metrics[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, lr.Metrics[name])
		}
	}
	if _, err := os.Stat(filepath.Join(repo, lr.TraceFile)); err != nil {
		t.Error(err)
	}
}

// TestExclusivityNoticesALaterOverlap is the paced phase's race: a page GET
// is drawn, then waits for its due instant while a report of the same user
// is drawn, sent and acknowledged. The page's response can then be either
// form, and must not be checked against the state the GET was drawn in.
func TestExclusivityNoticesALaterOverlap(t *testing.T) {
	wl := small(t, "page_direct")
	wl.users = 1
	w, err := newWorld(4, wl.users)
	if err != nil {
		t.Fatal(err)
	}
	m := newModel(w)
	early := newOpGen(w, wl, m, streamPaced, "test")
	late := newOpGen(w, wl, m, streamPaced, "test")
	var a, b, c op
	early.next(0, &a)
	if !early.exclusive(&a) {
		t.Fatal("a lone exchange is not exclusive")
	}
	late.next(1, &b)
	if late.exclusive(&b) {
		t.Fatal("an exchange drawn while another is in flight is exclusive")
	}
	late.finish(&b, true)
	if early.exclusive(&a) {
		t.Fatal("an exchange overlapped after it was drawn is still exclusive")
	}
	early.finish(&a, true)
	early.next(2, &c)
	if !early.exclusive(&c) {
		t.Fatal("exclusivity does not come back once the user is idle")
	}
	early.finish(&c, true)
}

// TestRunDirIsEmptyEveryTime: a second run of the same workload in one
// invocation (-sets 2) must not boot on the state the first one saved.
func TestRunDirIsEmptyEveryTime(t *testing.T) {
	h := &harness{dir: t.TempDir()}
	dir, err := h.runDir("page_direct")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "state-0.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	again, err := h.runDir("page_direct")
	if err != nil || again != dir {
		t.Fatalf("second runDir = %q, %v; want %q", again, err, dir)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("run directory still holds %d entries", len(left))
	}
}
