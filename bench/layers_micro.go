package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"oak/internal/client"
	"oak/internal/gateway"
	"oak/internal/origin"
	"oak/internal/report"
)

// counters reads what the servers counted over the traced pass.
func (lr *layerRun) counters(dep *inproc) {
	m := lr.res.Metrics
	var ingest, rewrite struct {
		n   uint64
		sum time.Duration
	}
	var hits, misses uint64
	for i, e := range dep.engines {
		c := e.Metrics()
		m["core.reports_handled"] += float64(c.ReportsHandled)
		m["core.rule_activations"] += float64(c.RuleActivations)
		m["core.pages_modified"] += float64(c.PagesModified)
		m["core.reports_shed"] += float64(c.ReportsShed)
		m["guard.breaker_trips"] += float64(c.BreakerTrips)
		m["guard.activations_blocked"] += float64(c.ActivationsBlocked)
		m["origin.pages_degraded"] += float64(dep.origins[i].PagesDegraded())
		rc := e.RewriteCacheStats()
		hits, misses = hits+rc.Hits, misses+rc.Misses
		m["core.rewrite_cache_bytes"] += float64(rc.Bytes)
		lat := e.Latencies()
		ingest.n, ingest.sum = ingest.n+lat.Ingest.Count, ingest.sum+lat.Ingest.Sum
		rewrite.n, rewrite.sum = rewrite.n+lat.Rewrite.Count, rewrite.sum+lat.Rewrite.Sum
		if ss, ok := e.SpillStatus(); ok {
			m["core.rehydrations"] += float64(ss.Rehydrations)
			m["core.profile_spills"] += float64(ss.Spills)
			m["core.segment_compactions"] += float64(ss.SegmentCompactions)
			m["core.spill_bytes"] += float64(ss.SpillBytes)
			m["core.profiles_resident"] += float64(ss.ProfilesResident)
		}
		for name, v := range map[string]uint64{"RewritePanics": c.RewritePanics, "SpillErrors": c.SpillErrors} {
			if v != 0 {
				lr.res.Failures = append(lr.res.Failures, fmt.Sprintf("engine %d %s = %d, want 0", i, name, v))
			}
		}
	}
	if hits+misses > 0 {
		m["core.rewrite_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	if ingest.n > 0 {
		m["core.server_ingest_mean_us"] = float64(ingest.sum) / float64(ingest.n) / 1e3
	}
	if rewrite.n > 0 {
		m["core.server_rewrite_mean_us"] = float64(rewrite.sum) / float64(rewrite.n) / 1e3
	}
	if dep.gw != nil {
		var gm gateway.ClusterMetricsResponse
		if err := getJSON(dep.front, origin.MetricsPathV1, &gm); err == nil {
			m["gateway.forwarded_reports"] = float64(gm.Gateway.ForwardedReports)
			m["gateway.forwarded_pages"] = float64(gm.Gateway.ForwardedPages)
			m["gateway.failovers"] = float64(gm.Gateway.Failovers)
		}
	}
}

// Sizes of the traffic-free measurements.
const (
	microReports = 200 // reports decoded in both encodings, ingested, posted
	microAllocs  = 100 // calls per allocation count
	microSubmits = 300 // forwards through the gateway's primitive
)

// micro takes the measurements that need no traffic, on the twin: both
// decoders over the same reports, the rule layer for every provider and
// page, allocation counts, the gateway's forward primitive, export and the
// state file.
func (lr *layerRun) micro(dep *inproc, twin *twinEngine, g *opGen, tr *tracer) error {
	m := lr.res.Metrics
	w := lr.w

	// The same reports in both encodings: decode time, size, allocations.
	var lt loadTimes
	var rep report.Report
	r := newRNG(uint64(w.seed), 0x6d6963)
	var jsonBodies, binBodies [][]byte
	for i := 0; i < microReports; i++ {
		u, p := r.intn(len(w.userIDs)), w.pages[r.intn(len(w.pages))]
		drawLoad(&lt, p, r, -1, stHealthy)
		fillReport(&rep, w.userIDs[u], p, &lt, baseStampMs)
		jsonBodies = append(jsonBodies, appendReportJSON(nil, w.userIDs[u], p, &lt, baseStampMs))
		binBodies = append(binBodies, rep.AppendBinary(nil))
	}
	for i := range jsonBodies {
		for _, enc := range []struct {
			name   string
			body   []byte
			binary bool
		}{{"report.decode_json", jsonBodies[i], false}, {"report.decode_binary", binBodies[i], true}} {
			t0 := time.Now()
			dr, err := decode(enc.body, enc.binary)
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("bench: %s: %w", enc.name, err)
			}
			dr.Release()
			now := tr.now()
			tr.add(span{Parent: -1, Req: -1, Name: enc.name, Start: now, End: now + int64(d), Replayed: true})
		}
		m["report.wire_bytes_json"] += float64(len(jsonBodies[i])) / microReports
		m["report.wire_bytes_binary"] += float64(len(binBodies[i])) / microReports
	}
	m["report.decode_json_allocs"] = allocsOf(microAllocs, nil, func(i int) {
		if dr, err := report.DecodePooled(jsonBodies[i]); err == nil {
			dr.Release()
		}
	})
	m["report.decode_binary_allocs"] = allocsOf(microAllocs, nil, func(i int) {
		if dr, err := report.DecodeBinaryPooled(binBodies[i]); err == nil {
			dr.Release()
		}
	})
	var decoded *report.Report
	m["core.ingest_allocs"] = allocsOf(microAllocs, func(i int) {
		decoded, _ = report.DecodePooled(append([]byte(nil), jsonBodies[i]...))
	}, func(int) { _, _ = twin.e.HandleReportCtx(context.Background(), decoded) })

	// The rule layer, for every provider on every page that embeds it.
	for k := range w.providers {
		// A user afflicted by provider k, made active on the twin.
		for u, a := range w.afflict {
			if int(a) != k {
				continue
			}
			for _, p := range w.pages {
				if !p.hasFrag[k] {
					continue
				}
				drawLoad(&lt, p, r, k, stPending)
				body := appendReportJSON(nil, w.userIDs[u], p, &lt, baseStampMs)
				if dr, err := report.DecodePooled(body); err == nil {
					_, _ = twin.e.HandleReportCtx(context.Background(), dr)
				}
				break
			}
			for _, p := range w.pages {
				if p.hasFrag[k] {
					twin.applySpans(tr, -1, w.userIDs[u], p)
				}
			}
			break
		}
	}

	// Allocations of origin's handler per report and per page.
	sink := &nopWriter{h: http.Header{}}
	var req *http.Request
	m["origin.report_allocs"] = allocsOf(microAllocs, func(i int) {
		req = httptest.NewRequest(http.MethodPost, origin.ReportPathV1, bytes.NewReader(jsonBodies[i]))
		req.Header.Set("Content-Type", "application/json")
		sink.reset()
	}, func(int) { twin.srv.ServeHTTP(sink, req) })
	m["origin.page_allocs"] = allocsOf(microAllocs, func(i int) {
		req = httptest.NewRequest(http.MethodGet, w.pages[i%len(w.pages)].path, nil)
		req.AddCookie(&http.Cookie{Name: origin.CookieName, Value: w.userIDs[r.intn(len(w.userIDs))]})
		sink.reset()
	}, func(int) { twin.srv.ServeHTTP(sink, req) })

	// The gateway's forward primitive against a handler that does nothing,
	// and what the gateway's own handler allocates on top of it.
	noop, noopAddr, err := serveOn(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusNoContent)
	}))
	if err != nil {
		return err
	}
	defer noop.Close()
	hc := &client.HTTPClient{HTTP: &http.Client{Timeout: opTimeout}}
	submits := make([]float64, microSubmits)
	for i := range submits {
		t0 := time.Now()
		res, err := hc.SubmitBytes(context.Background(), "http://"+noopAddr+origin.ReportPathV1, "application/json", jsonBodies[i%len(jsonBodies)], nil)
		submits[i] = float64(time.Since(t0)) / 1e3
		if err != nil || res.Status != http.StatusNoContent {
			return fmt.Errorf("bench: client.submit: %v", err)
		}
	}
	m["client.submit_us"] = median(submits)
	gw, err := gateway.NewGateway(gateway.Config{Backends: []string{noopAddr}})
	if err != nil {
		return err
	}
	gwSrv, gwAddr, err := serveOn(gw)
	if err != nil {
		return err
	}
	defer gwSrv.Close()
	perHop := func(addr string) float64 {
		c := &conn{addr: addr}
		defer c.close()
		var reqBytes []byte
		return allocsOf(microAllocs, func(i int) {
			reqBytes = g.appendRequest(reqBytes[:0], "POST", origin.ReportPathV1, w.userIDs[0], "application/json", jsonBodies[i])
		}, func(int) { _, _ = c.do(reqBytes) })
	}
	m["gateway.forward_allocs"] = perHop(gwAddr) - perHop(noopAddr)

	// Export and the state file, on the first server engine.
	e := dep.engines[0]
	t0 := time.Now()
	if _, err := e.ExportState(); err != nil {
		return fmt.Errorf("bench: export: %w", err)
	}
	if users := e.Users(); users > 0 {
		m["core.export_us_per_user"] = float64(time.Since(t0)) / 1e3 / float64(users)
	}
	statePath := filepath.Join(lr.dir, "layers-state.json")
	t0 = time.Now()
	if err := e.SaveStateFile(statePath); err != nil {
		return fmt.Errorf("bench: save state: %w", err)
	}
	m["core.statefile_save_ms"] = float64(time.Since(t0)) / 1e6
	fresh, err := newEngine(w, lr.wl, filepath.Join(lr.dir, "load-spill"))
	if err != nil {
		return err
	}
	defer fresh.Close()
	t0 = time.Now()
	if _, err := fresh.LoadStateFile(statePath); err != nil {
		return fmt.Errorf("bench: load state: %w", err)
	}
	m["core.statefile_load_ms"] = float64(time.Since(t0)) / 1e6
	return nil
}

// nopWriter is a ResponseWriter that keeps nothing.
type nopWriter struct{ h http.Header }

func (n *nopWriter) Header() http.Header         { return n.h }
func (n *nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (n *nopWriter) WriteHeader(int)             {}
func (n *nopWriter) reset()                      { clear(n.h) }

// allocsOf is the median number of heap allocations of f(i) over n calls;
// prep(i), if any, runs before each call and is not counted.
func allocsOf(n int, prep func(int), f func(int)) float64 {
	var ms runtime.MemStats
	counts := make([]float64, n)
	for i := 0; i < n; i++ {
		if prep != nil {
			prep(i)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		f(i)
		runtime.ReadMemStats(&ms)
		counts[i] = float64(ms.Mallocs - before)
	}
	return median(counts)
}
