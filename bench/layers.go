package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"oak/internal/core"
	"oak/internal/gateway"
	"oak/internal/origin"
	"oak/internal/report"
	"oak/internal/rules"
	"oak/internal/stats"
)

// layerMetric names one per-layer metric of the traced run. The prefix is
// the repository module (or nethttp: Go's HTTP stack and the kernel's
// loopback; gen and trace: the benchmark itself).
type layerMetric struct{ name, unit, better string }

var layerMetrics = []layerMetric{
	{"nethttp.report_self_us", "us", "lower"},
	{"nethttp.page_self_us", "us", "lower"},
	{"origin.report_us", "us", "lower"},
	{"origin.report_self_us", "us", "lower"},
	{"origin.page_us", "us", "lower"},
	{"origin.page_self_us", "us", "lower"},
	{"origin.batch_us_per_report", "us", "lower"},
	{"origin.report_allocs", "count", "lower"},
	{"origin.page_allocs", "count", "lower"},
	{"origin.pages_degraded", "count", "lower"},
	{"report.decode_json_us", "us", "lower"},
	{"report.decode_binary_us", "us", "lower"},
	{"report.decode_json_allocs", "count", "lower"},
	{"report.decode_binary_allocs", "count", "lower"},
	{"report.wire_bytes_json", "B", "lower"},
	{"report.wire_bytes_binary", "B", "lower"},
	{"stats.mad_ns", "ns", "lower"},
	{"core.ingest_us", "us", "lower"},
	{"core.ingest_allocs", "count", "lower"},
	{"core.analyze_us", "us", "lower"},
	{"core.fingerprint_ns", "ns", "lower"},
	{"core.rewrite_hit_us", "us", "lower"},
	{"core.rewrite_miss_us", "us", "lower"},
	{"core.rewrite_cache_hit_ratio", "ratio", "higher"},
	{"core.rewrite_cache_bytes", "B", "lower"},
	{"core.rehydrate_us", "us", "lower"},
	{"core.ingest_at_cap_us", "us", "lower"},
	{"core.rehydrations", "count", "lower"},
	{"core.profile_spills", "count", "lower"},
	{"core.segment_compactions", "count", "lower"},
	{"core.spill_bytes", "B", "lower"},
	{"core.profiles_resident", "count", "lower"},
	{"core.export_us_per_user", "us", "lower"},
	{"core.statefile_save_ms", "ms", "lower"},
	{"core.statefile_load_ms", "ms", "lower"},
	{"core.reports_handled", "count", "higher"},
	{"core.rule_activations", "count", "lower"},
	{"core.pages_modified", "count", "higher"},
	{"core.reports_shed", "count", "lower"},
	{"core.server_ingest_mean_us", "us", "lower"},
	{"core.server_rewrite_mean_us", "us", "lower"},
	{"rules.compile_us", "us", "lower"},
	{"rules.apply_us", "us", "lower"},
	{"rules.apply_ns_per_kb", "ns/KB", "lower"},
	{"rules.apply_sequential_us", "us", "lower"},
	{"guard.breaker_trips", "count", "lower"},
	{"guard.activations_blocked", "count", "lower"},
	{"gateway.report_added_us", "us", "lower"},
	{"gateway.page_added_us", "us", "lower"},
	{"gateway.batch_added_us_per_report", "us", "lower"},
	{"gateway.forward_allocs", "count", "lower"},
	{"gateway.forwarded_reports", "count", "higher"},
	{"gateway.forwarded_pages", "count", "higher"},
	{"gateway.failovers", "count", "lower"},
	{"client.submit_us", "us", "lower"},
	{"gen.late_p99_ms", "ms", "lower"},
	{"gen.late_frac", "ratio", "lower"},
	{"gen.verify_skipped", "count", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// layerResult is one traced run of one workload.
type layerResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Metrics   map[string]float64 `json:"metrics"`
	Stages    []stageRow         `json:"stages"`
	FitFrac   float64            `json:"replayed_children_fit_frac"`
	Ops       int                `json:"traced_ops"`
	Spans     int                `json:"spans"`
	TraceFile string             `json:"trace_file"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	WallS     float64            `json:"wall_s"`
}

// stageRow is one row of the stage table: where the in-process round trip
// of one kind of exchange goes, layer by layer (µs; means over the fastest
// 95 % of the kind's requests, so the parts add up to the round trip).
type stageRow struct {
	Kind      string  `json:"kind"`
	RoundTrip float64 `json:"round_trip_us"`
	NetHTTP   float64 `json:"nethttp_us"`
	Gateway   float64 `json:"gateway_self_us"`
	Origin    float64 `json:"origin_self_us"`
	Decode    float64 `json:"report_decode_us"`
	Core      float64 `json:"core_us"`
	Rules     float64 `json:"rules_us"`
	Ops       int     `json:"ops"`
}

// inproc is a workload's servers inside the benchmark process, each
// handler wrapped so the benchmark's own files record its span.
type inproc struct {
	engines  []*core.Engine
	origins  []*origin.Server
	gw       *gateway.Gateway
	servers  []*http.Server
	backends []string
	front    string
}

// newEngine builds an engine the way oakd's default flags do (rewrite
// cache 1024, guard 5/3), plus the workload's residency cap.
func newEngine(w *world, wl *workload, spillDir string) (*core.Engine, error) {
	ruleSet, err := rules.ParseJSON(w.rulesJSON)
	if err != nil {
		return nil, fmt.Errorf("bench: rules: %w", err)
	}
	opts := []core.Option{
		core.WithRewriteCache(1024),
		core.WithGuard(core.GuardConfig{TripThreshold: 5, HalfOpenCanaries: 3}),
	}
	if wl.topo == topoSpill {
		opts = append(opts, core.WithProfileResidency(core.ResidencyConfig{Dir: spillDir, MaxProfiles: wl.profileCache}))
	}
	return core.NewEngine(ruleSet, opts...)
}

func serveOn(h http.Handler) (*http.Server, string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("bench: %w", err)
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(l) }()
	return srv, l.Addr().String(), nil
}

// spanned records a span around every report and page the handler serves
// while tracing is on. Probes and snapshot polls between the gateway and
// its backends are not requests of the workload and are left out.
func spanned(name, tag string, h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := r.URL.Path
		if !tr.on.Load() || (strings.HasPrefix(p, "/oak/") && p != origin.ReportPathV1) {
			h.ServeHTTP(w, r)
			return
		}
		start := tr.now()
		h.ServeHTTP(w, r)
		tr.add(span{Parent: -1, Req: -1, Name: name, Tag: tag, Start: start, End: tr.now()})
	})
}

func startInproc(w *world, wl *workload, root, dir string, tr *tracer) (*inproc, error) {
	d := &inproc{}
	n := 1
	if wl.topo == topoGateway {
		n = 2
	}
	for i := 0; i < n; i++ {
		e, err := newEngine(w, wl, filepath.Join(dir, fmt.Sprintf("spill-%d", i)))
		if err != nil {
			d.close()
			return nil, err
		}
		d.engines = append(d.engines, e)
		o := origin.NewServer(e)
		if _, err := o.LoadPages(os.DirFS(root)); err != nil {
			d.close()
			return nil, err
		}
		d.origins = append(d.origins, o)
		srv, addr, err := serveOn(spanned("origin", fmt.Sprint(i), o, tr))
		if err != nil {
			d.close()
			return nil, err
		}
		d.servers = append(d.servers, srv)
		d.backends = append(d.backends, addr)
	}
	d.front = d.backends[0]
	if wl.topo == topoGateway {
		gw, err := gateway.NewGateway(gateway.Config{Backends: d.backends})
		if err != nil {
			d.close()
			return nil, err
		}
		gw.Start()
		d.gw = gw
		srv, addr, err := serveOn(spanned("gateway", "", gw, tr))
		if err != nil {
			d.close()
			return nil, err
		}
		d.servers = append(d.servers, srv)
		d.front = addr
	}
	return d, nil
}

func (d *inproc) close() {
	if d.gw != nil {
		d.gw.Close()
	}
	for _, s := range d.servers {
		_ = s.Close()
	}
	for _, e := range d.engines {
		_ = e.Close()
	}
}

// layerRun is the state of one traced run.
type layerRun struct {
	w    *world
	wl   *workload
	dir  string
	root string
	res  *layerResult
}

// traceBlock is how many consecutive operations run with spans on, then
// off, and so on: the two kinds of block see the same machine at the same
// time, so their round trips differ by the recording alone.
const traceBlock = 100

// runLayers performs the traced run of one workload: the workload's op
// stream against in-process servers with one closed-loop client, every
// operation replayed on a twin engine layer by layer, spans recorded in
// alternate blocks; then the measurements that need no traffic, and the
// generator's own lateness at the paced rate.
func runLayers(h *harness, wl *workload, seed int64, seconds int) (*layerResult, error) {
	began := time.Now()
	w, err := newWorld(seed, wl.users)
	if err != nil {
		return nil, err
	}
	dir, err := h.runDir(wl.name + "-layers")
	if err != nil {
		return nil, err
	}
	root, _, err := w.writeSite(dir)
	if err != nil {
		return nil, err
	}
	lr := &layerRun{w: w, wl: wl, dir: dir, root: root, res: &layerResult{
		Workload: wl.name, Seed: seed, Seconds: seconds, Metrics: map[string]float64{},
	}}
	for _, lm := range layerMetrics {
		lr.res.Metrics[lm.name] = 0
	}
	tr := newTracer()
	if err := lr.pass(tr, time.Duration(float64(seconds)*0.6*float64(time.Second))); err != nil {
		return nil, err
	}
	tr.mu.Lock()
	spans := tr.spans
	tr.mu.Unlock()
	lr.spanMetrics(spans)
	lr.res.Spans = len(spans)
	lr.res.TraceFile = filepath.Join("bench", "out", "trace."+wl.name+".json")
	if err := writeTrace(filepath.Join(h.repo, lr.res.TraceFile), wl.name, seed, spans); err != nil {
		return nil, err
	}
	lr.res.WallS = time.Since(began).Seconds()
	return lr.res, nil
}

// pass runs the closed-loop pass for d against a fresh in-process
// deployment and fills in everything but the span-derived metrics.
func (lr *layerRun) pass(tr *tracer, d time.Duration) error {
	res := lr.res
	dep, err := startInproc(lr.w, lr.wl, lr.root, filepath.Join(lr.dir, "servers"), tr)
	if err != nil {
		return err
	}
	defer dep.close()
	if err := prepareUsers(lr.w, dep.front); err != nil {
		return err
	}
	twin, err := newTwin(lr, filepath.Join(lr.dir, "twin"))
	if err != nil {
		return err
	}
	defer twin.close()

	m := newModel(lr.w)
	g := newOpGen(lr.w, lr.wl, m, streamLayers, dep.front)
	r := &runner{w: lr.w, wl: lr.wl, m: m, addr: dep.front}
	c := &conn{addr: dep.front}
	defer c.close()
	var o op
	var rtt [2][]float64 // round trips (µs) with spans off, on
	start := time.Now()
	for i := uint64(0); time.Since(start) < d; i++ {
		on := (i/traceBlock)%2 == 1
		tr.on.Store(on)
		g.next(i, &o)
		mark := tr.mark()
		t0 := tr.now()
		resp, err := c.do(o.request)
		t1 := tr.now()
		res.Attempted++
		why := ""
		if err != nil {
			why = err.Error()
		} else {
			why = r.check(&o, resp, g.exclusive(&o), i < 2*traceBlock)
		}
		if why != "" {
			res.Failed++
			if len(res.Failures) < 5 {
				res.Failures = append(res.Failures, fmt.Sprintf("%s #%d: %s", o.kind, i, why))
			}
		}
		if on {
			rtt[1] = append(rtt[1], float64(t1-t0)/1e3)
			res.Ops++
		} else {
			rtt[0] = append(rtt[0], float64(t1-t0)/1e3)
		}
		cl := tr.add(span{Parent: -1, Req: int64(i), Name: "client", Tag: o.kind.String(), Start: t0, End: t1})
		twin.replay(tr, &o, tr.adopt(mark, int64(i), cl))
		g.finish(&o, why == "")
	}
	if len(rtt[0]) == 0 || len(rtt[1]) == 0 {
		return fmt.Errorf("bench: traced pass of %s ran no operations", lr.wl.name)
	}
	res.Metrics["trace.overhead_frac"] = (median(rtt[1]) - median(rtt[0])) / median(rtt[0])

	// The traffic-free measurements record reference spans too.
	tr.on.Store(true)
	lr.counters(dep)
	err = lr.micro(dep, twin, g, tr)
	tr.on.Store(false)
	if err != nil {
		return err
	}

	// How late the generator itself runs at the workload's paced rate,
	// against these in-process servers, spans off.
	lateFor := min(d/6, 2*time.Second)
	ph := r.run(phaseOpts{stream: streamPaced, rate: lr.wl.rate, duration: lateFor})
	res.Metrics["gen.late_frac"], res.Metrics["gen.late_p99_ms"] = lateness(ph.samples)
	res.Metrics["gen.verify_skipped"] = float64(ph.skipped)
	for i := range ph.samples {
		res.Attempted++
		if !ph.samples[i].ok {
			res.Failed++
		}
	}
	res.Failures = append(res.Failures, ph.firstFailures...)
	return nil
}

// twinEngine is the engine the runner replays operations on: the same
// rules and options as the servers', fed the same reports, so each layer
// function does on it what it did inside origin's handler.
type twinEngine struct {
	lr      *layerRun
	e       *core.Engine
	srv     *origin.Server
	http    *http.Server
	addr    string
	gs      *report.GroupScratch
	vals    []float64
	scratch []float64
	arcs    []core.HashRange
	// prev is the body of the last report replayed.
	prev       []byte
	prevBinary bool
}

func newTwin(lr *layerRun, dir string) (*twinEngine, error) {
	e, err := newEngine(lr.w, lr.wl, filepath.Join(dir, "spill"))
	if err != nil {
		return nil, err
	}
	t := &twinEngine{lr: lr, e: e, srv: origin.NewServer(e), gs: report.NewGroupScratch()}
	if _, err := t.srv.LoadPages(os.DirFS(lr.root)); err != nil {
		return nil, err
	}
	if t.http, t.addr, err = serveOn(t.srv); err != nil {
		return nil, err
	}
	if lr.wl.topo == topoGateway {
		t.arcs = core.EqualRanges(2)
	}
	// The same users the servers were prepared with.
	if err := prepareUsers(lr.w, t.addr); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *twinEngine) close() {
	_ = t.http.Close()
	_ = t.e.Close()
}

// replay repeats operation o on the twin, one span per layer call, under
// the origin span(s) the servers recorded for it.
func (t *twinEngine) replay(tr *tracer, o *op, server []int32) {
	originOf := func(user int) int32 {
		// The origin span of the backend that owns the user (-1: spans off).
		want := "0"
		if t.arcs != nil {
			want = fmt.Sprint(core.RangeFor(t.lr.w.userIDs[user], t.arcs))
		}
		tr.mu.Lock()
		defer tr.mu.Unlock()
		for _, id := range server {
			if s := &tr.spans[id]; s.Name == "origin" && s.Tag == want {
				return id
			}
		}
		return -1
	}
	switch o.kind {
	case opPage:
		t.replayPage(tr, originOf(o.users[0]), o.users[0], t.lr.w.pages[o.pages[0]])
	case opReport:
		t.replayReport(tr, originOf(o.users[0]), o.body, o.binary, true)
	case opBatch:
		rest := o.body
		for _, u := range o.users {
			var one []byte
			if o.binary {
				one, rest, _ = report.NextBinaryFrame(rest)
			} else {
				nl := bytes.IndexByte(rest, '\n')
				one, rest = rest[:nl], rest[nl+1:]
			}
			t.replayReport(tr, originOf(u), one, o.binary, false)
		}
	}
}

func decode(body []byte, binary bool) (*report.Report, error) {
	if binary {
		return report.DecodeBinaryPooled(body)
	}
	return report.DecodePooled(body)
}

// replayReport decodes and ingests one report on the twin. The body is
// copied first, as the handler's own read does: decoded reports alias it
// and the engine may keep what they point at. detail adds the analysis
// spans under core.ingest.
func (t *twinEngine) replayReport(tr *tracer, parent int32, body []byte, binary, detail bool) {
	name := "report.decode_json"
	if binary {
		name = "report.decode_binary"
	}
	own := append([]byte(nil), body...)
	// The report pool is one per process, and a pooled report keeps the
	// strings of its last decode to recycle equal ones. The server's decode
	// just left this very report there; put the previous one back first, so
	// the timed decode recycles what a server's would: its previous report.
	if t.prev != nil {
		if last, err := decode(t.prev, t.prevBinary); err == nil {
			last.Release()
		}
	}
	t.prev, t.prevBinary = own, binary
	t0 := time.Now()
	rep, err := decode(own, binary)
	d := time.Since(t0)
	if err != nil {
		return
	}
	tr.replayUnder(parent, name, "", d)
	t0 = time.Now()
	_, _ = t.e.HandleReportCtx(context.Background(), rep)
	ingest := tr.replayUnder(parent, "core.ingest", "", time.Since(t0))
	if !detail {
		return
	}
	// Inside ingest: grouping and the MAD criterion, on a second decode
	// (ingest released the first).
	rep, err = decode(append([]byte(nil), body...), binary)
	if err != nil {
		return
	}
	t0 = time.Now()
	servers := t.gs.Group(rep)
	_ = core.DetectViolators(servers, stats.DefaultMADMultiplier)
	analyze := tr.replayUnder(ingest, "core.analyze", "", time.Since(t0))
	t.vals = t.vals[:0]
	for _, s := range servers {
		if s.SmallCount > 0 {
			t.vals = append(t.vals, s.SmallMeanTimeMs)
		}
	}
	t0 = time.Now()
	_, _, t.scratch, _ = stats.MedianMADInto(t.vals, t.scratch)
	tr.replayUnder(analyze, "stats.mad", "", time.Since(t0))
	rep.Release()
}

// replayPage serves one page on the twin the way origin's handler does:
// the non-blocking cached path first, the full rewrite if that declines.
func (t *twinEngine) replayPage(tr *tracer, parent int32, user int, p *page) {
	uid := t.lr.w.userIDs[user]
	cold := t.lr.wl.topo == topoSpill && t.e.Residency(uid) == "spilled"
	t0 := time.Now()
	rw, ok := t.e.RewriteCached(uid, p.path, p.html)
	if !ok {
		rw = t.e.RewritePage(uid, p.path, p.html)
	}
	d := time.Since(t0)
	t0 = time.Now()
	fp := t.e.ActivationFingerprint(uid, p.path)
	dfp := time.Since(t0)
	tag := "untouched"
	switch {
	case cold:
		tag = "cold"
	case rw.CacheHit:
		tag = "hit"
	case fp != 0:
		tag = "miss"
	}
	rewrite := tr.replayUnder(parent, "core.rewrite", tag, d)
	tr.replayUnder(rewrite, "core.fingerprint", "", dfp)
	if tag == "miss" {
		t.applySpans(tr, rewrite, uid, p)
	}
}

// applySpans times the rule layer for the user's live activations on p:
// the compiled apply as the rewrite's child, and compile and the
// sequential reference beside the tree (the engine caches the compiled
// applier per profile, and never runs the reference on this path).
func (t *twinEngine) applySpans(tr *tracer, rewrite int32, uid string, p *page) {
	acts := t.e.ActiveRules(uid, p.path)
	if len(acts) == 0 {
		return
	}
	t0 := time.Now()
	ap := rules.NewApplier(acts, p.path)
	dc := time.Since(t0)
	t0 = time.Now()
	_, _ = ap.Apply(p.html)
	da := time.Since(t0)
	t0 = time.Now()
	_, _ = rules.Apply(p.html, p.path, acts)
	ds := time.Since(t0)
	kb := fmt.Sprint(len(p.html) >> 10)
	if rewrite >= 0 {
		tr.replayUnder(rewrite, "rules.apply", kb, da)
	} else {
		now := tr.now()
		tr.add(span{Parent: -1, Req: -1, Name: "rules.apply", Tag: kb, Start: now, End: now + int64(da), Replayed: true})
	}
	now := tr.now()
	tr.add(span{Parent: -1, Req: -1, Name: "rules.compile", Start: now, End: now + int64(dc), Replayed: true})
	tr.add(span{Parent: -1, Req: -1, Name: "rules.apply_sequential", Tag: kb, Start: now, End: now + int64(ds), Replayed: true})
}
