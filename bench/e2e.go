package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"oak/internal/gateway"
	"oak/internal/origin"
)

// Run shape, the same for every workload.
const (
	restarts       = 15              // timed restarts with state; setup_s is their median
	warmupDuration = 2 * time.Second // untimed, the workload's own mix
	pacedShare     = 0.25            // of --seconds; the rest is the saturate phase
	prepareBatch   = 50              // reports per POST while creating the users
	startTimeout   = 60 * time.Second
)

// deployment is the set of server processes of one workload.
type deployment struct {
	h        *harness
	wl       *workload
	dir      string // the run's own directory: state files, spill segments
	root     string
	rules    string
	backends []string // oakd addresses
	front    string   // address the generator talks to
	procs    []*proc  // running processes, backends first
}

func (h *harness) deploy(wl *workload, dir, root, rulesPath string) (*deployment, error) {
	d := &deployment{h: h, wl: wl, dir: dir, root: root, rules: rulesPath}
	n := 1
	if wl.topo == topoGateway {
		n = 2
	}
	for i := 0; i < n; i++ {
		addr, err := freePort()
		if err != nil {
			return nil, err
		}
		d.backends = append(d.backends, addr)
	}
	d.front = d.backends[0]
	if wl.topo == topoGateway {
		addr, err := freePort()
		if err != nil {
			return nil, err
		}
		d.front = addr
	}
	return d, nil
}

// start executes every process and waits until each answers healthz. It
// returns the time from the first exec to the last healthy answer; with a
// state file present this is a restart with state, so loading it (and
// recovering the spill segments) is inside.
func (d *deployment) start() (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), startTimeout)
	defer cancel()
	t0 := time.Now()
	for i, addr := range d.backends {
		args := []string{
			"-root", d.root, "-rules", d.rules, "-addr", addr,
			"-state", filepath.Join(d.dir, fmt.Sprintf("state-%d.json", i)),
		}
		if d.wl.topo == topoSpill {
			args = append(args, "-profile-cache", strconv.Itoa(d.wl.profileCache),
				"-spill-dir", filepath.Join(d.dir, fmt.Sprintf("spill-%d", i)))
		}
		p, err := d.h.start(filepath.Join(d.h.bin, "oakd"), fmt.Sprintf("oakd-%d", i), addr, args...)
		if err != nil {
			return 0, err
		}
		d.procs = append(d.procs, p)
	}
	if d.wl.topo == topoGateway {
		p, err := d.h.start(filepath.Join(d.h.bin, "oakgw"), "oakgw", d.front, "-addr", d.front, "-backends", strings.Join(d.backends, ","))
		if err != nil {
			return 0, err
		}
		d.procs = append(d.procs, p)
	}
	for _, p := range d.procs {
		if err := p.awaitHealthy(ctx); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// stop shuts the processes down, the gateway first, so every oakd takes its
// final state save with nothing in flight.
func (d *deployment) stop() error {
	var first error
	for i := len(d.procs) - 1; i >= 0; i-- {
		if err := d.procs[i].stop(); err != nil && first == nil {
			first = err
		}
	}
	d.procs = nil
	return first
}

// runResult is one end-to-end run of one workload.
type runResult struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Seconds   int                 `json:"seconds"`
	Rate      int                 `json:"paced_rate_per_s"`
	Conns     int                 `json:"connections"`
	LoadAvg1  float64             `json:"loadavg_1min_before"`
	Metrics   map[string]estimate `json:"end_to_end"`
	Kinds     map[string]kindStat `json:"per_kind"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Failures  []string            `json:"failures,omitempty"`
	Gen       genStat             `json:"generator"`
	Servers   serverStat          `json:"servers"`
	SetupRuns []float64           `json:"setup_s_runs"`
	Speed     estimate            `json:"machine_speed_saturate"`
	WallS     float64             `json:"wall_s"`
}

// kindStat is one kind of exchange over one phase, pooled.
type kindStat struct {
	PacedN      int     `json:"paced_samples"`
	PacedP50    float64 `json:"paced_p50_ms"`
	PacedP99    float64 `json:"paced_p99_ms"`
	SaturateN   int     `json:"saturate_samples"`
	SaturateP50 float64 `json:"saturate_p50_ms"`
}

// genStat says how well the generator kept its own schedule.
type genStat struct {
	LateFrac      float64 `json:"late_frac"`
	LateP99Ms     float64 `json:"late_p99_ms"`
	VerifySkipped int64   `json:"verify_skipped"`
}

// serverStat is what the servers said about the run.
type serverStat struct {
	ReportsHandled   uint64  `json:"reports_handled"`
	ReportsAcked     int64   `json:"reports_acked"`
	RuleActivations  uint64  `json:"rule_activations"`
	PagesModified    uint64  `json:"pages_modified"`
	IngestMeanUs     float64 `json:"ingest_mean_us"`
	RewriteMeanUs    float64 `json:"rewrite_mean_us"`
	CacheHits        uint64  `json:"rewrite_cache_hits"`
	CacheMisses      uint64  `json:"rewrite_cache_misses"`
	CacheBytes       int64   `json:"rewrite_cache_bytes"`
	Rehydrations     uint64  `json:"rehydrations"`
	ProfileSpills    uint64  `json:"profile_spills"`
	Compactions      uint64  `json:"segment_compactions"`
	SpillBytes       int64   `json:"spill_bytes"`
	ProfilesResident int64   `json:"profiles_resident"`
	Users            int     `json:"users"`
	ForwardedReports uint64  `json:"gateway_forwarded_reports"`
	ForwardedPages   uint64  `json:"gateway_forwarded_pages"`
	Failovers        uint64  `json:"gateway_failovers"`
}

// endToEnd lists the end-to-end metrics in the order they are printed;
// BENCHMARK.json carries the same. bound is how much worse a metric may get,
// as a share of the base, before compare calls it a regression.
var endToEnd = []struct {
	name, unit, better string
	bound              float64
}{
	{"setup_s", "s", "lower", 0.25},
	{"report_p50_ms", "ms", "lower", 0.20},
	{"page_p50_ms", "ms", "lower", 0.25},
	{"batch_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.15},
	{"rss_mb", "MB", "lower", 0.20},
}

// runWorkload performs one end-to-end run: prepare, timed restarts,
// warm-up, paced phase, saturate phase, verification.
func runWorkload(h *harness, wl *workload, seed int64, seconds int) (*runResult, error) {
	began := time.Now()
	res := &runResult{
		Workload: wl.name, Seed: seed, Seconds: seconds, Rate: wl.rate, Conns: connections(),
		LoadAvg1: loadAvg1(), Metrics: map[string]estimate{}, Kinds: map[string]kindStat{},
	}
	w, err := newWorld(seed, wl.users)
	if err != nil {
		return nil, err
	}
	dir, err := h.runDir(wl.name)
	if err != nil {
		return nil, err
	}
	root, rulesPath, err := w.writeSite(dir)
	if err != nil {
		return nil, err
	}
	d, err := h.deploy(wl, dir, root, rulesPath)
	if err != nil {
		return nil, err
	}
	defer func() { _ = d.stop() }()

	// Prepare (untimed): boot on empty state, make every profile exist with
	// one healthy report per user, shut down so the state is saved.
	if _, err := d.start(); err != nil {
		return nil, err
	}
	if err := prepareUsers(w, d.front); err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	// Timed restarts; the last one stays up for the run.
	for i := 0; i < restarts; i++ {
		el, err := d.start()
		if err != nil {
			return nil, err
		}
		res.SetupRuns = append(res.SetupRuns, el.Seconds())
		if i < restarts-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}

	paced := max(time.Duration(float64(seconds)*pacedShare+0.5)*time.Second, time.Second)
	saturate := max(time.Duration(seconds)*time.Second-paced, time.Second)
	r := &runner{w: w, wl: wl, m: newModel(w), addr: d.front}

	warm := r.run(phaseOpts{stream: streamWarmup, rate: wl.rate, duration: warmupDuration, checkAll: true})
	pacedProcs := newProcSampler(d.procs, int(paced/time.Second))
	pacedRes := r.run(phaseOpts{stream: streamPaced, rate: wl.rate, duration: paced})
	pacedProcs.wait()
	satProcs := newProcSampler(d.procs, int(saturate/time.Second))
	satRes := r.run(phaseOpts{stream: streamSaturate, duration: saturate})
	satProcs.wait()

	for _, ph := range []*phaseResult{warm, pacedRes, satRes} {
		res.Servers.ReportsAcked += ph.ackedReports
		res.Gen.VerifySkipped += ph.skipped
		res.Failures = append(res.Failures, ph.firstFailures...)
		// Warm-up exchanges are untimed but checked: a wrong answer there
		// fails the run all the same.
		for i := range ph.samples {
			res.Attempted++
			if !ph.samples[i].ok {
				res.Failed++
			}
		}
	}

	// Everything timed comes from the saturate phase, per one-second window,
	// brought to the reference machine speed of its window: successful
	// exchanges per second, the servers' CPU per exchange, and each kind's
	// median latency. The raw figures over the whole phase stand beside them
	// as "pooled". The paced phase is reported as measured, without bounds.
	counts := perWindowCounts(satRes.samples, int(saturate/time.Second))
	cpuPerOp := satProcs.cpuPerOp(counts)
	speed := satProcs.machineSpeed(counts, wl.genUs)
	var okTotal float64
	for _, c := range counts {
		okTotal += c
	}
	if len(cpuPerOp) != len(counts) || len(speed) != len(counts) || okTotal == 0 {
		return nil, fmt.Errorf("bench: no CPU samples for %s (is /proc readable?)", wl.name)
	}
	opsAtRef, cpuAtRef := make([]float64, len(counts)), make([]float64, len(counts))
	for i := range counts {
		opsAtRef[i], cpuAtRef[i] = counts[i]/speed[i], cpuPerOp[i]*speed[i]
	}
	res.Metrics["ops_per_s"] = estimateOf(opsAtRef, okTotal/saturate.Seconds(), int(okTotal))
	pooledCPU := float64(satProcs.ticks[len(satProcs.ticks)-1]-satProcs.ticks[0]) * float64(clockTick/time.Microsecond) / okTotal
	res.Metrics["cpu_us_per_op"] = estimateOf(cpuAtRef, pooledCPU, int(okTotal))
	res.Speed = estimateOf(speed, median(speed), len(speed))
	// The restarts are CPU work too (ten-run medians of the raw figure moved
	// by up to 25 % with the host, of this one by up to 7 % on the workloads
	// with real state to load), but nothing measures the machine while they
	// run: the run's median speed, seen seconds later, stands in.
	setup := estimateOf(res.SetupRuns, median(res.SetupRuns), len(res.SetupRuns))
	setup.Value *= res.Speed.Value
	res.Metrics["setup_s"] = setup
	for k := opKind(0); k < numKinds; k++ {
		sat := latencyEstimate(satRes.samples, k, 0.50, speed)
		res.Metrics[k.String()+"_p50_ms"] = sat
		p50 := latencyEstimate(pacedRes.samples, k, 0.50, nil)
		p99 := latencyEstimate(pacedRes.samples, k, 0.99, nil)
		res.Kinds[k.String()] = kindStat{
			PacedN: p50.Samples, PacedP50: p50.Pooled, PacedP99: p99.Pooled,
			SaturateN: sat.Samples, SaturateP50: sat.Pooled,
		}
	}
	res.Gen.LateFrac, res.Gen.LateP99Ms = lateness(pacedRes.samples)

	// Memory: the servers' resident set at every window boundary of the paced
	// phase, that is, after a number of exchanges at a rate that neither
	// depends on how fast the machine is (the warm-up is paced too): the
	// resident set grows with the work done. The high-water mark of the whole
	// run is kept beside it.
	var rssMB []float64
	for _, b := range pacedProcs.rss {
		rssMB = append(rssMB, float64(b)/(1<<20))
	}
	var peak int64
	for _, p := range d.procs {
		_, hwm, err := p.rss()
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", p.name, err)
		}
		peak += hwm
	}
	res.Metrics["rss_mb"] = estimateOf(rssMB, float64(peak)/(1<<20), len(d.procs))

	res.Failures = append(res.Failures, d.verify(res)...)
	if err := d.stop(); err != nil {
		res.Failures = append(res.Failures, err.Error())
	}
	if wl.topo == topoSpill {
		// The state must survive one more restart whole.
		if _, err := d.start(); err != nil {
			res.Failures = append(res.Failures, err.Error())
		} else {
			var hz origin.HealthzResponse
			if err := getJSON(d.front, origin.HealthzPathV1, &hz); err != nil || hz.Users != wl.users || hz.Status != "ok" {
				res.Failures = append(res.Failures, fmt.Sprintf("after the final restart: users %d status %q err %v, want %d ok", hz.Users, hz.Status, err, wl.users))
			}
			if err := d.stop(); err != nil {
				res.Failures = append(res.Failures, err.Error())
			}
		}
	}
	res.WallS = time.Since(began).Seconds()
	return res, nil
}

// prepareUsers posts one healthy report per user, in batches, and requires
// every one to be processed.
func prepareUsers(w *world, addr string) error {
	g := &opGen{w: w, host: addr}
	c := &conn{addr: addr}
	defer c.close()
	var lt loadTimes
	var body, req []byte
	r := newRNG(uint64(w.seed), streamPrepare)
	for lo := 0; lo < len(w.userIDs); lo += prepareBatch {
		hi := min(lo+prepareBatch, len(w.userIDs))
		body = body[:0]
		for u := lo; u < hi; u++ {
			p := w.pages[r.intn(len(w.pages))]
			drawLoad(&lt, p, r, -1, stHealthy)
			body = appendReportJSON(body, w.userIDs[u], p, &lt, baseStampMs-1)
			body = append(body, '\n')
		}
		req = g.appendRequest(req[:0], "POST", origin.ReportPathV1, "", origin.BatchContentType, body)
		resp, err := c.do(req)
		if err != nil {
			return fmt.Errorf("bench: prepare: %w", err)
		}
		if resp.status != 200 || !strings.Contains(string(resp.body), fmt.Sprintf(`"processed": %d`, hi-lo)) {
			return fmt.Errorf("bench: prepare: status %d: %.120s", resp.status, resp.body)
		}
	}
	return nil
}

// lateness summarises how far behind its schedule the generator sent.
func lateness(samples []sample) (frac, p99ms float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	var late int
	ms := make([]float64, len(samples))
	for i := range samples {
		ms[i] = float64(samples[i].late) / float64(time.Millisecond)
		if samples[i].late > lateAfter {
			late++
		}
	}
	sort.Float64s(ms)
	return float64(late) / float64(len(samples)), quantile(ms, 0.99)
}

// verify scrapes every server after the run and returns what is wrong.
func (d *deployment) verify(res *runResult) []string {
	var bad []string
	st := &res.Servers
	var ingestN, rewriteN uint64
	var ingestSum, rewriteSum float64
	for i, addr := range d.backends {
		var m origin.MetricsResponse
		if err := getJSON(addr, origin.MetricsPathV1, &m); err != nil {
			bad = append(bad, fmt.Sprintf("oakd-%d metrics: %v", i, err))
			continue
		}
		c := m.Counters
		st.ReportsHandled += c.ReportsHandled
		st.RuleActivations += c.RuleActivations
		st.PagesModified += c.PagesModified
		st.CacheHits += m.RewriteCacheHits
		st.CacheMisses += m.RewriteCacheMisses
		st.CacheBytes += m.RewriteCacheBytes
		ingestN += m.Ingest.Count
		ingestSum += m.Ingest.MeanMs * float64(m.Ingest.Count)
		rewriteN += m.Rewrite.Count
		rewriteSum += m.Rewrite.MeanMs * float64(m.Rewrite.Count)
		if m.Spill != nil {
			st.Rehydrations += m.Spill.Rehydrations
			st.ProfileSpills += m.Spill.Spills
			st.Compactions += m.Spill.SegmentCompactions
			st.SpillBytes += m.Spill.SpillBytes
			st.ProfilesResident += m.Spill.ProfilesResident
		}
		for name, v := range map[string]uint64{
			"ReportsShed": c.ReportsShed, "RewritePanics": c.RewritePanics, "BreakerTrips": c.BreakerTrips,
			"ActivationsBlocked": c.ActivationsBlocked, "SpillErrors": c.SpillErrors, "pages_degraded": m.PagesDegraded,
		} {
			if v != 0 {
				bad = append(bad, fmt.Sprintf("oakd-%d %s = %d, want 0", i, name, v))
			}
		}
		var hz origin.HealthzResponse
		if err := getJSON(addr, origin.HealthzPathV1, &hz); err != nil {
			bad = append(bad, fmt.Sprintf("oakd-%d healthz: %v", i, err))
			continue
		}
		if hz.Status != "ok" {
			bad = append(bad, fmt.Sprintf("oakd-%d healthz status %q", i, hz.Status))
		}
		st.Users += hz.Users
	}
	if ingestN > 0 {
		st.IngestMeanUs = ingestSum / float64(ingestN) * 1000
	}
	if rewriteN > 0 {
		st.RewriteMeanUs = rewriteSum / float64(rewriteN) * 1000
	}
	if int64(st.ReportsHandled) != st.ReportsAcked {
		bad = append(bad, fmt.Sprintf("servers handled %d reports, generator saw %d acknowledged", st.ReportsHandled, st.ReportsAcked))
	}
	if st.Users != d.wl.users {
		bad = append(bad, fmt.Sprintf("servers hold %d users, want %d", st.Users, d.wl.users))
	}
	if d.wl.topo == topoGateway {
		var gm gateway.ClusterMetricsResponse
		if err := getJSON(d.front, origin.MetricsPathV1, &gm); err != nil {
			bad = append(bad, fmt.Sprintf("oakgw metrics: %v", err))
		} else {
			st.ForwardedReports, st.ForwardedPages, st.Failovers = gm.Gateway.ForwardedReports, gm.Gateway.ForwardedPages, gm.Gateway.Failovers
			if st.Failovers != 0 {
				bad = append(bad, fmt.Sprintf("oakgw failovers = %d, want 0", st.Failovers))
			}
		}
		var ch gateway.ClusterHealthResponse
		if err := getJSON(d.front, origin.HealthzPathV1, &ch); err != nil || ch.Status != "ok" {
			bad = append(bad, fmt.Sprintf("oakgw healthz: status %q err %v", ch.Status, err))
		}
	}
	return bad
}

// procSampler reads the servers' CPU time and resident memory, and the
// generator's own CPU time, at every window boundary of the phase that
// starts when it is created.
type procSampler struct {
	done  chan struct{}
	ticks []int64 // servers' summed user+system clock ticks at each boundary
	rss   []int64 // servers' summed resident bytes at each boundary
	genUs []int64 // this process's user+system time (µs) at each boundary
}

func newProcSampler(procs []*proc, windows int) *procSampler {
	s := &procSampler{done: make(chan struct{})}
	start := time.Now()
	read := func() {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
			s.genUs = append(s.genUs, (ru.Utime.Nano()+ru.Stime.Nano())/1e3)
		}
		var ticks, rss int64
		for _, p := range procs {
			if t, err := p.cpuTicks(); err == nil {
				ticks += t
			}
			if now, _, err := p.rss(); err == nil {
				rss += now
			}
		}
		s.ticks, s.rss = append(s.ticks, ticks), append(s.rss, rss)
	}
	read()
	go func() {
		defer close(s.done)
		for k := 1; k <= windows; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * time.Second)))
			read()
		}
	}()
	return s
}

// wait blocks until the last boundary has been read.
func (s *procSampler) wait() { <-s.done }

// machineSpeed is, for each window, how fast the machine executed code
// compared with the reference: refGenUs, the CPU time the generator needs
// per exchange of this workload on the calibration box at a quiet time,
// over the CPU time it needed per exchange in that window. A CPU-second is
// not a fixed amount of work on a shared virtual machine (the same exchange
// cost the servers 78 to 166 µs of CPU within one hour, following the host),
// but the generator does the same work per exchange whatever the servers
// are, on the same CPUs at the same moment, so the two move together: over
// ten runs the servers' CPU per exchange spread by 17 to 27 % of its median
// and its ratio to the generator's by 2 to 7 %.
func (s *procSampler) machineSpeed(counts []float64, refGenUs float64) []float64 {
	var speed []float64
	for i := 0; i+1 < len(s.genUs) && i < len(counts); i++ {
		v := 1.0
		if us := s.genUs[i+1] - s.genUs[i]; us > 0 && counts[i] > 0 {
			v = refGenUs / (float64(us) / counts[i])
		}
		speed = append(speed, v)
	}
	return speed
}

// cpuPerOp is the servers' CPU time per successful exchange (µs) in each
// window.
func (s *procSampler) cpuPerOp(counts []float64) []float64 {
	var out []float64
	for i := 0; i+1 < len(s.ticks) && i < len(counts); i++ {
		out = append(out, float64(s.ticks[i+1]-s.ticks[i])*float64(clockTick/time.Microsecond)/max(counts[i], 1))
	}
	return out
}

// loadAvg1 is the machine's one-minute load average, or 0 if unreadable.
func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}
