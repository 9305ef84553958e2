// Command oakreport analyses Oak performance reports offline: it reads one
// or more report JSON files (the bodies clients POST to /oak/v1/report),
// prints the per-server grouping the engine derives, and flags violators
// with the paper's MAD criterion — the same analysis the live server runs,
// available for debugging and auditing captured reports.
//
// Usage:
//
//	oakreport report1.json report2.json ...
//	oakreport -k 3 report.json        # stricter criterion
//	oakreport session.har             # browser-devtools HAR export
//	cat report.json | oakreport -     # read from stdin
//
// With -metrics it instead inspects a live server: it fetches the oakd
// observability endpoints and pretty-prints the counters and ingest/rewrite
// latency histograms:
//
//	oakreport -metrics http://localhost:8080
//
// With -guard it prints the server's circuit-breaker guard state: per-provider
// breaker states, quarantined providers and rules, and canary outcomes:
//
//	oakreport -guard http://localhost:8080
//
// With -population it prints the server's population-detection state:
// currently flagged (degraded) providers, per-provider trailing-baseline
// quantiles, the heavy-hitter provider ranking, and synthesis counters.
// The server must run with population detection enabled (oakd
// -synth-window > 0):
//
//	oakreport -population http://localhost:8080
//
// With -memory it prints the server's profile-residency state: how many
// profiles are resident versus spilled to disk segments, the resident and
// on-disk footprints against their caps, rehydration latency, and whether
// the spill tier has degraded to memory-only mode. The server must run with
// a residency cap (oakd -profile-cache/-profile-cache-bytes + -spill-dir):
//
//	oakreport -memory http://localhost:8080
//
// With -cluster it points at an oakgw gateway instead of a single node and
// renders the aggregated fleet view: per-backend state-machine positions,
// range ownership, snapshot freshness, fleet-wide user/report totals, the
// open-breaker and degraded-provider unions, and the gateway's own
// forwarding/failover/broadcast counters:
//
//	oakreport -cluster http://localhost:8090
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"oak/internal/core"
	"oak/internal/gateway"
	"oak/internal/origin"
	"oak/internal/report"
	"oak/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "oakreport:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("oakreport", flag.ContinueOnError)
	k := fs.Float64("k", 2, "MAD multiplier for the violator criterion")
	har := fs.Bool("har", false, "treat inputs as HAR files (implied by a .har extension)")
	metricsURL := fs.String("metrics", "", "base URL of a live Oak server; fetch and pretty-print its /oak/v1/metrics instead of analysing files")
	guardURL := fs.String("guard", "", "base URL of a live Oak server; print its circuit-breaker guard state (breakers, quarantines, canaries)")
	popURL := fs.String("population", "", "base URL of a live Oak server; print its population-detection state (degraded providers, baselines, synthesis counters)")
	memURL := fs.String("memory", "", "base URL of a live Oak server; print its profile-residency state (resident/spilled profiles, segment footprint, rehydration latency)")
	clusterURL := fs.String("cluster", "", "base URL of an oakgw gateway; print the aggregated fleet health and metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *metricsURL != "" {
		return liveMetrics(out, *metricsURL)
	}
	if *guardURL != "" {
		return liveGuard(out, *guardURL)
	}
	if *popURL != "" {
		return livePopulation(out, *popURL)
	}
	if *memURL != "" {
		return liveMemory(out, *memURL)
	}
	if *clusterURL != "" {
		return liveCluster(out, *clusterURL)
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("no report files given (use - for stdin)")
	}
	for _, f := range files {
		data, err := readInput(f)
		if err != nil {
			return err
		}
		var rep *report.Report
		if *har || strings.HasSuffix(f, ".har") {
			rep, err = report.FromHAR(data, "har-session")
		} else {
			rep, err = report.Decode(data)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		if err := rep.Validate(); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		if err := analyse(out, f, rep, *k); err != nil {
			return err
		}
	}
	return nil
}

// liveMetrics fetches a running server's observability endpoints and
// renders them for a terminal.
func liveMetrics(out io.Writer, base string) error {
	base = strings.TrimSuffix(base, "/")
	client := &http.Client{Timeout: 10 * time.Second}

	var health origin.HealthzResponse
	if err := fetchJSON(client, base+origin.HealthzPathV1, &health); err != nil {
		return err
	}
	var m origin.MetricsResponse
	if err := fetchJSON(client, base+origin.MetricsPathV1, &m); err != nil {
		return err
	}

	fmt.Fprintf(out, "== %s ==\n", base)
	fmt.Fprintf(out, "status %s, up %s, %d rules, %d users\n\n",
		health.Status, (time.Duration(health.UptimeSeconds * float64(time.Second))).Round(time.Second),
		health.Rules, health.Users)

	c := m.Counters
	fmt.Fprintf(out, "counters\n")
	for _, row := range []struct {
		name string
		v    uint64
	}{
		{"reports handled", c.ReportsHandled},
		{"entries processed", c.EntriesProcessed},
		{"violations detected", c.ViolationsDetected},
		{"rule activations", c.RuleActivations},
		{"rule deactivations", c.RuleDeactivations},
		{"rule expirations", c.RuleExpirations},
		{"pages modified", c.PagesModified},
		{"pages untouched", c.PagesUntouched},
	} {
		fmt.Fprintf(out, "  %-22s %d\n", row.name, row.v)
	}

	fmt.Fprintf(out, "\nlatency                  count      p50ms      p90ms      p99ms      maxms\n")
	printSummary := func(name string, count uint64, p50, p90, p99, max float64) {
		fmt.Fprintf(out, "  %-20s %7d %10.3f %10.3f %10.3f %10.3f\n", name, count, p50, p90, p99, max)
	}
	printSummary("report ingest", m.Ingest.Count, m.Ingest.P50Ms, m.Ingest.P90Ms, m.Ingest.P99Ms, m.Ingest.MaxMs)
	printSummary("page rewrite", m.Rewrite.Count, m.Rewrite.P50Ms, m.Rewrite.P90Ms, m.Rewrite.P99Ms, m.Rewrite.MaxMs)
	return nil
}

// liveGuard fetches a running server's /oak/v1/metrics and renders the guard
// (circuit-breaker) section for a terminal.
func liveGuard(out io.Writer, base string) error {
	base = strings.TrimSuffix(base, "/")
	client := &http.Client{Timeout: 10 * time.Second}

	var m origin.MetricsResponse
	if err := fetchJSON(client, base+origin.MetricsPathV1, &m); err != nil {
		return err
	}

	fmt.Fprintf(out, "== %s guard ==\n", base)
	if m.Guard == nil {
		fmt.Fprintln(out, "guard disabled (server running without a circuit breaker; start oakd with -guard-trip-threshold > 0)")
		return nil
	}
	g := m.Guard

	if len(g.Breakers) == 0 {
		fmt.Fprintln(out, "breakers: none tracked (every provider healthy)")
	} else {
		fmt.Fprintf(out, "%-28s %-10s %6s %6s %9s %6s %10s\n",
			"provider", "state", "bad", "good", "canaries", "trips", "open(ms)")
		for _, b := range g.Breakers {
			openFor := "-"
			if b.OpenForMs > 0 {
				openFor = fmt.Sprintf("%.0f", b.OpenForMs)
			}
			fmt.Fprintf(out, "%-28s %-10s %6d %6d %9d %6d %10s\n",
				b.Provider, b.State, b.ConsecutiveBad, b.HalfOpenGood,
				b.CanariesUsed, b.Trips, openFor)
		}
	}

	if len(g.Quarantines) > 0 {
		fmt.Fprintf(out, "quarantined providers: %s\n", strings.Join(g.Quarantines, ", "))
	} else {
		fmt.Fprintln(out, "quarantined providers: none")
	}
	if len(g.QuarantinedRules) > 0 {
		fmt.Fprintf(out, "quarantined rules:     %s\n", strings.Join(g.QuarantinedRules, ", "))
	} else {
		fmt.Fprintln(out, "quarantined rules:     none")
	}

	c := m.Counters
	fmt.Fprintf(out, "\ncounters\n")
	for _, row := range []struct {
		name string
		v    uint64
	}{
		{"canary activations", g.CanaryActivations},
		{"rewrite panics", g.RewritePanics},
		{"breaker trips", c.BreakerTrips},
		{"breaker closes", c.BreakerCloses},
		{"activations blocked", c.ActivationsBlocked},
		{"rolled back (counted at report)", c.BulkDeactivations},
		{"rule quarantines", c.RuleQuarantines},
	} {
		fmt.Fprintf(out, "  %-22s %d\n", row.name, row.v)
	}
	return nil
}

// livePopulation fetches a running server's /oak/v1/population and renders
// the population-detection state for a terminal.
func livePopulation(out io.Writer, base string) error {
	base = strings.TrimSuffix(base, "/")
	client := &http.Client{Timeout: 10 * time.Second}

	var ps core.PopulationStatus
	resp, err := client.Get(base + origin.PopulationPathV1)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		fmt.Fprintln(out, "population detection disabled (start oakd with -synth-window > 0)")
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", base+origin.PopulationPathV1, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ps); err != nil {
		return fmt.Errorf("GET %s: decode: %w", base+origin.PopulationPathV1, err)
	}

	fmt.Fprintf(out, "== %s population ==\n", base)
	if len(ps.Degraded) == 0 {
		fmt.Fprintln(out, "degraded providers: none")
	} else {
		fmt.Fprintf(out, "%-28s %-8s %8s %12s %12s %s\n",
			"degraded provider", "manual", "ratio", "baseline(ms)", "window(ms)", "since")
		for _, d := range ps.Degraded {
			manual := "-"
			if d.Manual {
				manual = "manual"
			}
			fmt.Fprintf(out, "%-28s %-8s %8.2f %12.1f %12.1f %s\n",
				d.Provider, manual, d.Ratio, d.BaselineMs, d.WindowMs,
				d.Since.Format(time.RFC3339))
		}
	}

	if len(ps.Providers) > 0 {
		fmt.Fprintf(out, "\n%-28s %8s %10s %10s %10s\n",
			"provider baseline", "samples", "p50ms", "p75ms", "p99ms")
		for _, p := range ps.Providers {
			flag := ""
			if p.Degraded {
				flag = "  DEGRADED"
			}
			fmt.Fprintf(out, "%-28s %8d %10.1f %10.1f %10.1f%s\n",
				p.Provider, p.Samples, p.P50Ms, p.P75Ms, p.P99Ms, flag)
		}
	}

	if len(ps.TopProviders) > 0 {
		fmt.Fprintf(out, "\ntop providers by report appearances\n")
		for _, h := range ps.TopProviders {
			fmt.Fprintf(out, "  %-28s %d (±%d)\n", h.Item, h.Count, h.Error)
		}
	}

	fmt.Fprintf(out, "\ncounters\n")
	for _, row := range []struct {
		name string
		v    uint64
	}{
		{"population trips", ps.PopulationTrips},
		{"population recoveries", ps.PopulationRecoveries},
		{"synthesized activations", ps.SynthesizedActivations},
		{"synthesis blocked", ps.SynthesisBlocked},
		{"samples dropped", ps.SamplesDropped},
	} {
		fmt.Fprintf(out, "  %-24s %d\n", row.name, row.v)
	}
	fmt.Fprintf(out, "tracked providers: %d, sketch memory: %s\n",
		ps.TrackedProviders, byteSize(int64(ps.SketchMemoryBytes)))
	return nil
}

// liveMemory fetches a running server's /oak/v1/metrics and renders the
// profile-residency (spill tier) section for a terminal.
func liveMemory(out io.Writer, base string) error {
	base = strings.TrimSuffix(base, "/")
	client := &http.Client{Timeout: 10 * time.Second}

	var m origin.MetricsResponse
	if err := fetchJSON(client, base+origin.MetricsPathV1, &m); err != nil {
		return err
	}

	fmt.Fprintf(out, "== %s memory ==\n", base)
	if m.Spill == nil {
		fmt.Fprintln(out, "spill tier disabled (start oakd with -profile-cache or -profile-cache-bytes, plus -spill-dir)")
		return nil
	}
	sp := m.Spill

	mode := "ok"
	if sp.MemoryOnly {
		mode = "MEMORY-ONLY (spill I/O failed; resident memory no longer bounded)"
	}
	fmt.Fprintf(out, "mode: %s\n", mode)

	caps := "none"
	switch {
	case sp.MaxProfiles > 0 && sp.MaxBytes > 0:
		caps = fmt.Sprintf("%d profiles, %s", sp.MaxProfiles, byteSize(sp.MaxBytes))
	case sp.MaxProfiles > 0:
		caps = fmt.Sprintf("%d profiles", sp.MaxProfiles)
	case sp.MaxBytes > 0:
		caps = byteSize(sp.MaxBytes)
	}
	fmt.Fprintf(out, "resident cap (per engine): %s\n", caps)
	fmt.Fprintf(out, "profiles: %d resident (%s est. heap), %d spilled (%s in %d segments)\n",
		sp.ProfilesResident, byteSize(sp.ResidentBytes),
		sp.ProfilesSpilled, byteSize(sp.SpillBytes), sp.Segments)
	if len(sp.QuarantinedSegments) > 0 {
		fmt.Fprintf(out, "quarantined segments: %s\n", strings.Join(sp.QuarantinedSegments, ", "))
	}

	fmt.Fprintf(out, "\ncounters\n")
	for _, row := range []struct {
		name string
		v    uint64
	}{
		{"profile spills", sp.Spills},
		{"rehydrations", sp.Rehydrations},
		{"record views", sp.RecordViews},
		{"segment compactions", sp.SegmentCompactions},
		{"spill errors", sp.SpillErrors},
	} {
		fmt.Fprintf(out, "  %-22s %d\n", row.name, row.v)
	}

	r := sp.Rehydrate
	fmt.Fprintf(out, "\nrehydration latency      count      p50ms      p90ms      p99ms      maxms\n")
	fmt.Fprintf(out, "  %-20s %7d %10.3f %10.3f %10.3f %10.3f\n", "spill read", r.Count, r.P50Ms, r.P90Ms, r.P99Ms, r.MaxMs)
	return nil
}

// liveCluster fetches an oakgw gateway's detailed fleet view and counters
// and renders them for a terminal.
func liveCluster(out io.Writer, base string) error {
	base = strings.TrimSuffix(base, "/")
	client := &http.Client{Timeout: 10 * time.Second}

	var ch gateway.ClusterHealthResponse
	if err := fetchJSON(client, base+gateway.ClusterPathV1, &ch); err != nil {
		return err
	}
	var cm gateway.ClusterMetricsResponse
	if err := fetchJSON(client, base+origin.MetricsPathV1, &cm); err != nil {
		return err
	}

	fmt.Fprintf(out, "== %s cluster ==\n", base)
	fmt.Fprintf(out, "status %s, up %s, %d users, %d reports across the fleet\n\n",
		ch.Status, (time.Duration(ch.UptimeSeconds * float64(time.Second))).Round(time.Second),
		ch.Users, ch.Reports)

	fmt.Fprintf(out, "%-4s %-26s %-10s %-22s %6s %8s %10s\n",
		"idx", "backend", "state", "range", "fails", "users", "snapshot")
	row := func(idx string, bh gateway.BackendHealth) {
		rng := "-"
		if bh.Range != nil {
			rng = bh.Range.String()
		}
		users := "-"
		if bh.Healthz != nil {
			users = fmt.Sprintf("%d", bh.Healthz.Users)
		}
		snap := "none"
		if bh.SnapshotBytes > 0 {
			snap = fmt.Sprintf("%s/%.0fs", byteSize(int64(bh.SnapshotBytes)), bh.SnapshotAgeSeconds)
		}
		fmt.Fprintf(out, "%-4s %-26s %-10s %-22s %6d %8s %10s\n",
			idx, bh.Addr, bh.State, rng, bh.ConsecutiveFails, users, snap)
		if bh.LastError != "" {
			fmt.Fprintf(out, "     last error: %s\n", bh.LastError)
		}
	}
	for i, bh := range ch.Backends {
		row(fmt.Sprintf("%d", i), bh)
	}
	if ch.Standby != nil {
		row("sby", *ch.Standby)
	}

	if len(ch.OpenBreakers) > 0 {
		fmt.Fprintf(out, "\nopen breakers (fleet union):     %s\n", strings.Join(ch.OpenBreakers, ", "))
	} else {
		fmt.Fprintln(out, "\nopen breakers (fleet union):     none")
	}
	if len(ch.DegradedProviders) > 0 {
		fmt.Fprintf(out, "degraded providers (fleet union): %s\n", strings.Join(ch.DegradedProviders, ", "))
	} else {
		fmt.Fprintln(out, "degraded providers (fleet union): none")
	}

	g := cm.Gateway
	fmt.Fprintf(out, "\ngateway counters\n")
	for _, r := range []struct {
		name string
		v    uint64
	}{
		{"forwarded reports", g.ForwardedReports},
		{"forwarded pages", g.ForwardedPages},
		{"failovers", g.Failovers},
		{"probe cycles", g.ProbeCycles},
		{"breaker broadcasts", g.BreakerBroadcasts},
		{"degrade broadcasts", g.DegradeBroadcasts},
		{"replacements", g.Replacements},
	} {
		fmt.Fprintf(out, "  %-22s %d\n", r.name, r.v)
	}
	return nil
}

// fetchJSON GETs url and decodes the JSON body.
func fetchJSON(client *http.Client, url string, into any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return fmt.Errorf("GET %s: decode: %w", url, err)
	}
	return nil
}

func readInput(name string) ([]byte, error) {
	if name == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(name)
}

// analyse prints one report's per-server view and violator flags.
func analyse(out io.Writer, name string, rep *report.Report, k float64) error {
	fmt.Fprintf(out, "== %s: user %s page %s (%d objects, %s) ==\n",
		name, rep.UserID, rep.Page, len(rep.Entries), byteSize(rep.TotalBytes()))

	servers := report.GroupByServer(rep)
	violations := core.DetectViolators(servers, k)
	violating := make(map[string]core.Violation, len(violations))
	for _, v := range violations {
		violating[v.Server.Addr] = v
	}

	sort.Slice(servers, func(i, j int) bool {
		return serverBadness(servers[i]) > serverBadness(servers[j])
	})
	fmt.Fprintf(out, "%-24s %-30s %10s %12s %s\n",
		"server", "hosts", "small(ms)", "large(KB/s)", "verdict")
	for _, s := range servers {
		verdict := "ok"
		if v, bad := violating[s.Addr]; bad {
			verdict = fmt.Sprintf("VIOLATOR (%s, %.0f beyond median)", v.Metric, v.Distance)
		}
		small, large := "-", "-"
		if s.SmallCount > 0 {
			small = fmt.Sprintf("%.1f", s.SmallMeanTimeMs)
		}
		if s.LargeCount > 0 {
			large = fmt.Sprintf("%.1f", s.LargeMeanTputBps/1024)
		}
		fmt.Fprintf(out, "%-24s %-30s %10s %12s %s\n",
			s.Addr, strings.Join(s.Hosts, ","), small, large, verdict)
	}
	durations := make([]float64, 0, len(rep.Entries))
	for _, e := range rep.Entries {
		durations = append(durations, e.DurationMillis)
	}
	if summary, err := stats.Summarize(durations); err == nil {
		fmt.Fprintf(out, "object download times (ms): %s\n", summary)
	}
	fmt.Fprintf(out, "violators: %d of %d servers\n\n", len(violations), len(servers))
	return nil
}

// serverBadness orders servers worst-first for display.
func serverBadness(s *report.ServerPerf) float64 {
	return s.SmallMeanTimeMs
}

// byteSize renders a byte count human-readably.
func byteSize(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
