package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// environment is what a result set records about where it was measured.
type environment struct {
	Commit          string `json:"commit"`
	GoVersion       string `json:"go_version"`
	NumCPU          int    `json:"nproc"`
	GenGOMAXPROCS   int    `json:"gomaxprocs_generator"`
	ServerGOMAXPROC string `json:"gomaxprocs_servers"`
	CPUModel        string `json:"cpu_model"`
	Kernel          string `json:"kernel"`
	Network         string `json:"network"`
	Connections     int    `json:"connections"`
	When            string `json:"when"`
}

func captureEnvironment(repo string) environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GenGOMAXPROCS: runtime.GOMAXPROCS(0), ServerGOMAXPROC: "inherited: " + envOr("GOMAXPROCS", fmt.Sprintf("unset (%d)", runtime.NumCPU())),
		Network:     "127.0.0.1 loopback, not a link: no wire latency, no bandwidth limit",
		Connections: connections(), When: time.Now().UTC().Format(time.RFC3339),
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = repo
	if out, err := cmd.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					env.CPUModel = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(data))
	}
	return env
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// resultSet is one full pass over every workload, end to end and traced.
type resultSet struct {
	Env        environment             `json:"environment"`
	Seed       int64                   `json:"seed"`
	Seconds    int                     `json:"seconds"`
	PacedRates map[string]int          `json:"paced_rates_per_s"`
	Runs       map[string]*runResult   `json:"runs"`
	Layers     map[string]*layerResult `json:"layers"`
	WallS      float64                 `json:"wall_s"`
}

// runSets runs n full sets back to back, writing each to bench/out/.
func runSets(h *harness, seed int64, seconds, n int, layersOnly bool) int {
	code := 0
	for k := 1; k <= n; k++ {
		began := time.Now()
		set := &resultSet{
			Env: captureEnvironment(h.repo), Seed: seed, Seconds: seconds,
			PacedRates: map[string]int{}, Runs: map[string]*runResult{}, Layers: map[string]*layerResult{},
		}
		for i := range workloads {
			wl := &workloads[i]
			set.PacedRates[wl.name] = wl.rate
			if !layersOnly {
				res, err := runWorkload(h, wl, seed, seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 1
				}
				printRun(os.Stdout, res)
				set.Runs[wl.name] = res
				if len(res.Failures) > 0 || res.Failed > 0 {
					code = 1
				}
			}
			lr, err := runLayers(h, wl, seed, seconds)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			printLayers(os.Stdout, lr)
			set.Layers[wl.name] = lr
			if len(lr.Failures) > 0 || lr.Failed > 0 {
				code = 1
			}
		}
		set.WallS = time.Since(began).Seconds()
		path := filepath.Join(h.repo, "bench", "out", fmt.Sprintf("set-%s-%d.json", time.Now().UTC().Format("20060102T150405"), k))
		data, err := json.MarshalIndent(set, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: write result set:", err)
			return 1
		}
		fmt.Printf("\nset %d of %d: %.0f s wall, written to %s\n", k, n, set.WallS, path)
	}
	return code
}

// printRun prints one end-to-end run, every metric by name with its unit.
func printRun(out io.Writer, r *runResult) {
	w := bufio.NewWriter(out)
	defer w.Flush()
	fmt.Fprintf(w, "\n== %s  seed %d  %d s measured (%.0f s wall)  loopback, %d connections, paced %d/s, loadavg %.2f\n",
		r.Workload, r.Seed, r.Seconds, r.WallS, r.Conns, r.Rate, r.LoadAvg1)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\twindows\twindow IQR/median\tpooled\tsamples")
	for _, m := range endToEnd {
		e := r.Metrics[m.name]
		fmt.Fprintf(tw, "%s\t%.4f\t%s\t%d\t%.3f\t%.4f\t%d\n", m.name, e.Value, m.unit, e.Windows, e.WindowIQR, e.Pooled, e.Samples)
	}
	_ = tw.Flush()
	tw = tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "kind\tpaced n\tpaced p50 ms\tpaced p99 ms\tsaturate n\tsaturate p50 ms")
	for k := opKind(0); k < numKinds; k++ {
		s := r.Kinds[k.String()]
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%d\t%.3f\n", k, s.PacedN, s.PacedP50, s.PacedP99, s.SaturateN, s.SaturateP50)
	}
	_ = tw.Flush()
	s := r.Servers
	fmt.Fprintf(w, "attempted %d  failed %d  failed_frac %.5f  gen.late_frac %.4f  gen.late_p99_ms %.3f  gen.verify_skipped %d\n",
		r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.Gen.LateFrac, r.Gen.LateP99Ms, r.Gen.VerifySkipped)
	fmt.Fprintf(w, "servers: reports handled %d (acked %d)  activations %d  pages modified %d  ingest mean %.1f us  rewrite mean %.1f us  cache hit/miss %d/%d\n",
		s.ReportsHandled, s.ReportsAcked, s.RuleActivations, s.PagesModified, s.IngestMeanUs, s.RewriteMeanUs, s.CacheHits, s.CacheMisses)
	if s.ProfileSpills+s.Rehydrations > 0 {
		fmt.Fprintf(w, "spill: resident %d  spills %d  rehydrations %d  compactions %d  segment bytes %d\n",
			s.ProfilesResident, s.ProfileSpills, s.Rehydrations, s.Compactions, s.SpillBytes)
	}
	if s.ForwardedReports+s.ForwardedPages > 0 {
		fmt.Fprintf(w, "gateway: forwarded reports %d pages %d failovers %d\n", s.ForwardedReports, s.ForwardedPages, s.Failovers)
	}
	fmt.Fprintf(w, "setup_s runs: %.4f  machine speed in the saturate phase %.3f of the reference (window IQR/median %.3f)\n", r.SetupRuns, r.Speed.Value, r.Speed.WindowIQR)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
}

// compareMain implements `bench compare A B`: each workload in its own row
// per metric, the ratio with its base, non-zero exit naming every
// metric@workload outside its bound (or with failures).
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare <setA.json> <setB.json>")
		return 2
	}
	var sets [2]resultSet
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &sets[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
			return 2
		}
	}
	bad := compareSets(os.Stdout, &sets[0], &sets[1])
	if len(bad) > 0 {
		fmt.Printf("\noutside its bound: %s\n", strings.Join(bad, ", "))
		return 1
	}
	fmt.Println("\nevery metric@workload is within its bound")
	return 0
}

// compareSets prints the comparison of b against base a and returns the
// metric@workload pairs that are outside their bounds.
func compareSets(out io.Writer, a, b *resultSet) []string {
	var bad []string
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "metric@workload\tA (base)\tB\tB/A\tbound\tverdict")
	names := make([]string, 0, len(a.Runs))
	for name := range a.Runs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, m := range endToEnd {
		for _, wl := range names {
			ra, rb := a.Runs[wl], b.Runs[wl]
			if rb == nil {
				bad = append(bad, "missing@"+wl)
				continue
			}
			va, vb := ra.Metrics[m.name].Value, rb.Metrics[m.name].Value
			ratio, verdict := 0.0, "ok"
			if va != 0 {
				ratio = vb / va
			}
			worse := ratio - 1
			if m.better == "higher" {
				worse = 1 - ratio
			}
			if va == 0 || worse > m.bound {
				verdict = "WORSE"
				bad = append(bad, m.name+"@"+wl)
			}
			fmt.Fprintf(tw, "%s@%s\t%.4f\t%.4f %s\t%.3f\t%.2f\t%s\n", m.name, wl, va, vb, m.unit, ratio, m.bound, verdict)
		}
	}
	_ = tw.Flush()
	// failed_frac has an absolute bound: one failure in a thousand.
	for _, wl := range names {
		if rb := b.Runs[wl]; rb != nil {
			ff := float64(rb.Failed) / float64(max(rb.Attempted, 1))
			fmt.Fprintf(out, "failed_frac@%s  %.5f (%d of %d)\n", wl, ff, rb.Failed, rb.Attempted)
			if ff > 0.001 || len(rb.Failures) > 0 {
				bad = append(bad, "failed_frac@"+wl)
			}
		}
	}
	return bad
}
