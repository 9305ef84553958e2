// Command bench is the Oak serving benchmark: four fixed workloads driven
// over 127.0.0.1 loopback against real oakd / oakgw processes built from
// the working tree, reporting named end-to-end metrics, plus a traced
// in-process run that attributes time to each layer. See README.md.
//
// Usage (from the repository root):
//
//	bash bench/run.sh                          one full set: every workload, end to end and traced
//	bash bench/run.sh -sets 2                  two sets back to back (repeatability check)
//	bash bench/run.sh layers                   the traced runs only
//	bash bench/run.sh compare A.json B.json    compare two result sets against the bounds
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                           one run; the last line of output is its result as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// defaultSeconds is how long one run measures: BENCHMARK.json's
// run_seconds.
const defaultSeconds = 20

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:])
	}
	layersOnly := false
	if len(args) > 0 && args[0] == "layers" {
		layersOnly, args = true, args[1:]
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		wlName  = fs.String("workload", "", "run only this workload and print its result as one JSON line")
		seed    = fs.Int64("seed", 1, "seed of the world and the operation streams")
		seconds = fs.Int("seconds", defaultSeconds, "how long one run measures")
		trace   = fs.Int("trace", 0, "with -workload: 0 = end-to-end run, 1 = traced in-process run")
		quick   = fs.Bool("quick", false, "short runs (4 s), for trying the harness out")
		sets    = fs.Int("sets", 1, "full sets to run back to back")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *quick {
		*seconds = 4
	}
	if *seconds < 2 || *seconds > 60 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be between 2 and 60")
		return 2
	}
	repo, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	h, err := newHarness(repo)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// Servers die and the work directory goes on every exit path: normal
	// return, panic (the deferred call runs before the crash), and signals.
	defer h.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		h.cleanup()
		os.Exit(130)
	}()
	env := captureEnvironment(repo)
	fmt.Printf("oak serving benchmark: commit %s, %s, nproc %d, GOMAXPROCS %d (servers %s), %s, kernel %s; %s; %d connections\n",
		env.Commit, env.GoVersion, env.NumCPU, env.GenGOMAXPROCS, env.ServerGOMAXPROC, env.CPUModel, env.Kernel, env.Network, env.Connections)

	if *wlName != "" {
		wl := findWorkload(*wlName)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *wlName)
			return 2
		}
		return runOne(h, wl, *seed, *seconds, *trace == 1 || layersOnly)
	}
	return runSets(h, *seed, *seconds, *sets, layersOnly)
}

// repoRoot is the working directory, which must be the repository root:
// the servers are built from ./cmd and the results go to ./bench/out.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, f := range []string{"go.mod", filepath.Join("bench", "go.mod"), filepath.Join("cmd", "oakd", "main.go")} {
		if st, err := os.Stat(filepath.Join(dir, f)); err != nil || !st.Mode().IsRegular() {
			return "", fmt.Errorf("bench: run from the root of the oak repository (no %s here); bench/run.sh does", f)
		}
	}
	return dir, nil
}

// contractResult is the one-line result of a single run.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne performs one run of one workload and prints its result as the
// last line of standard output.
func runOne(h *harness, wl *workload, seed int64, seconds int, traced bool) int {
	out := contractResult{Metrics: map[string]contractMetric{}}
	var failures []string
	if traced {
		lr, err := runLayers(h, wl, seed, seconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		printLayers(os.Stdout, lr)
		out.Attempted, out.Failed, failures = lr.Attempted, lr.Failed, lr.Failures
		for _, lm := range layerMetrics {
			out.Metrics[lm.name] = contractMetric{Value: lr.Metrics[lm.name], Unit: lm.unit}
		}
	} else {
		res, err := runWorkload(h, wl, seed, seconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		printRun(os.Stdout, res)
		out.Attempted, out.Failed, failures = res.Attempted, res.Failed, res.Failures
		for _, m := range endToEnd {
			out.Metrics[m.name] = contractMetric{Value: res.Metrics[m.name].Value, Unit: m.unit}
		}
	}
	out.Correct = len(failures) == 0 && out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
