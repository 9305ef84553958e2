// Command oakd runs an Oak-fronted origin web server over a directory of
// HTML pages and an operator rule file.
//
// Usage:
//
//	oakd -root ./site -rules ./rules.oak [-addr :8080] [-v]
//	     [-state oak-state.json] [-save-interval 5m] [-pprof 127.0.0.1:6060]
//	     [-shards N] [-ingest-queue N]
//	     [-max-body-bytes 4194304]
//	     [-shed-wait 50ms] [-shed-retry-after 1s] [-rewrite-budget 500ms]
//	     [-profile-cache 100000] [-profile-cache-bytes 0] [-spill-dir ./spill]
//	     [-guard-trip-threshold 5] [-guard-halfopen-canaries 3]
//	     [-probe-interval 30s]
//	     [-synth-window 2m] [-synth-degrade-factor 1.5] [-synth-quantile 0.75]
//	     [-synth-min-samples 20] [-synth-min-baseline-samples 20]
//	     [-synth-max-providers 64]
//
// Every *.html file under -root is served at its relative path (index.html
// also at the directory path). Clients receive identifying cookies, pages
// are rewritten per user according to activated rules, and performance
// reports are accepted at POST /oak/v1/report, negotiated by Content-Type:
// one JSON report per request (application/json), an NDJSON batch
// (application/x-ndjson, one report per line), one compact OAKRPT1 binary
// report (application/x-oak-report), or a binary batch of length-prefixed
// frames (application/x-oak-report-batch). All four formats are always on —
// there is nothing to enable; clients opt in per request. -max-body-bytes
// bounds a single report body (batches may total 16× the bound); see
// docs/OPERATIONS.md, "Report wire formats". The rule file format is
// auto-detected: JSON (array or {"rules": [...]} document) or the
// DSL of internal/rules.ParseDSL (heredoc blocks; see the repository
// README).
//
// Scaling: per-user state is sharded across -shards lock stripes (0 = four
// per CPU) so reports for different users ingest in parallel, each on the
// goroutine of the request that carried it. -ingest-queue N bounds ingest to
// N reports in flight at once (0 = unbounded); a report that finds no room
// waits for one to finish. On the serve side each page is indexed once, on
// its first serve, and every rewrite is spliced from that index; nothing is
// cached per user. See docs/OPERATIONS.md for sizing guidance.
//
// Resilience: -shed-wait (with -ingest-queue) switches that wait to load
// shedding — a report that gets no room within the wait is refused with
// 503 + Retry-After (-shed-retry-after) instead of holding the connection.
// -rewrite-budget bounds how long page delivery waits for the per-user
// rewrite before serving the page unmodified. State saved via -state is
// written crash-safely (checksummed, fsync + atomic rename, with a rotating
// .bak); a corrupt or torn snapshot at boot falls back to the backup instead
// of aborting. See docs/OPERATIONS.md, "Failure modes and recovery".
//
// Memory: -profile-cache (profiles) and/or -profile-cache-bytes (estimated
// heap bytes) cap how much per-user state stays resident; profiles beyond
// the cap are spilled — coldest first, fsynced before eviction — to compact
// append-log segments under -spill-dir, rehydrated on the user's next report
// and read in place for their pages. Under a cap the segments are every
// profile's one durable home: with -state, each save appends the residents and
// writes the checkpoint — the log's index, the guard and the population — into
// -spill-dir, and the -state file is read only to migrate one written before.
// A spill-path disk fault degrades the engine to
// memory-only mode (still serving, healthz "degraded") instead of failing.
// Residency counters appear under "spill" in /oak/v1/metrics. See
// docs/OPERATIONS.md, "Memory & the spill tier".
//
// Guardrails: -guard-trip-threshold (0 disables) arms per-provider circuit
// breakers over the alternates the rules steer users to — a provider that
// keeps violating across the whole population is quarantined (new
// activations blocked, existing ones rolled back) until it proves
// itself through a bounded number of canary activations
// (-guard-halfopen-canaries). -probe-interval additionally probes each
// alternate actively so a dead provider is caught even between user
// reports. Breaker states appear under "guard" in /oak/v1/metrics and open
// breakers in /oak/v1/healthz. See docs/OPERATIONS.md, "Guardrails".
//
// Population detection: -synth-window (0 disables) turns on cross-user
// detection and rule synthesis — every report feeds per-provider download-
// time sketches, a provider whose window quantile degrades by
// -synth-degrade-factor against its own trailing baseline is flagged, and
// while it stays flagged the catalog's matching rules are activated for
// affected users on their next report, bypassing the per-user violation
// gate. Synthesized activations ride the same guard breakers as organic
// ones, so a bad synthetic rule self-rolls-back. Flagged providers appear
// at GET /oak/v1/population and under "population" in /oak/v1/metrics. See
// docs/OPERATIONS.md, "Population detection & rule synthesis".
//
// Observability: the server answers GET /oak/v1/metrics (counters + latency
// histograms), /oak/v1/healthz (liveness), /oak/v1/trace (recent engine
// decisions) and /oak/v1/audit (operator summary); -pprof additionally
// serves net/http/pprof on a separate admin listener. See
// docs/OPERATIONS.md.
//
// On SIGINT/SIGTERM oakd shuts the listener down gracefully and, with
// -state, persists engine state before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"oak"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "oakd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs2 := flag.NewFlagSet("oakd", flag.ContinueOnError)
	var (
		root      = fs2.String("root", ".", "directory of HTML pages to serve")
		ruleFile  = fs2.String("rules", "", "rule file (DSL, or JSON if *.json)")
		addr      = fs2.String("addr", ":8080", "listen address")
		verbose   = fs2.Bool("v", false, "log engine decisions")
		stateFile = fs2.String("state", "", "persist per-user state to this file (loaded at boot, saved periodically and on shutdown); with a profile cap the checkpoint lives in -spill-dir and this file is read only to migrate one written before")
		saveEvery = fs2.Duration("save-interval", 5*time.Minute, "how often to persist state (with -state)")
		pprofAddr = fs2.String("pprof", "", "serve net/http/pprof on this separate admin address (e.g. 127.0.0.1:6060); off when empty")
		shards    = fs2.Int("shards", 0, "lock-striped shards for per-user state (rounded up to a power of two; 0 = four per CPU)")
		queueLen  = fs2.Int("ingest-queue", 0, "at most this many reports in analysis at once; the rest wait (0 = unbounded)")
		maxBody   = fs2.Int64("max-body-bytes", 0, "single-report body bound in bytes, any wire format; batch bodies may total 16x this (0 = 4 MB default)")
		shedWait  = fs2.Duration("shed-wait", -1, "shed reports that get no room within this wait, 503 + Retry-After (needs -ingest-queue; negative = wait instead of shedding)")
		shedRetry = fs2.Duration("shed-retry-after", 0, "retry horizon advertised on shed responses (with -shed-wait; 0 = 1s default)")
		rewriteB  = fs2.Duration("rewrite-budget", 0, "serve the unmodified page if the per-user rewrite takes longer than this (0 = 500ms default, negative = unbounded)")
		profCache = fs2.Int("profile-cache", 0, "max resident user profiles; colder profiles spill to -spill-dir (0 = unbounded, no spill tier)")
		profBytes = fs2.Int64("profile-cache-bytes", 0, "max estimated resident profile bytes; colder profiles spill to -spill-dir (0 = unbounded)")
		spillDir  = fs2.String("spill-dir", "", "directory for spilled-profile segment files (required with -profile-cache or -profile-cache-bytes)")
		guardTrip = fs2.Int("guard-trip-threshold", 5, "consecutive bad population-level outcomes that trip an alternate provider's circuit breaker (0 disables the guard)")
		guardCan  = fs2.Int("guard-halfopen-canaries", 3, "canary activations a half-open breaker admits per recovery attempt (with -guard-trip-threshold)")
		probeIvl  = fs2.Duration("probe-interval", 0, "actively probe each alternate provider this often, feeding the breakers (0 disables; needs the guard enabled)")
		synthWin  = fs2.Duration("synth-window", 0, "population-detection aggregation window; enables cross-user detection and rule synthesis (0 disables)")
		synthDeg  = fs2.Float64("synth-degrade-factor", 0, "flag a provider when its window quantile exceeds this factor times its trailing baseline (with -synth-window; 0 = 1.5 default)")
		synthQ    = fs2.Float64("synth-quantile", 0, "compared download-time quantile, in (0,1) (with -synth-window; 0 = 0.75 default)")
		synthMin  = fs2.Int("synth-min-samples", 0, "minimum window samples before a provider is judged (with -synth-window; 0 = 20 default)")
		synthMinB = fs2.Int("synth-min-baseline-samples", 0, "minimum baseline weight before a provider is judged (with -synth-window; 0 = min-samples)")
		synthMaxP = fs2.Int("synth-max-providers", 0, "provider sketches tracked per shard window (with -synth-window; 0 = 64 default)")
	)
	if err := fs2.Parse(args); err != nil {
		return err
	}
	if *shedWait >= 0 && *queueLen <= 0 {
		return errors.New("-shed-wait needs -ingest-queue: unbounded ingest has nothing to shed")
	}

	server, boot, err := buildServer(oakdConfig{
		root: *root, ruleFile: *ruleFile, verbose: *verbose,
		shards: *shards, queueLen: *queueLen,
		maxBodyBytes: *maxBody,
		shedWait:     *shedWait, shedRetry: *shedRetry, rewriteBudget: *rewriteB,
		profileCache: *profCache, profileCacheBytes: *profBytes, spillDir: *spillDir,
		guardTrip: *guardTrip, guardCanaries: *guardCan,
		synthWindow: *synthWin, synthDegrade: *synthDeg, synthQuantile: *synthQ,
		synthMinSamples: *synthMin, synthMinBaseline: *synthMinB, synthMaxProviders: *synthMaxP,
	})
	if err != nil {
		return err
	}
	if *probeIvl > 0 && *guardTrip > 0 {
		prober := &oak.Prober{
			Targets:  server.Engine().AlternateProviders,
			Report:   server.Engine().ObserveProviderOutcome,
			Interval: *probeIvl,
			Logf:     log.Printf,
		}
		prober.Start()
		defer prober.Stop()
		log.Printf("oakd: probing alternate providers every %v", *probeIvl)
	}
	if *stateFile != "" {
		if err := loadState(server.Engine(), *stateFile); err != nil {
			return err
		}
		stop := persistPeriodically(server.Engine(), *stateFile, *saveEvery)
		defer stop()
	}
	// Deferred after the state defer, so on any exit path in-flight reports
	// finish before the final state save runs.
	defer server.Engine().Close()

	if *pprofAddr != "" {
		admin := &http.Server{Addr: *pprofAddr, Handler: pprofMux()}
		go func() {
			if err := admin.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("oakd: pprof listener: %v", err)
			}
		}()
		defer admin.Close()
		log.Printf("oakd: pprof admin listener on %s", *pprofAddr)
	}

	// The handler exists before the port does: a SIGTERM that arrives the
	// moment the listener answers still ends in the final save.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	srv := &http.Server{Addr: *addr, Handler: server}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	log.Printf("oakd: serving %d pages from %s with %d rules on %s; boot: %s",
		boot.pages, *root, boot.rules, *addr, boot.stages(server.Engine().BootStatus()))
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		// Graceful shutdown: stop accepting, drain in-flight requests, then
		// let the deferred persistPeriodically stop() take the final save.
		log.Printf("oakd: %v: shutting down", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}

// pprofMux routes the standard net/http/pprof handlers on a private mux so
// the profiling surface never mounts on the public listener.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// loadState restores engine state via the crash-safe read path: a missing
// file is a fresh deployment, a corrupt or version-skewed primary falls
// back to the rotating .bak (one save interval of learning lost, not all
// of it), and a missing primary with no .bak is a fresh start. Boot aborts
// when neither the primary nor the .bak is usable: starting empty over
// them would have the next save overwrite the last good state. Under a
// profile cap the engine has booted from its spill directory's checkpoint
// already, and path is read only when that directory holds none.
func loadState(engine *oak.Engine, path string) error {
	src, err := engine.LoadStateFile(path)
	if err != nil {
		return fmt.Errorf("load state: %w", err)
	}
	switch _, capped := engine.SpillStatus(); {
	case capped:
		log.Printf("oakd: %d users: %s", engine.Users(), bootSplit(engine, path))
	case src == oak.StateSnapshot:
		log.Printf("oakd: restored state for %d users from %s: %s", engine.Users(), path, bootSplit(engine, path))
	case src == oak.StateBackup:
		log.Printf("oakd: primary state file unusable; recovered %d users from backup %s: %s", engine.Users(), path+".bak", bootSplit(engine, path))
	}
	return nil
}

// bootSplit says what the boot did with its durable state and what each half
// cost: under a profile cap, which checkpoint it adopted — the spill
// directory's, its backup, the state file at path from before the checkpoint
// moved there, or none — what the segment replay's parts took, and what it
// made of the index.
func bootSplit(engine *oak.Engine, path string) string {
	bs := engine.BootStatus()
	load := fmt.Sprintf("load %v", bs.Load.Round(100*time.Microsecond))
	if bs.Migrated {
		load += " (migrated from a JSON state file; the next save writes a checkpoint)"
	}
	if _, capped := engine.SpillStatus(); !capped {
		return load
	}
	adopted := "no checkpoint"
	switch {
	case strings.HasSuffix(bs.Checkpoint, ".bak"):
		adopted = "checkpoint unusable, its backup " + bs.Checkpoint + " adopted"
	case bs.Checkpoint != "":
		adopted = "checkpoint " + bs.Checkpoint + " adopted"
	case bs.Load > 0:
		adopted = "legacy state file " + path + " read newer-wins (the next save moves the checkpoint into the spill directory), " + load
	}
	r := func(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }
	return fmt.Sprintf("%s; recover %v (checkpoint %v, index %v, walk %v, lift %v), %d segments quarantined; %s",
		adopted, r(bs.Recover), r(bs.RecoverCheckpoint), r(bs.RecoverIndex), r(bs.RecoverWalk), r(bs.RecoverLift),
		bs.QuarantinedSegments, indexOutcome(bs))
}

// indexOutcome says what the segment replay made of the checkpoint's index,
// and how many record bytes it checksummed and decoded.
func indexOutcome(bs oak.BootStatus) string {
	kb := func(n int64) string { return fmt.Sprintf("%.1f KB", float64(n)/1024) }
	if bs.IndexFallback != "" {
		return fmt.Sprintf("whole log decoded (%s): %s checksummed and decoded", bs.IndexFallback, kb(bs.Checksummed))
	}
	return fmt.Sprintf("index: %d entries adopted, %s checksummed, %s decoded", bs.IndexAdopted, kb(bs.Checksummed), kb(bs.Decoded))
}

// saveState persists engine state crash-safely: checksummed checkpoint,
// fsync before an atomic rename, previous one rotated to .bak.
func saveState(engine *oak.Engine, path string) error {
	return engine.SaveStateFile(path)
}

// persistPeriodically saves the state on an interval. The returned stop
// function halts the loop and takes one final save, so callers deferring it
// persist on any exit path — including signal-driven graceful shutdown
// (signal handling lives in run, not here, so no cleanup is skipped).
func persistPeriodically(engine *oak.Engine, path string, every time.Duration) (stop func()) {
	stopCh := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				if err := saveState(engine, path); err != nil {
					log.Printf("oakd: periodic save: %v", err)
				}
			case <-stopCh:
				return
			}
		}
	}()
	return func() {
		close(stopCh)
		<-done
		if err := saveState(engine, path); err != nil {
			log.Printf("oakd: final save: %v", err)
		}
	}
}

// oakdConfig is what buildServer needs from the flags.
type oakdConfig struct {
	root          string
	ruleFile      string
	verbose       bool
	shards        int
	queueLen      int           // admission bound; <= 0 leaves ingest unbounded
	maxBodyBytes  int64         // single-report body bound; <= 0 takes the 4 MB default
	shedWait      time.Duration // with queueLen > 0; negative = no shedding (wait for room)
	shedRetry     time.Duration
	rewriteBudget time.Duration // 0 = library default, negative = unbounded
	guardTrip     int           // breaker trip threshold; <= 0 disables the guard
	guardCanaries int           // half-open canary budget (with guardTrip > 0)

	// Profile residency (the spill tier). Either cap > 0 enables it and
	// then spillDir is required.
	profileCache      int
	profileCacheBytes int64
	spillDir          string

	// Population detection (<= 0 window disables; zero fields take the
	// library defaults).
	synthWindow       time.Duration
	synthDegrade      float64
	synthQuantile     float64
	synthMinSamples   int
	synthMinBaseline  int
	synthMaxProviders int
}

// booted is what buildServer loaded and what each of its stages took: the
// rules (parse and lint), the engine and the pages.
type booted struct {
	pages, rules                     int
	rulesTime, engineTime, pagesTime time.Duration
}

// stages names each stage of the boot with its time, the durable state's last
// (bs.Load, and under a profile cap the segment replay, bs.Recover, which
// NewEngine runs and the engine's stage leaves out), for the boot line.
func (b booted) stages(bs oak.BootStatus) string {
	r := func(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }
	return fmt.Sprintf("rules %v, engine %v, pages %v, state %v",
		r(b.rulesTime), r(b.engineTime-bs.Recover), r(b.pagesTime), r(bs.Load+bs.Recover))
}

// buildServer assembles the Oak server from a page directory and a rule
// file. Split from run so it is testable without binding a listener.
func buildServer(cfg oakdConfig) (*oak.Server, booted, error) {
	var b booted
	start := time.Now()
	var ruleSet []*oak.Rule
	if cfg.ruleFile != "" {
		f, err := os.Open(cfg.ruleFile)
		if err != nil {
			return nil, b, fmt.Errorf("read rules: %w", err)
		}
		set, err := oak.LoadRules(f)
		f.Close()
		if err != nil {
			return nil, b, fmt.Errorf("%s: %w", cfg.ruleFile, err)
		}
		ruleSet = set.Rules
	}

	for _, w := range oak.LintRules(ruleSet) {
		log.Printf("oakd: lint: %s", w)
	}
	b.rules, b.rulesTime = len(ruleSet), time.Since(start)

	var opts []oak.EngineOption
	if cfg.verbose {
		opts = append(opts, oak.WithLogf(log.Printf))
	}
	if cfg.shards > 0 {
		opts = append(opts, oak.WithShards(cfg.shards))
	}
	if cfg.queueLen > 0 {
		opts = append(opts, oak.WithAdmission(oak.Admission{
			MaxInFlight: cfg.queueLen,
			MaxWait:     cfg.shedWait,
			RetryAfter:  cfg.shedRetry,
		}))
	}
	if cfg.profileCache > 0 || cfg.profileCacheBytes > 0 {
		if cfg.spillDir == "" {
			return nil, b, fmt.Errorf("-profile-cache/-profile-cache-bytes need -spill-dir")
		}
		opts = append(opts, oak.WithProfileResidency(oak.ResidencyConfig{
			Dir:         cfg.spillDir,
			MaxProfiles: cfg.profileCache,
			MaxBytes:    cfg.profileCacheBytes,
		}))
	}
	if cfg.guardTrip > 0 {
		opts = append(opts, oak.WithGuard(oak.GuardConfig{
			TripThreshold:    cfg.guardTrip,
			HalfOpenCanaries: cfg.guardCanaries,
		}))
	}
	if cfg.synthWindow > 0 {
		opts = append(opts, oak.WithSynthesis(oak.SynthesisConfig{
			Window:             cfg.synthWindow,
			DegradeFactor:      cfg.synthDegrade,
			Quantile:           cfg.synthQuantile,
			MinSamples:         cfg.synthMinSamples,
			MinBaselineSamples: cfg.synthMinBaseline,
			MaxProviders:       cfg.synthMaxProviders,
		}))
	}
	start = time.Now()
	engine, err := oak.NewEngine(ruleSet, opts...)
	if err != nil {
		return nil, b, err
	}
	b.engineTime = time.Since(start)
	var srvOpts []oak.ServerOption
	if cfg.rewriteBudget != 0 {
		srvOpts = append(srvOpts, oak.WithRewriteBudget(cfg.rewriteBudget))
	}
	if cfg.maxBodyBytes > 0 {
		srvOpts = append(srvOpts, oak.WithMaxBodyBytes(cfg.maxBodyBytes))
	}
	server := oak.NewServer(engine, srvOpts...)
	start = time.Now()
	b.pages, err = server.LoadPages(os.DirFS(cfg.root))
	if err != nil {
		return nil, b, err
	}
	if b.pages == 0 {
		return nil, b, fmt.Errorf("no *.html pages under %s", cfg.root)
	}
	b.pagesTime = time.Since(start)
	return server, b, nil
}
