// Command oakgw runs Oak's cluster gateway: a single HTTP front that
// partitions the user population across a fleet of oakd backends by the
// engine's own FNV-1a user hash, fails requests over when a backend
// struggles, re-broadcasts guard breaker trips and population degraded
// episodes fleet-wide, and replaces dead nodes from the checksummed
// OAKSNAP2 snapshots it polls continuously.
//
// Usage:
//
//	oakgw -backends localhost:8081,localhost:8082,localhost:8083
//	oakgw -backends a:8081,b:8081 -standby s:8081 -addr :8090
//
// Backend i owns arc i of core.EqualRanges(N) over the 32-bit user-hash
// ring; a user's reports and pages always land on the backend owning their
// hash. The optional -standby backend owns no range: it is the preferred
// failover target for every partition and donates per-user-range state when
// a dead backend is replaced before its first snapshot poll.
//
// Endpoints:
//
//	/oak/v1/report            forwarded to the owner backend (batches split by user)
//	/oak/v1/metrics           gateway counters + every backend's metrics
//	/oak/v1/healthz           aggregated fleet health (status, users, breaker union)
//	/oak/v1/cluster           detailed per-backend view (state machine, snapshots)
//	/oak/v1/cluster/replace   POST ?backend=N&addr=host:port — replace a node
//	/oak/v1/cluster/drain     POST ?backend=N[&undrain=1]    — operator drain
//	everything else           proxied page serve to the cookie owner's backend
//
// Tuning flags mirror the gateway defaults: -probe-interval, -probe-timeout,
// -forward-timeout, -fail-threshold, -drain-threshold, -dead-threshold,
// -snapshot-interval. -v enables decision logging (state transitions,
// failovers, broadcasts, replacements).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"oak/internal/gateway"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "oakgw:", err)
		os.Exit(1)
	}
}

// oakgwConfig carries the parsed flags.
type oakgwConfig struct {
	addr             string
	backends         string
	standby          string
	probeInterval    time.Duration
	probeTimeout     time.Duration
	forwardTimeout   time.Duration
	failThreshold    int
	drainThreshold   int
	deadThreshold    int
	snapshotInterval time.Duration
	verbose          bool
}

func parseFlags(args []string) (oakgwConfig, error) {
	var cfg oakgwConfig
	fs := flag.NewFlagSet("oakgw", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", ":8090", "listen address")
	fs.StringVar(&cfg.backends, "backends", "", "comma-separated oakd base URLs, one per partition (required)")
	fs.StringVar(&cfg.standby, "standby", "", "optional standby oakd: failover target and range donor for replacements")
	fs.DurationVar(&cfg.probeInterval, "probe-interval", gateway.DefaultProbeInterval, "health-probe and control-sweep period")
	fs.DurationVar(&cfg.probeTimeout, "probe-timeout", gateway.DefaultProbeTimeout, "timeout for one probe or control request")
	fs.DurationVar(&cfg.forwardTimeout, "forward-timeout", gateway.DefaultForwardTimeout, "timeout for one forwarded exchange, retries included")
	fs.IntVar(&cfg.failThreshold, "fail-threshold", gateway.DefaultFailThreshold, "consecutive probe failures before a backend is unhealthy")
	fs.IntVar(&cfg.drainThreshold, "drain-threshold", gateway.DefaultDrainThreshold, "consecutive probe failures before a backend is draining")
	fs.IntVar(&cfg.deadThreshold, "dead-threshold", gateway.DefaultDeadThreshold, "consecutive probe failures before a backend is dead")
	fs.DurationVar(&cfg.snapshotInterval, "snapshot-interval", gateway.DefaultSnapshotInterval, "how often to poll each backend's snapshot for replacement readiness")
	fs.BoolVar(&cfg.verbose, "v", false, "log gateway decisions (state transitions, failovers, broadcasts)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// buildGateway constructs the gateway from parsed flags, testable without
// binding a listener.
func buildGateway(cfg oakgwConfig) (*gateway.Gateway, error) {
	var backends []string
	for _, b := range strings.Split(cfg.backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			backends = append(backends, b)
		}
	}
	if len(backends) == 0 {
		return nil, fmt.Errorf("-backends is required (comma-separated oakd base URLs)")
	}
	gcfg := gateway.Config{
		Backends:         backends,
		Standby:          cfg.standby,
		ProbeInterval:    cfg.probeInterval,
		ProbeTimeout:     cfg.probeTimeout,
		ForwardTimeout:   cfg.forwardTimeout,
		FailThreshold:    cfg.failThreshold,
		DrainThreshold:   cfg.drainThreshold,
		DeadThreshold:    cfg.deadThreshold,
		SnapshotInterval: cfg.snapshotInterval,
	}
	if cfg.verbose {
		gcfg.Logf = log.Printf
	}
	return gateway.NewGateway(gcfg)
}

func run(args []string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	gw, err := buildGateway(cfg)
	if err != nil {
		return err
	}
	gw.Start()
	defer gw.Close()

	// The handler exists before the port does: a SIGTERM that arrives the
	// moment the listener answers still drains.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	srv := &http.Server{Addr: cfg.addr, Handler: gw}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("oakgw listening on %s (%d backends)", cfg.addr, strings.Count(cfg.backends, ",")+1)

	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		log.Printf("oakgw: %v, shutting down", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
	}
	return nil
}
