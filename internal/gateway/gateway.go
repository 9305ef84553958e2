// Package gateway provides Oak's horizontal-scale tier: an HTTP gateway
// that partitions the user population across N oakd backends by the same
// 32-bit FNV-1a user hash the engine already uses for shard striping
// (core.UserHash), so each user's reports and page serves always land on
// the backend that owns their profile.
//
// The gateway is robustness-first:
//
//   - Per-backend health probing drives a healthy → unhealthy → draining →
//     dead state machine; requests for a struggling backend fail over to a
//     designated standby (or the next healthy backend in ring order).
//   - A cluster control channel re-broadcasts one node's discoveries fleet
//     wide: a guard breaker trip on one backend force-opens the provider's
//     breaker (and bulk-rolls-back its activations) on every other backend,
//     and an organic population degraded episode is mirrored as a manual
//     MarkDegraded everywhere else.
//   - Node replacement ships the latest checksummed OAKSNAP2 snapshot the
//     gateway has polled from the dead backend to a fresh process, then
//     tops it up with a per-user-range export donated by the standby — the
//     reports the standby absorbed while the primary was down.
//
// Every exchange with a backend is one call (forward.go) on the gateway's own
// transport (transport.go), its answer read whole under a named bound. A
// report forward retries on the oak client's schedule: exponential backoff
// with jitter, Retry-After honoured, the whole exchange bounded by a
// context deadline.
package gateway

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"oak/internal/client"
	"oak/internal/core"
	"oak/internal/obs"
	"oak/internal/origin"
)

// BackendState is one backend's position in the gateway's health state
// machine.
type BackendState string

const (
	// StateHealthy: probes succeed; the backend takes its range's traffic.
	StateHealthy BackendState = "healthy"
	// StateUnhealthy: FailThreshold consecutive probes failed. The backend
	// still gets first shot at its range's traffic, but every request is
	// backstopped by failover.
	StateUnhealthy BackendState = "unhealthy"
	// StateDraining: DrainThreshold consecutive probes failed, or an
	// operator drained the backend ahead of replacement. Traffic goes
	// straight to failover; snapshot polling still tries the backend (a
	// draining node that answers can donate fresher state).
	StateDraining BackendState = "draining"
	// StateDead: DeadThreshold consecutive probes failed. The backend gets
	// no traffic and no polling; it is a replacement candidate.
	StateDead BackendState = "dead"
)

// Defaults for Config's zero fields.
const (
	DefaultProbeInterval    = 500 * time.Millisecond
	DefaultProbeTimeout     = 2 * time.Second
	DefaultForwardTimeout   = 15 * time.Second
	DefaultFailThreshold    = 2
	DefaultDrainThreshold   = 3
	DefaultDeadThreshold    = 5
	DefaultSnapshotInterval = 2 * time.Second
)

// Config configures a Gateway.
type Config struct {
	// Backends are the oakd base URLs (host:port or http://host:port), one
	// per partition; backend i owns EqualRanges(len(Backends))[i] of the
	// user-hash ring. At least one is required.
	Backends []string
	// Standby, when set, is an extra oakd that owns no range: it is the
	// preferred failover target for every partition and the donor of
	// per-user-range state when a dead backend is replaced.
	Standby string
	// ProbeInterval is the health-probe period (default
	// DefaultProbeInterval). The control sweep (breaker/degrade broadcast)
	// runs on the same cadence.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe or control request (default
	// DefaultProbeTimeout).
	ProbeTimeout time.Duration
	// ForwardTimeout bounds one forwarded exchange, retries included
	// (default DefaultForwardTimeout).
	ForwardTimeout time.Duration
	// FailThreshold / DrainThreshold / DeadThreshold are the consecutive
	// probe-failure counts that move a backend to unhealthy, draining and
	// dead (defaults 2 / 3 / 5; they are clamped to be non-decreasing).
	FailThreshold  int
	DrainThreshold int
	DeadThreshold  int
	// SnapshotInterval is how often the gateway polls each live backend's
	// OAKSNAP2 snapshot for replacement readiness (default
	// DefaultSnapshotInterval).
	SnapshotInterval time.Duration
	// Retry tunes the forwarding retry schedule (client.RetryPolicy
	// defaults apply to zero fields).
	Retry client.RetryPolicy
	// Logf, when set, receives gateway decision logging (state transitions,
	// failovers, broadcasts, replacements).
	Logf func(format string, args ...any)
}

// backend is one oakd process the gateway fronts.
type backend struct {
	mu sync.Mutex
	target
	state BackendState
	// drained pins the state machine at draining (operator Drain); cleared
	// by Replace and Undrain.
	drained bool
	// fails counts consecutive probe failures.
	fails    int
	lastErr  string
	lastSeen time.Time
	// healthz is the most recent successfully decoded probe response.
	healthz *origin.HealthzResponse
	// snapshot is the latest OAKSNAP2 snapshot polled from this backend,
	// kept for node replacement.
	snapshot   []byte
	snapshotAt time.Time
}

// target is where a backend's process listens: its base URL as configured
// and as parsed, and the report endpoint under it — built once when the
// address is set, so that no forward parses a URL.
type target struct {
	addr            string // base URL, normalised to http://host:port
	base, reportURL *url.URL
}

func parseTarget(addr string) (target, error) {
	base, err := url.Parse(addr)
	if err != nil {
		return target{}, fmt.Errorf("gateway: backend address: %w", err)
	}
	t := target{addr: addr, base: base}
	t.reportURL = t.urlFor(&url.URL{Path: origin.ReportPathV1})
	return t, nil
}

// urlFor is the URL under the target for a request URL the gateway received:
// the base with in's path and query appended.
func (t *target) urlFor(in *url.URL) *url.URL {
	u := *t.base
	u.Path, u.RawPath, u.RawQuery = t.base.Path+in.Path, "", in.RawQuery
	if in.RawPath != "" {
		u.RawPath = t.base.EscapedPath() + in.RawPath
	}
	return &u
}

func (b *backend) snapshotState() (state BackendState, fails int, lastErr string, hz *origin.HealthzResponse) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.fails, b.lastErr, b.healthz
}

// Gateway fronts a fleet of oakd backends. Create with NewGateway, start
// the background loops with Start, and serve it as an http.Handler.
type Gateway struct {
	cfg       Config
	ranges    []core.HashRange
	backends  []*backend
	standby   *backend   // nil without Config.Standby
	transport *transport // every backend exchange, through call
	logf      func(format string, args ...any)
	started   time.Time
	edge      *edgeCache

	// Control-channel memory (guarded by ctlMu): providers whose breaker
	// trip has already been broadcast, and the backends each degraded
	// provider was manually marked on (so the mark can be cleared when the
	// organic episode recovers).
	ctlMu        sync.Mutex
	seenBreakers map[string]struct{}
	markedOn     map[string]map[*backend]struct{}

	// metrics are the counters of the cluster metrics endpoint.
	metrics gatewayCounters[obs.Counter]

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

var _ http.Handler = (*Gateway)(nil)

// normalizeAddr turns host:port into a base URL and strips trailing
// slashes.
func normalizeAddr(addr string) string {
	addr = strings.TrimSuffix(strings.TrimSpace(addr), "/")
	if addr == "" {
		return addr
	}
	if !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://") {
		addr = "http://" + addr
	}
	return addr
}

// NewGateway builds a gateway over the configured backends. Background
// loops (probing, control sweep, snapshot polling) do not run until Start;
// a gateway used without Start still forwards, which suits tests that
// drive ProbeOnce/ControlSweep/ShipSnapshots deterministically.
func NewGateway(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends configured")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = DefaultProbeTimeout
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = DefaultForwardTimeout
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = DefaultFailThreshold
	}
	if cfg.DrainThreshold < cfg.FailThreshold {
		cfg.DrainThreshold = cfg.FailThreshold + 1
	}
	if cfg.DeadThreshold < cfg.DrainThreshold {
		cfg.DeadThreshold = cfg.DrainThreshold + 2
	}
	if cfg.SnapshotInterval <= 0 {
		cfg.SnapshotInterval = DefaultSnapshotInterval
	}
	cfg.Retry = cfg.Retry.WithDefaults()
	// Every request runs under a context deadline, ForwardTimeout or
	// ProbeTimeout; the transport has no timeout of its own.
	g := &Gateway{
		cfg:          cfg,
		ranges:       core.EqualRanges(len(cfg.Backends)),
		transport:    newTransport(),
		logf:         cfg.Logf,
		started:      time.Now(),
		edge:         newEdgeCache(),
		seenBreakers: make(map[string]struct{}),
		markedOn:     make(map[string]map[*backend]struct{}),
		stop:         make(chan struct{}),
	}
	if g.logf == nil {
		g.logf = func(string, ...any) {}
	}
	for _, addr := range cfg.Backends {
		a := normalizeAddr(addr)
		if a == "" {
			return nil, fmt.Errorf("gateway: empty backend address")
		}
		t, err := parseTarget(a)
		if err != nil {
			return nil, err
		}
		g.backends = append(g.backends, &backend{target: t, state: StateHealthy})
	}
	if s := normalizeAddr(cfg.Standby); s != "" {
		t, err := parseTarget(s)
		if err != nil {
			return nil, err
		}
		g.standby = &backend{target: t, state: StateHealthy}
	}
	return g, nil
}

// Start launches the background loops: health probing + control sweep on
// ProbeInterval, snapshot polling on SnapshotInterval. Stop them with
// Close.
func (g *Gateway) Start() {
	g.wg.Add(2)
	go func() {
		defer g.wg.Done()
		t := time.NewTicker(g.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				g.ProbeOnce()
				g.ControlSweep()
			}
		}
	}()
	go func() {
		defer g.wg.Done()
		t := time.NewTicker(g.cfg.SnapshotInterval)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				g.ShipSnapshots()
			}
		}
	}()
}

// Close stops the background loops and closes the pooled backend
// connections. Safe to call more than once; safe on a gateway that never
// Started.
func (g *Gateway) Close() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
	g.transport.close()
}

// all returns every backend including the standby.
func (g *Gateway) all() []*backend {
	if g.standby == nil {
		return g.backends
	}
	return append(append([]*backend(nil), g.backends...), g.standby)
}

// ownerIndex returns which backend's range owns the user. An empty user ID
// still hashes deterministically, so identity-less reports have a stable
// home.
func (g *Gateway) ownerIndex(userID string) int {
	if i := core.RangeFor(userID, g.ranges); i >= 0 {
		return i
	}
	return 0 // unreachable with EqualRanges, which covers the ring
}

// routable says whether a backend should receive first-shot traffic.
func routable(b *backend) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == StateHealthy || b.state == StateUnhealthy
}

// healthyNow says whether a backend is fully healthy.
func healthyNow(b *backend) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == StateHealthy
}

// failoverFor picks where traffic for backend i goes when i itself cannot
// take it: the standby when one is configured and healthy, else the next
// healthy backend in ring order, else nil.
func (g *Gateway) failoverFor(i int) *backend {
	if g.standby != nil && healthyNow(g.standby) {
		return g.standby
	}
	for off := 1; off < len(g.backends); off++ {
		b := g.backends[(i+off)%len(g.backends)]
		if healthyNow(b) {
			return b
		}
	}
	return nil
}

// route returns the primary and failover targets for backend index i.
// Draining and dead backends are skipped entirely; an unhealthy backend
// keeps first shot (it may be a blip) with the failover backstopping it.
func (g *Gateway) route(i int) (primary, fallback *backend) {
	b := g.backends[i]
	fo := g.failoverFor(i)
	if routable(b) {
		return b, fo
	}
	if fo != nil {
		return fo, nil
	}
	return b, nil // nothing healthy anywhere: last-resort attempt
}

// ServeHTTP dispatches cluster endpoints and forwards everything else.
// Fleet-level endpoints answer under the same /oak/v1 paths as the
// single-node surface.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case origin.ReportPathV1:
		g.handleReport(w, r)
	case origin.MetricsPathV1:
		g.handleClusterMetrics(w, r)
	case origin.HealthzPathV1:
		g.handleClusterHealth(w, r)
	case ClusterPathV1:
		g.handleCluster(w, r)
	case ClusterReplacePathV1:
		g.handleReplace(w, r)
	case ClusterDrainPathV1:
		g.handleDrain(w, r)
	default:
		if strings.HasPrefix(r.URL.Path, "/oak/") {
			// Node-local operator surfaces (trace, audit, population, state)
			// are not aggregated; query the backend directly.
			http.Error(w, "not a cluster endpoint", http.StatusNotFound)
			return
		}
		g.handlePage(w, r)
	}
}
