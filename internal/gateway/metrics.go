package gateway

import (
	"net/http"
	"sort"
	"time"

	"oak/internal/core"
	"oak/internal/origin"
)

// Fleet aggregation: the gateway serves the same operator surface shape a
// single oakd does — /oak/v1/healthz and /oak/v1/metrics — but aggregated,
// so dashboards and oakreport point at one address whether they watch a
// node or a fleet. /oak/v1/cluster adds the gateway's own view: state
// machine positions, snapshot freshness, range ownership.

// BackendHealth is one backend's row in the cluster health view.
type BackendHealth struct {
	Addr  string `json:"addr"`
	State string `json:"state"`
	// Range is the hash-ring arc this backend owns (absent for the
	// standby, which owns none).
	Range *core.HashRange `json:"range,omitempty"`
	// ConsecutiveFails is the probe-failure streak driving the state
	// machine.
	ConsecutiveFails int    `json:"consecutive_fails,omitempty"`
	LastError        string `json:"last_error,omitempty"`
	// SnapshotAgeSeconds / SnapshotBytes describe the latest OAKSNAP2
	// snapshot the gateway holds for this backend (replacement readiness).
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds,omitempty"`
	SnapshotBytes      int     `json:"snapshot_bytes,omitempty"`
	// Healthz is the backend's own last healthz body (cluster view only).
	Healthz *origin.HealthzResponse `json:"healthz,omitempty"`
}

// ClusterHealthResponse is the gateway's GET /oak/v1/healthz body.
type ClusterHealthResponse struct {
	// Status is "ok" when every range-owning backend is healthy,
	// "degraded" otherwise.
	Status        string          `json:"status"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	Backends      []BackendHealth `json:"backends"`
	Standby       *BackendHealth  `json:"standby,omitempty"`
	// Users and Reports sum the last-probed values across the fleet.
	Users   int    `json:"users"`
	Reports uint64 `json:"reports"`
	// OpenBreakers / DegradedProviders are the sorted unions across the
	// fleet — what the control sweep works from.
	OpenBreakers      []string `json:"open_breakers,omitempty"`
	DegradedProviders []string `json:"degraded_providers,omitempty"`
}

// GatewayMetrics are the gateway's own counters.
type GatewayMetrics struct {
	UptimeSeconds     float64 `json:"uptime_seconds"`
	ForwardedReports  uint64  `json:"forwarded_reports"`
	ForwardedPages    uint64  `json:"forwarded_pages"`
	Failovers         uint64  `json:"failovers"`
	ProbeCycles       uint64  `json:"probe_cycles"`
	BreakerBroadcasts uint64  `json:"breaker_broadcasts"`
	DegradeBroadcasts uint64  `json:"degrade_broadcasts"`
	Replacements      uint64  `json:"replacements"`
	// EdgeCache is the edge variant cache (see edge.go).
	EdgeCache EdgeCacheMetrics `json:"edge_cache"`
	// BackendConns is the gateway's transport to its backends (see
	// transport.go).
	BackendConns BackendConnMetrics `json:"backend_conns"`
}

// BackendConnMetrics answer "is the gateway re-dialling its backends?": in
// steady state Reuses grows with the forwards and Dials does not.
type BackendConnMetrics struct {
	// Dials counts connections opened to backends.
	Dials uint64 `json:"dials"`
	// Reuses counts requests sent on a pooled keep-alive connection.
	Reuses uint64 `json:"reuses"`
	// StaleRetries counts pooled connections found closed by the backend
	// when next used; the request went out again on another connection.
	StaleRetries uint64 `json:"stale_retries"`
	// Idle is how many connections sit pooled right now.
	Idle int `json:"idle"`
}

// EdgeCacheMetrics are the edge variant cache's counters and current size.
// Hits/(Hits+Fills) is the share of page bodies the backends did not have
// to send; Evictions and Refetches growing together mean the working set
// of page variants is larger than the cache's fixed bounds.
type EdgeCacheMetrics struct {
	// Hits counts pages served from a held variant after a backend's 304.
	Hits uint64 `json:"hits"`
	// Fills counts page bodies stored from a backend's tagged 200.
	Fills uint64 `json:"fills"`
	// Refetches counts 304s that named no servable variant (evicted since
	// the offer, no ETag, or unasked) and were fetched again in full.
	Refetches uint64 `json:"refetches"`
	Evictions uint64 `json:"evictions"`
	// Bytes and Variants are what is held right now.
	Bytes    int64 `json:"bytes"`
	Variants int64 `json:"variants"`
}

// BackendMetrics is one backend's row in the cluster metrics view.
type BackendMetrics struct {
	Addr    string                  `json:"addr"`
	State   string                  `json:"state"`
	Range   *core.HashRange         `json:"range,omitempty"`
	Metrics *origin.MetricsResponse `json:"metrics,omitempty"`
	Error   string                  `json:"error,omitempty"`
}

// ClusterMetricsResponse is the gateway's GET /oak/v1/metrics body.
type ClusterMetricsResponse struct {
	Gateway  GatewayMetrics   `json:"gateway"`
	Backends []BackendMetrics `json:"backends"`
	Standby  *BackendMetrics  `json:"standby,omitempty"`
}

// backendHealth renders one backend's health row.
func (g *Gateway) backendHealth(b *backend, rng *core.HashRange, detail bool) BackendHealth {
	b.mu.Lock()
	defer b.mu.Unlock()
	bh := BackendHealth{
		Addr:             b.addr,
		State:            string(b.state),
		Range:            rng,
		ConsecutiveFails: b.fails,
		LastError:        b.lastErr,
	}
	if len(b.snapshot) > 0 {
		bh.SnapshotBytes = len(b.snapshot)
		bh.SnapshotAgeSeconds = time.Since(b.snapshotAt).Seconds()
	}
	if detail {
		bh.Healthz = b.healthz
	}
	return bh
}

// clusterHealth builds the aggregated health view.
func (g *Gateway) clusterHealth(detail bool) ClusterHealthResponse {
	resp := ClusterHealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(g.started).Seconds(),
	}
	breakers := make(map[string]struct{})
	degraded := make(map[string]struct{})
	collect := func(b *backend, rng *core.HashRange) BackendHealth {
		bh := g.backendHealth(b, rng, detail)
		b.mu.Lock()
		hz := b.healthz
		b.mu.Unlock()
		if hz != nil {
			resp.Users += hz.Users
			resp.Reports += hz.Reports
			for _, p := range hz.OpenBreakers {
				breakers[p] = struct{}{}
			}
			for _, p := range hz.DegradedProviders {
				degraded[p] = struct{}{}
			}
		}
		return bh
	}
	for i, b := range g.backends {
		rng := g.ranges[i]
		bh := collect(b, &rng)
		if bh.State != string(StateHealthy) {
			resp.Status = "degraded"
		}
		resp.Backends = append(resp.Backends, bh)
	}
	if g.standby != nil {
		bh := collect(g.standby, nil)
		resp.Standby = &bh
	}
	resp.OpenBreakers = sortedKeys(breakers)
	resp.DegradedProviders = sortedKeys(degraded)
	return resp
}

func sortedKeys(m map[string]struct{}) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// backendMetrics renders one backend's metrics row, fetching live.
func (g *Gateway) backendMetrics(b *backend, rng *core.HashRange) BackendMetrics {
	st, _, _, _ := b.snapshotState()
	bm := BackendMetrics{Addr: b.addr, State: string(st), Range: rng}
	if st == StateDead {
		bm.Error = "dead"
		return bm
	}
	var mr origin.MetricsResponse
	if err := g.getStatus(b, origin.MetricsPathV1, &mr); err != nil {
		bm.Error = err.Error()
		return bm
	}
	bm.Metrics = &mr
	return bm
}

// handleClusterHealth serves the aggregated healthz (summary form).
func (g *Gateway) handleClusterHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	origin.WriteJSON(w, http.StatusOK, g.clusterHealth(false))
}

// handleCluster serves the detailed fleet view (per-backend healthz bodies
// and snapshot freshness included).
func (g *Gateway) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	origin.WriteJSON(w, http.StatusOK, g.clusterHealth(true))
}

// handleClusterMetrics serves the gateway's counters plus every live
// backend's metrics body.
func (g *Gateway) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	resp := ClusterMetricsResponse{
		Gateway: GatewayMetrics{
			UptimeSeconds:     time.Since(g.started).Seconds(),
			ForwardedReports:  g.forwardedReports.Value(),
			ForwardedPages:    g.forwardedPages.Value(),
			Failovers:         g.failovers.Value(),
			ProbeCycles:       g.probeCycles.Value(),
			BreakerBroadcasts: g.breakerBroadcasts.Value(),
			DegradeBroadcasts: g.degradeBroadcasts.Value(),
			Replacements:      g.replacements.Value(),
			EdgeCache: EdgeCacheMetrics{
				Hits:      g.edge.hits.Value(),
				Fills:     g.edge.fills.Value(),
				Refetches: g.edge.refetches.Value(),
				Evictions: g.edge.evictions.Value(),
				Bytes:     g.edge.bytes.Value(),
				Variants:  g.edge.variants.Value(),
			},
			BackendConns: BackendConnMetrics{
				Dials:        g.transport.dials.Value(),
				Reuses:       g.transport.reuses.Value(),
				StaleRetries: g.transport.staleRetries.Value(),
				Idle:         g.transport.idleConns(),
			},
		},
	}
	for i, b := range g.backends {
		rng := g.ranges[i]
		resp.Backends = append(resp.Backends, g.backendMetrics(b, &rng))
	}
	if g.standby != nil {
		bm := g.backendMetrics(g.standby, nil)
		resp.Standby = &bm
	}
	origin.WriteJSON(w, http.StatusOK, resp)
}
