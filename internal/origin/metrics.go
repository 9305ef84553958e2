package origin

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"oak/internal/core"
	"oak/internal/obs"
)

// Operator observability endpoints. Like AuditPathV1, these are
// operator-facing: restrict access to them in deployments.
const (
	// MetricsPathV1 serves the engine's aggregate counters and latency
	// histograms as JSON.
	MetricsPathV1 = V1Prefix + "/metrics"
	// HealthzPathV1 serves a liveness summary (uptime, rule/user counts).
	HealthzPathV1 = V1Prefix + "/healthz"
	// TracePathV1 serves the most recent decision-trace events as JSON;
	// ?n=100 bounds the window (default 100).
	TracePathV1 = V1Prefix + "/trace"
	// PopulationPathV1 serves the population-detection state (degraded
	// providers, per-provider baselines, synthesis counters); 404 on
	// engines built without WithSynthesis.
	PopulationPathV1 = V1Prefix + "/population"
)

// defaultTraceWindow is how many events GET /oak/v1/trace returns when the
// request does not say.
const defaultTraceWindow = 100

// MetricsResponse is the GET /oak/v1/metrics body.
type MetricsResponse struct {
	// Counters are the engine's monotone aggregate counters.
	Counters core.Metrics `json:"counters"`
	// Ingest and Rewrite summarise the hot-path latency histograms in
	// millisecond percentiles. Ingest merges all shards.
	Ingest  obs.Summary `json:"ingest"`
	Rewrite obs.Summary `json:"rewrite"`
	// IngestBuckets and RewriteBuckets are the raw populated histogram
	// buckets, for operators who want more than percentiles.
	IngestBuckets  []obs.Bucket `json:"ingest_buckets,omitempty"`
	RewriteBuckets []obs.Bucket `json:"rewrite_buckets,omitempty"`
	// Shards is how many lock-striped shards partition per-user state.
	Shards int `json:"shards"`
	// IngestShards summarises each shard's ingest histogram (indexed by
	// shard); shards that have ingested nothing are omitted. A shard whose
	// latencies stand out indicates a hot user population.
	IngestShards []ShardSummary `json:"ingest_shards,omitempty"`
	// IngestQueue describes the admission bound on ingest; absent when
	// the engine runs without one (core.WithAdmission).
	IngestQueue *QueueStatus `json:"ingest_queue,omitempty"`
	// PagesDegraded counts page deliveries served unmodified because the
	// per-user rewrite did not finish within the rewrite budget.
	PagesDegraded uint64 `json:"pages_degraded"`
	// PagesNotModified counts page GETs answered 304: the requester's
	// If-None-Match listed the entity tag of the body this user was due.
	PagesNotModified uint64 `json:"pages_not_modified"`
	// PageIndexEntries sums, over the pages served so far, how many rules
	// occur on each (core.Engine.PageIndexEntries): the serve path's only
	// memory, at most pages × rules, whatever the number of users.
	PageIndexEntries int `json:"page_index_entries"`
	// Deprecated: there is no rewrite cache; these read zero. They stay
	// until the benchmark stops reading them.
	RewriteCacheHits   uint64 `json:"rewrite_cache_hits"`
	RewriteCacheMisses uint64 `json:"rewrite_cache_misses"`
	RewriteCacheBytes  int64  `json:"rewrite_cache_bytes"`
	// Guard is the circuit-breaker state (breakers, quarantined providers
	// and rules, canary counts); absent on engines built without WithGuard.
	Guard *core.GuardStatus `json:"guard,omitempty"`
	// Population is the population-detection state (degraded providers,
	// per-provider baselines, synthesis counters); absent on engines built
	// without WithSynthesis.
	Population *core.PopulationStatus `json:"population,omitempty"`
	// Spill is the profile spill tier's state (residency counts, segment
	// footprint, rehydration latency); absent on engines built without
	// core.WithProfileResidency.
	Spill *SpillSection `json:"spill,omitempty"`
}

// SpillSection is the spill-tier block of MetricsResponse: the engine's
// core.SpillStatus — where the user population currently lives, the tier's
// counters — and the rehydration latency digest.
type SpillSection struct {
	core.SpillStatus
	// Rehydrate summarises spill→memory rehydration latency in millisecond
	// percentiles; RehydrateNs is the raw populated histogram (nanosecond
	// bucket bounds), for operators who want more than percentiles.
	Rehydrate   obs.Summary  `json:"rehydrate"`
	RehydrateNs []obs.Bucket `json:"rehydrate_ns,omitempty"`
}

// ShardSummary is one shard's ingest latency digest.
type ShardSummary struct {
	Shard   int         `json:"shard"`
	Summary obs.Summary `json:"summary"`
}

// QueueStatus describes the admission bound on ingest.
type QueueStatus struct {
	// Depth is how many reports are in analysis right now.
	Depth int64 `json:"depth"`
	// Capacity is the bound; a report that finds Depth at Capacity waits
	// or is shed.
	Capacity int `json:"capacity"`
}

// HealthzResponse is the GET /oak/v1/healthz body.
type HealthzResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Rules         int     `json:"rules"`
	Users         int     `json:"users"`
	Reports       uint64  `json:"reports"`
	// OpenBreakers lists alternate providers currently quarantined by an
	// open guard breaker (omitted when none, or without WithGuard).
	OpenBreakers []string `json:"open_breakers,omitempty"`
	// DegradedProviders lists providers the population detector currently
	// flags (omitted when none, or without WithSynthesis).
	DegradedProviders []string `json:"degraded_providers,omitempty"`
	// StateSource says where the engine's state came from: "fresh",
	// "snapshot", "backup" (recovered from the rotating .bak), or
	// "shipped" (rehydrated from a snapshot shipped by another node).
	StateSource string `json:"state_source"`
	// StateRecoveries counts restores from somewhere other than the
	// primary snapshot file — backup fallbacks and shipped rehydrations.
	StateRecoveries uint64 `json:"state_recoveries"`
	// SpillDegraded is true when the profile spill tier is operating
	// impaired: a spill I/O failure latched memory-only mode, or a damaged
	// segment was quarantined. The process keeps serving either way; the
	// flag (and the "degraded" status it forces) tells operators resident
	// memory is no longer bounded or spilled profiles were set aside.
	// Omitted on engines without a residency cap.
	SpillDegraded bool `json:"spill_degraded,omitempty"`
	// SpillMemoryOnly narrows SpillDegraded: true when evictions have
	// stopped and the engine runs memory-only.
	SpillMemoryOnly bool `json:"spill_memory_only,omitempty"`
	// QuarantinedSegments counts spill segment files set aside after
	// codec-level damage.
	QuarantinedSegments int `json:"quarantined_segments,omitempty"`
}

// handleMetrics serves counters plus ingest/rewrite histograms.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	lat := s.engine.Latencies()
	resp := MetricsResponse{
		Counters:         s.engine.Metrics(),
		Ingest:           lat.Ingest.Summary(),
		Rewrite:          lat.Rewrite.Summary(),
		IngestBuckets:    lat.Ingest.Buckets,
		RewriteBuckets:   lat.Rewrite.Buckets,
		Shards:           s.engine.ShardCount(),
		PagesDegraded:    s.pagesDegraded.Value(),
		PagesNotModified: s.pagesNotModified.Value(),
		PageIndexEntries: s.engine.PageIndexEntries(),
	}
	for i, snap := range lat.IngestShards {
		if snap.Count > 0 {
			resp.IngestShards = append(resp.IngestShards, ShardSummary{Shard: i, Summary: snap.Summary()})
		}
	}
	if depth, capacity := s.engine.IngestQueue(); capacity > 0 {
		resp.IngestQueue = &QueueStatus{Depth: depth, Capacity: capacity}
	}
	if gs, ok := s.engine.GuardStatus(); ok {
		resp.Guard = &gs
	}
	if ps, ok := s.engine.PopulationStatus(); ok {
		resp.Population = &ps
	}
	if ss, ok := s.engine.SpillStatus(); ok {
		resp.Spill = &SpillSection{
			SpillStatus: ss,
			Rehydrate:   lat.Rehydrate.Summary(),
			RehydrateNs: lat.Rehydrate.Buckets,
		}
	}
	writeJSON(w, resp)
}

// handlePopulation serves the population layer's full state. Engines built
// without WithSynthesis answer 404: the endpoint does not exist for them,
// exactly like the guard section is absent from guardless metrics.
func (s *Server) handlePopulation(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	ps, ok := s.engine.PopulationStatus()
	if !ok {
		http.Error(w, "population detection not enabled", http.StatusNotFound)
		return
	}
	writeJSON(w, ps)
}

// handleHealthz serves the liveness summary. The status is "degraded" —
// still HTTP 200, the process is alive — while the admission bound is
// saturated, so load balancers polling healthz see overload before clients
// start receiving 503s.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	status := "ok"
	if depth, capacity := s.engine.IngestQueue(); capacity > 0 && depth >= int64(capacity) {
		status = "degraded"
	}
	resp := HealthzResponse{
		UptimeSeconds:     time.Since(s.started).Seconds(),
		Rules:             len(s.engine.Rules()),
		Users:             s.engine.Users(),
		Reports:           s.engine.Metrics().ReportsHandled,
		OpenBreakers:      s.engine.OpenBreakers(),
		DegradedProviders: s.engine.DegradedProviders(),
	}
	if ss, ok := s.engine.SpillStatus(); ok {
		resp.SpillDegraded = s.engine.SpillDegraded()
		resp.SpillMemoryOnly = ss.MemoryOnly
		resp.QuarantinedSegments = len(ss.QuarantinedSegments)
		if resp.SpillDegraded {
			status = "degraded"
		}
	}
	src, recoveries := s.engine.StateStatus()
	resp.Status = status
	resp.StateSource = string(src)
	resp.StateRecoveries = recoveries
	writeJSON(w, resp)
}

// handleTrace serves the last n decision-trace events.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	n := defaultTraceWindow
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			http.Error(w, "n must be a positive integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	evs := s.engine.TraceRecent(n)
	if evs == nil {
		evs = []obs.Event{} // serve [] rather than null
	}
	writeJSON(w, evs)
}

// getOnly rejects non-GET methods.
func getOnly(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

// writeJSON encodes v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
