package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"oak/internal/obs"
	"oak/internal/seglog"
	"oak/internal/stats"
)

// Sharding: the engine's per-user state (profiles with their violation
// counters and live activations) is partitioned across N lock-striped shards
// keyed by a hash of the user ID. A report only ever touches its user's
// shard, so reports for different users ingest fully in parallel; the old
// design took one global write lock per report and capped ingestion at a
// single core. Cross-user operations (Users, Audit, ExportState,
// ImportState) iterate the shards.
//
// Consistency: each shard is internally consistent (guarded by its own
// RWMutex). Operations that span shards lock them one at a time, so a
// cross-shard view is weakly consistent — it interleaves per-shard states
// that existed during the call, exactly like reading a sharded database
// without a global transaction. ImportState is the exception: it locks every
// shard for the swap so a restore is atomic.

// shard holds the profiles of one partition of the user population.
type shard struct {
	mu       sync.RWMutex
	profiles map[string]*Profile
	// users mirrors len(profiles) lock-free, so liveness surfaces (Users,
	// healthz) never block behind a shard wedged mid-ingest.
	users obs.Gauge
	// ingest is this shard's report-ingest latency histogram; the engine
	// merges the shards for the aggregate view and exposes them raw for
	// per-shard hot-spot diagnosis.
	ingest obs.Histogram
	// pop, maintained only on synthesis-enabled engines, holds this shard's
	// current-window per-provider download-time sketches; the population
	// tick swaps it out and merges across shards. Created lazily on the
	// first fed report. Guarded by mu. See popwire.go.
	pop *shardPop
	// ruleIDScratch is reconciliation's reusable active-rule-ID snapshot
	// buffer; one per shard because it is only touched under mu (write).
	ruleIDScratch []string
	// spilled, used only on engines with a profile residency cap, maps user
	// ID → the user's newest durable segment record. A user in profiles
	// keeps theirs (spill.go's durability contract), so a user is spilled
	// when they have a ref and no profile. Guarded by mu.
	spilled spillIndex
	// spillSeg is this shard's current append-target segment (nil until the
	// first eviction, and after a rotation). Guarded by mu.
	spillSeg *seglog.Segment
	// residentBytes estimates the heap bytes of this shard's resident
	// profiles, maintained on engines with a residency cap; it is the
	// quantity the byte cap watches. Atomic so the over-cap precheck stays
	// lock-free.
	residentBytes atomic.Int64
}

// shardPop is one shard's slice of the population aggregation window.
type shardPop struct {
	// provs maps provider hostname → this window's download-time sketch,
	// bounded by SynthesisConfig.MaxProviders.
	provs map[string]*stats.QuantileSketch
	// hh ranks providers by report appearances (space-saving top-k).
	hh *stats.HeavyHitters
}

// Shard-count bounds. The count is always rounded up to a power of two so
// the shard index is a mask, not a modulo.
const (
	minShards = 1
	maxShards = 1024
)

// DefaultShardCount returns the shard count used when WithShards is not
// given: four stripes per logical CPU (rounded up to a power of two, at
// least 8), so uniformly-hashed users rarely collide on a lock even with
// every CPU ingesting.
func DefaultShardCount() int {
	return clampShards(4 * runtime.GOMAXPROCS(0))
}

// clampShards bounds n to [minShards, maxShards] and rounds it up to a
// power of two (minimum 8 for the auto default's sake is applied by
// callers; clampShards itself only enforces the hard bounds).
func clampShards(n int) int {
	if n < 8 {
		n = 8
	}
	return nextPowerOfTwo(boundShards(n))
}

// boundShards applies the hard [minShards, maxShards] bounds.
func boundShards(n int) int {
	if n < minShards {
		return minShards
	}
	if n > maxShards {
		return maxShards
	}
	return n
}

// nextPowerOfTwo rounds n up to the nearest power of two (n >= 1).
func nextPowerOfTwo(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// WithShards sets how many lock-striped shards hold per-user state. The
// count is rounded up to a power of two and bounded to [1, 1024]; 0 (and
// any negative value) selects the default (DefaultShardCount). One shard
// reproduces the old single-lock engine, which is useful as a contention
// baseline in benchmarks.
func WithShards(n int) Option {
	return func(e *Engine) {
		if n <= 0 {
			e.shardCount = 0 // resolved to the default at construction
			return
		}
		e.shardCount = nextPowerOfTwo(boundShards(n))
	}
}

// FNV-1a constants (hash/fnv unrolled so hashing a user ID allocates
// nothing on the ingest hot path).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// userHash is the 32-bit FNV-1a hash of a user ID. It is the one hash the
// whole system partitions users by: the shard index is its low bits, and
// the cluster gateway routes users to backends by contiguous ranges of this
// hash space (see HashRange), so a node's range export contains exactly the
// users a gateway sends it. A spill index hands its keys out as bytes.
func userHash[K string | []byte](userID K) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < len(userID); i++ {
		h ^= uint32(userID[i])
		h *= fnvPrime32
	}
	return h
}

// UserHash exposes the user-partitioning hash (see userHash). Exported for
// the gateway and tooling; the value is stable across releases because
// snapshots and routing both depend on it.
func UserHash(userID string) uint32 { return userHash(userID) }

// shardIndex maps a user ID to its shard's index.
func (e *Engine) shardIndex(userID string) int {
	return int(userHash(userID) & uint32(len(e.shards)-1))
}

// shardFor returns the shard owning the user ID.
func (e *Engine) shardFor(userID string) *shard {
	return e.shards[e.shardIndex(userID)]
}

// ShardCount returns how many shards partition the engine's per-user state.
func (e *Engine) ShardCount() int { return len(e.shards) }
