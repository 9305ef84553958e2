package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"oak/internal/obs"
	"oak/internal/report"
	"oak/internal/stats"
)

// Population wiring: cross-user detection and automatic rule synthesis.
//
// The paper's MAD detector is strictly per-user — a user must personally
// accumulate MinViolations bad reports before a rule activates for them. A
// provider that is slow for *everyone* therefore gets rediscovered once per
// user, and users who report rarely may never accumulate enough evidence at
// all. The population layer closes that gap:
//
//   - every ingested report feeds per-provider-hostname download-time
//     sketches (internal/stats.QuantileSketch) held per shard, under the
//     shard lock the ingest path already holds — no new locks on the hot
//     path;
//   - once per window the engine merges the shard sketches (the sketches are
//     exactly mergeable) and compares each provider's window quantile
//     against its own exponentially-decayed trailing baseline; a provider
//     whose quantile degrades by DegradeFactor is flagged;
//   - while a provider is flagged, the synthesizer turns the rule catalog's
//     alternatives into candidate activations for affected users on their
//     next report — bypassing the per-user MinViolations gate — so users who
//     haven't individually tripped yet are mitigated too. Every synthesized
//     activation is admitted through the same guard breaker machinery as an
//     organic one (and carries Synthesized provenance), so a bad synthetic
//     rule self-rolls-back via the population-outcome breaker trip without
//     operator action.
//
// Lock discipline: popState.mu is a leaf lock taken only inside the window
// tick and the status/manual verbs, never under a shard lock. The hot path
// touches only the owning shard's sketches (under the already-held sh.mu)
// and one atomic load of the degraded-provider set — nil whenever no
// provider is flagged, so a healthy population costs the ingest path a
// single pointer load.

// Defaults for SynthesisConfig's zero fields.
const (
	defaultPopWindow        = 2 * time.Minute
	defaultPopDegradeFactor = 1.5
	defaultPopQuantile      = 0.75
	defaultPopMinSamples    = 20
	defaultPopMaxProviders  = 64
	popRecoverFactor        = 1.1
)

// SynthesisConfig enables and tunes population-level detection and rule
// synthesis (WithSynthesis). Zero fields take defaults.
type SynthesisConfig struct {
	// Window is the aggregation window: sketches accumulate for one window,
	// then are compared against the trailing baseline and folded into it.
	// Default 2m.
	Window time.Duration
	// DegradeFactor flags a provider when its window quantile exceeds
	// DegradeFactor × its baseline quantile. Default 1.5.
	DegradeFactor float64
	// Quantile is the compared quantile, in (0,1). Default 0.75.
	Quantile float64
	// MinSamples is the minimum window sample count before a provider is
	// judged. Default 20.
	MinSamples int
	// MinBaselineSamples is the minimum baseline weight before a provider
	// is judged (default: MinSamples). A provider with no history is never
	// flagged — the first windows only warm the baseline.
	MinBaselineSamples int
	// MaxProviders bounds how many provider sketches each shard window (and
	// the baseline set) tracks; excess providers' samples are dropped and
	// counted (PopulationSamplesDropped). With the fixed-size sketches this
	// makes population memory a hard ceiling: see PopulationStatus.
	// SketchMemoryBytes. Default 64.
	MaxProviders int
}

// normalized fills zero fields with defaults.
func (c SynthesisConfig) normalized() SynthesisConfig {
	if c.Window <= 0 {
		c.Window = defaultPopWindow
	}
	if c.DegradeFactor <= 1 {
		c.DegradeFactor = defaultPopDegradeFactor
	}
	if c.Quantile <= 0 || c.Quantile >= 1 {
		c.Quantile = defaultPopQuantile
	}
	if c.MinSamples <= 0 {
		c.MinSamples = defaultPopMinSamples
	}
	if c.MinBaselineSamples <= 0 {
		c.MinBaselineSamples = c.MinSamples
	}
	if c.MaxProviders <= 0 {
		c.MaxProviders = defaultPopMaxProviders
	}
	return c
}

// WithSynthesis enables population-level detection and automatic rule
// synthesis. Without it the engine behaves exactly as before: no sketches
// are fed and the ingest path pays one nil check.
func WithSynthesis(cfg SynthesisConfig) Option {
	return func(e *Engine) { e.synthConfig = &cfg }
}

// DegradedProvider is one provider's ongoing degradation: when it was flagged
// and the quantile evidence at flag (updated each tick while it persists). The
// engine holds its episodes in this form, PopulationStatus lists them, and the
// state file's population section persists them.
type DegradedProvider struct {
	Provider string    `json:"provider"`
	Since    time.Time `json:"since"`
	// Ratio is window quantile / baseline quantile at the last tick (0 for
	// manual flags).
	Ratio      float64 `json:"ratio,omitempty"`
	BaselineMs float64 `json:"baselineMs,omitempty"`
	WindowMs   float64 `json:"windowMs,omitempty"`
	// Manual marks an operator MarkDegraded flag (never auto-recovers).
	Manual bool `json:"manual,omitempty"`
}

// popState is the engine-global population state. baseline and degraded are
// guarded by mu (a leaf lock, never taken under a shard lock); degradedSet
// is the lock-free hot-path view, nil whenever nothing is degraded.
type popState struct {
	cfg SynthesisConfig

	mu       sync.Mutex
	baseline map[string]*stats.QuantileSketch
	hh       *stats.HeavyHitters
	degraded map[string]*DegradedProvider

	degradedSet atomic.Pointer[map[string]*DegradedProvider]
	nextTick    atomic.Int64
}

// episodesLocked copies the degraded-provider episodes out sorted by provider,
// nil when there are none: the one listing PopulationStatus and the state
// file's population section both render. Caller holds p.mu.
func (p *popState) episodesLocked() []DegradedProvider {
	if len(p.degraded) == 0 {
		return nil
	}
	out := make([]DegradedProvider, 0, len(p.degraded))
	for _, ep := range p.degraded {
		out = append(out, *ep)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Provider < out[j].Provider })
	return out
}

// initPop builds the population state from the stored config. Called by
// NewEngine after options run (so WithClock is respected).
func (e *Engine) initPop() {
	if e.synthConfig == nil {
		return
	}
	cfg := e.synthConfig.normalized()
	e.pop = &popState{
		cfg:      cfg,
		baseline: make(map[string]*stats.QuantileSketch),
		hh:       stats.NewHeavyHitters(cfg.MaxProviders),
		degraded: make(map[string]*DegradedProvider),
	}
}

// feedPopLocked feeds one report's per-server download times into the
// owning shard's provider sketches. One sample per (report, provider
// hostname): the server's small-object mean time, the same signal the MAD
// detector judges. Caller holds sh.mu for writing; no-op without synthesis.
func (e *Engine) feedPopLocked(sh *shard, servers []*report.ServerPerf) {
	if e.pop == nil {
		return
	}
	sp := sh.pop
	if sp == nil {
		sp = &shardPop{
			provs: make(map[string]*stats.QuantileSketch),
			hh:    stats.NewHeavyHitters(e.pop.cfg.MaxProviders),
		}
		sh.pop = sp
	}
	for _, s := range servers {
		if s.SmallCount == 0 {
			continue
		}
		for _, h := range s.Hosts {
			sp.hh.Add(h, 1)
			sk := sp.provs[h]
			if sk == nil {
				if len(sp.provs) >= e.pop.cfg.MaxProviders {
					e.metrics.PopulationSamplesDropped.Inc()
					continue
				}
				sk = &stats.QuantileSketch{}
				sp.provs[h] = sk
			}
			sk.Add(s.SmallMeanTimeMs)
		}
	}
}

// popTickIfDue rolls the aggregation window when it has elapsed. Driven by
// ingest (no background goroutine, so it works under a virtual clock); the
// CAS elects exactly one caller to run the tick. Callers must not hold any
// shard lock — the tick locks shards one at a time.
func (e *Engine) popTickIfDue(now time.Time) {
	if e.pop == nil {
		return
	}
	n := now.UnixNano()
	nt := e.pop.nextTick.Load()
	if nt == 0 {
		// First report arms the window; nothing to judge yet.
		e.pop.nextTick.CompareAndSwap(0, n+int64(e.pop.cfg.Window))
		return
	}
	if n < nt {
		return
	}
	if !e.pop.nextTick.CompareAndSwap(nt, n+int64(e.pop.cfg.Window)) {
		return // another caller won the tick
	}
	e.runPopTick(now)
}

// runPopTick closes the current window: it swaps every shard's sketches out
// (under that shard's lock, one at a time), merges them, judges each
// provider's window quantile against its trailing baseline, flags and
// recovers degraded providers, folds healthy windows into the baseline, and
// publishes the new degraded-provider set for the hot path.
func (e *Engine) runPopTick(now time.Time) {
	p := e.pop
	window := make(map[string]*stats.QuantileSketch)
	tickHH := stats.NewHeavyHitters(p.cfg.MaxProviders)
	for _, sh := range e.shards {
		sh.mu.Lock()
		sp := sh.pop
		if sp == nil || (len(sp.provs) == 0 && sp.hh.Len() == 0) {
			sh.mu.Unlock()
			continue
		}
		provs, hh := sp.provs, sp.hh
		sp.provs = make(map[string]*stats.QuantileSketch)
		sp.hh = stats.NewHeavyHitters(p.cfg.MaxProviders)
		sh.mu.Unlock()

		for h, sk := range provs {
			if agg := window[h]; agg != nil {
				agg.Merge(sk)
			} else {
				window[h] = sk
			}
		}
		tickHH.Merge(hh)
	}

	p.mu.Lock()
	p.hh.Merge(tickHH)

	// Judge deterministically (sorted) so trace order is stable.
	provs := make([]string, 0, len(window))
	for h := range window {
		provs = append(provs, h)
	}
	sort.Strings(provs)
	for _, h := range provs {
		ws := window[h]
		base := p.baseline[h]
		ep := p.degraded[h]
		if ws.Count() >= uint64(p.cfg.MinSamples) &&
			base != nil && base.Count() >= uint64(p.cfg.MinBaselineSamples) {
			wq := ws.Quantile(p.cfg.Quantile)
			bq := base.Quantile(p.cfg.Quantile)
			switch {
			case ep == nil && bq > 0 && wq >= p.cfg.DegradeFactor*bq:
				ep = &DegradedProvider{Provider: h, Since: now, Ratio: wq / bq, BaselineMs: bq, WindowMs: wq}
				p.degraded[h] = ep
				e.metrics.PopulationTrips.Inc()
				if e.tracing() {
					e.trace(obs.Event{Kind: obs.EventPopDegrade, Provider: h,
						Detail: fmt.Sprintf("p%.0f %.1fms vs baseline %.1fms (%.2fx)",
							p.cfg.Quantile*100, wq, bq, wq/bq)})
				}
			case ep != nil && !ep.Manual && bq > 0 && wq <= popRecoverFactor*bq:
				delete(p.degraded, h)
				ep = nil
				e.metrics.PopulationRecoveries.Inc()
				if e.tracing() {
					e.trace(obs.Event{Kind: obs.EventPopRecover, Provider: h,
						Detail: fmt.Sprintf("p%.0f %.1fms back to baseline %.1fms",
							p.cfg.Quantile*100, wq, bq)})
				}
			case ep != nil && !ep.Manual:
				// Still degraded: refresh the evidence, keep Since.
				ep.Ratio = wq / bq
				ep.BaselineMs = bq
				ep.WindowMs = wq
			}
		}
		if ep == nil {
			// Healthy providers fold their window into the baseline; a
			// degraded provider's window is discarded so the baseline never
			// chases the fault (and its baseline is frozen below).
			if base == nil {
				if len(p.baseline) >= p.cfg.MaxProviders {
					e.evictColdBaselineLocked()
				}
				if len(p.baseline) < p.cfg.MaxProviders {
					base = &stats.QuantileSketch{}
					p.baseline[h] = base
				}
			}
			if base != nil {
				base.Merge(ws)
			}
		}
	}

	// Exponential forgetting: halve every healthy baseline each window, so
	// the baseline tracks roughly the last few windows. Degraded providers'
	// baselines are frozen — they are the recovery reference. Drained
	// baselines are dropped.
	for h, base := range p.baseline {
		if _, deg := p.degraded[h]; deg {
			continue
		}
		base.Decay()
		if base.Count() == 0 {
			delete(p.baseline, h)
		}
	}

	e.publishDegradedLocked()
	p.mu.Unlock()
}

// evictColdBaselineLocked drops the lowest-weight non-degraded baseline to
// make room under MaxProviders. Caller holds p.mu.
func (e *Engine) evictColdBaselineLocked() {
	p := e.pop
	var coldest string
	var coldestCount uint64
	for h, b := range p.baseline {
		if _, deg := p.degraded[h]; deg {
			continue
		}
		if coldest == "" || b.Count() < coldestCount ||
			(b.Count() == coldestCount && h < coldest) {
			coldest, coldestCount = h, b.Count()
		}
	}
	if coldest != "" {
		delete(p.baseline, coldest)
	}
}

// publishDegradedLocked rebuilds the hot path's atomic degraded-provider
// view: nil when nothing is degraded (the common case — one pointer load
// and done), otherwise an immutable copy. Caller holds p.mu.
func (e *Engine) publishDegradedLocked() {
	p := e.pop
	if len(p.degraded) == 0 {
		p.degradedSet.Store(nil)
		return
	}
	m := make(map[string]*DegradedProvider, len(p.degraded))
	for h, ep := range p.degraded {
		cp := *ep
		m[h] = &cp
	}
	p.degradedSet.Store(&m)
}

// degraded is the published degraded-provider set, by provider: nil on
// engines without synthesis and while nothing is degraded (one pointer load),
// and never written.
func (e *Engine) degraded() map[string]*DegradedProvider {
	if e.pop == nil {
		return nil
	}
	if degp := e.pop.degradedSet.Load(); degp != nil {
		return *degp
	}
	return nil
}

// MarkDegraded manually flags a provider as population-degraded: synthesis
// treats it exactly like an automatically flagged one, but it never
// auto-recovers — only ClearDegraded lifts it. No-op without synthesis.
func (e *Engine) MarkDegraded(provider string) {
	if e.pop == nil || provider == "" {
		return
	}
	p := e.pop
	p.mu.Lock()
	if _, ok := p.degraded[provider]; !ok {
		p.degraded[provider] = &DegradedProvider{Provider: provider, Since: e.now(), Manual: true}
		e.metrics.PopulationTrips.Inc()
		if e.tracing() {
			e.trace(obs.Event{Kind: obs.EventPopDegrade, Provider: provider,
				Detail: "manually marked degraded"})
		}
	}
	e.publishDegradedLocked()
	p.mu.Unlock()
}

// ClearDegraded lifts a provider's degraded flag, manual or automatic.
// No-op without synthesis.
func (e *Engine) ClearDegraded(provider string) {
	if e.pop == nil || provider == "" {
		return
	}
	p := e.pop
	p.mu.Lock()
	if _, ok := p.degraded[provider]; ok {
		delete(p.degraded, provider)
		e.metrics.PopulationRecoveries.Inc()
		if e.tracing() {
			e.trace(obs.Event{Kind: obs.EventPopRecover, Provider: provider,
				Detail: "manually cleared"})
		}
	}
	e.publishDegradedLocked()
	p.mu.Unlock()
}

// ProviderPopulation is one provider's trailing-baseline distribution in
// PopulationStatus.
type ProviderPopulation struct {
	Provider string  `json:"provider"`
	Samples  uint64  `json:"samples"`
	P50Ms    float64 `json:"p50Ms"`
	P75Ms    float64 `json:"p75Ms"`
	P99Ms    float64 `json:"p99Ms"`
	Degraded bool    `json:"degraded,omitempty"`
}

// PopulationStatus is the population layer's externally visible state,
// served under "population" in /oak/v1/metrics and at /oak/v1/population.
type PopulationStatus struct {
	// Degraded lists currently flagged providers, sorted by provider.
	Degraded []DegradedProvider `json:"degraded,omitempty"`
	// Providers is each tracked provider's trailing-baseline distribution,
	// sorted by provider.
	Providers []ProviderPopulation `json:"providers,omitempty"`
	// TopProviders ranks providers by report appearances (space-saving
	// estimates; Error bounds the overcount).
	TopProviders []stats.HeavyHitter `json:"topProviders,omitempty"`
	// TrackedProviders is how many providers currently hold a baseline.
	TrackedProviders int `json:"trackedProviders"`
	// SketchMemoryBytes is the current population-sketch footprint: the
	// per-provider ceiling is MemoryBytes per sketch × MaxProviders ×
	// (shards + 1 baseline), all fixed-size.
	SketchMemoryBytes int `json:"sketchMemoryBytes"`
	// PopulationTrips / PopulationRecoveries count providers flagged and
	// recovered (including manual verbs).
	PopulationTrips      uint64 `json:"populationTrips"`
	PopulationRecoveries uint64 `json:"populationRecoveries"`
	// SynthesizedActivations counts rule activations created by synthesis;
	// SynthesisBlocked counts synthesis attempts the guard refused outright.
	SynthesizedActivations uint64 `json:"synthesizedActivations"`
	SynthesisBlocked       uint64 `json:"synthesisBlocked"`
	// SamplesDropped counts samples discarded by the MaxProviders cap.
	SamplesDropped uint64 `json:"samplesDropped"`
}

// PopulationStatus snapshots the population layer; ok is false on engines
// built without WithSynthesis.
func (e *Engine) PopulationStatus() (PopulationStatus, bool) {
	if e.pop == nil {
		return PopulationStatus{}, false
	}
	p := e.pop
	p.mu.Lock()
	defer p.mu.Unlock()

	st := PopulationStatus{
		TrackedProviders:       len(p.baseline),
		PopulationTrips:        e.metrics.PopulationTrips.Value(),
		PopulationRecoveries:   e.metrics.PopulationRecoveries.Value(),
		SynthesizedActivations: e.metrics.SynthesizedActivations.Value(),
		SynthesisBlocked:       e.metrics.SynthesisBlocked.Value(),
		SamplesDropped:         e.metrics.PopulationSamplesDropped.Value(),
		Degraded:               p.episodesLocked(),
	}

	baseProvs := make([]string, 0, len(p.baseline))
	for h := range p.baseline {
		baseProvs = append(baseProvs, h)
	}
	sort.Strings(baseProvs)
	var memory int
	for _, h := range baseProvs {
		b := p.baseline[h]
		_, deg := p.degraded[h]
		st.Providers = append(st.Providers, ProviderPopulation{
			Provider: h, Samples: b.Count(),
			P50Ms: b.Quantile(0.5), P75Ms: b.Quantile(0.75), P99Ms: b.Quantile(0.99),
			Degraded: deg,
		})
		memory += b.MemoryBytes()
	}
	st.SketchMemoryBytes = memory
	st.TopProviders = p.hh.Top(10)
	return st, true
}

// DegradedProviders lists currently flagged providers (nil on engines
// without synthesis). Healthz surfaces this next to open breakers.
func (e *Engine) DegradedProviders() []string {
	deg := e.degraded()
	if deg == nil {
		return nil
	}
	out := make([]string, 0, len(deg))
	for h := range deg {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// popPersisted is the population section of the state snapshot. Only the
// degraded-provider episodes persist: baselines are cheap to re-warm (a few
// windows of traffic) and deliberately restart fresh, but an ongoing
// degradation must survive a restart or the synthesized mitigation would
// lapse exactly when the engine is most fragile.
type popPersisted struct {
	Degraded []DegradedProvider `json:"degraded"`
}

// exportPop returns the population section, nil when there is nothing to
// persist (no synthesis, or no ongoing episodes) so pre-synthesis snapshots
// stay byte-identical.
func (e *Engine) exportPop() *popPersisted {
	if e.pop == nil {
		return nil
	}
	p := e.pop
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.degraded) == 0 {
		return nil
	}
	return &popPersisted{Degraded: p.episodesLocked()}
}

// importPop restores the population section. A nil section (pre-synthesis
// or legacy snapshot) imports as empty population state. No-op on engines
// without synthesis. Called from ImportState inside the all-shard-locks
// window; popState.mu is a leaf so taking it here is safe.
func (e *Engine) importPop(pp *popPersisted) {
	if e.pop == nil {
		return
	}
	p := e.pop
	p.mu.Lock()
	p.degraded = make(map[string]*DegradedProvider)
	if pp != nil {
		for _, ep := range pp.Degraded {
			if ep.Provider == "" {
				continue
			}
			p.degraded[ep.Provider] = &ep
		}
	}
	e.publishDegradedLocked()
	p.mu.Unlock()
}
