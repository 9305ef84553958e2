package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"oak/internal/guard"
	"oak/internal/htmlscan"
	"oak/internal/obs"
	"oak/internal/report"
	"oak/internal/rules"
)

// Guard wiring: population-level guardrails over the engine's own decisions.
// The per-user control loop only protects a user after they personally
// suffered a bad alternate; the guard pools alternate-provider outcomes
// across every report (plus an optional active prober) into per-provider
// circuit breakers (internal/guard) and acts engine-wide:
//
//   - every activation, advance and synthesis is one admission decision
//     (admitLocked): a full profile is skipped before any breaker is asked,
//     then the alternative is admitted only if the rule is not quarantined
//     and every provider it points at admits — an open breaker blocks it, a
//     half-open one admits it as a bounded canary, and its slot is spent
//     only when the whole alternative is admitted — and the activation
//     records the epoch it was admitted under;
//   - a rollback is an epoch, not a walk: a trip or a rule quarantine moves
//     the epoch of every (rule, alternative) pair it touches, and an
//     activation recorded under an older one is dead wherever it lives
//     (deadAt); its user's next report drops and counts it (pruneDead);
//   - the serve path isolates rewrite panics (compiled applier → sequential
//     per-rule fallback → unmodified page) and quarantines a rule implicated
//     in repeated panics.
//
// Lock discipline: the guard's own mutex is a leaf — Admit/Observe calls are
// safe under a shard lock — and no serve takes it (publishEpochs).

// GuardConfig enables and tunes the engine's guardrails (WithGuard). Zero
// fields take the guard package defaults.
type GuardConfig struct {
	// TripThreshold is how many consecutive bad population-level outcomes
	// trip a provider's breaker (default guard.DefaultTripThreshold).
	TripThreshold int
	// OpenFor is the quarantine cool-down before canaries are admitted
	// (default guard.DefaultOpenFor).
	OpenFor time.Duration
	// HalfOpenCanaries bounds canary activations per half-open episode
	// (default guard.DefaultHalfOpenCanaries).
	HalfOpenCanaries int
	// CloseAfter is how many good canary outcomes close a breaker
	// (default guard.DefaultCloseAfter).
	CloseAfter int
	// PanicThreshold is how many rewrite panics quarantine a rule
	// (default guard.DefaultPanicThreshold).
	PanicThreshold int
}

// WithGuard enables the per-provider circuit breakers and rule quarantine.
// Without it the engine behaves exactly as before (no breaker checks);
// rewrite panic isolation is always on.
func WithGuard(cfg GuardConfig) Option {
	return func(e *Engine) { e.guardConfig = &cfg }
}

// initGuard builds the guard set from the stored config. Called by NewEngine
// after options run (so WithClock is respected) and before the rule set is
// installed (so buildAltHosts sees the guard).
func (e *Engine) initGuard() {
	if e.guardConfig == nil {
		return
	}
	e.guard = guard.New(guard.Config{
		TripThreshold:    e.guardConfig.TripThreshold,
		OpenFor:          e.guardConfig.OpenFor,
		HalfOpenCanaries: e.guardConfig.HalfOpenCanaries,
		CloseAfter:       e.guardConfig.CloseAfter,
		PanicThreshold:   e.guardConfig.PanicThreshold,
		Now:              func() time.Time { return e.now() },
	})
}

// buildAltHosts precomputes rule ID → per-alternative provider host lists
// for the rule set, so neither an admission nor an epoch rescans alternative
// text. Called once, by NewEngine; no-op on guardless engines.
func (e *Engine) buildAltHosts() {
	if e.guard == nil {
		return
	}
	e.altHosts = make(map[string][][]string, len(e.rules))
	for _, r := range e.rules {
		if r.Type == rules.TypeRemove || len(r.Alternatives) == 0 {
			continue // removal has no target provider
		}
		per := make([][]string, len(r.Alternatives))
		for i := range per {
			per[i] = r.AlternativeHosts(i)
		}
		e.altHosts[r.ID] = per
	}
}

// altHostsFor returns the provider hostnames of one (rule, alternative)
// activation target, nil when there are none (Type 1 removals, host-less
// alternatives, guardless engines).
func (e *Engine) altHostsFor(ruleID string, altIdx int) []string {
	return rules.Clamp(e.altHosts[ruleID], altIdx)
}

// epochTable is every (rule, alternative) pair's current epoch: rule ID →
// per-alternative epoch, indexed as altHosts is (one entry for a rule without
// alternatives). A published table is never written.
type epochTable map[string][]uint64

// at is the current epoch of ruleID's alternative alt; a nil table (no trip
// or quarantine yet) reads 0 everywhere.
func (t *epochTable) at(ruleID string, alt int) uint64 {
	if t == nil {
		return 0
	}
	return rules.Clamp((*t)[ruleID], alt)
}

// publishEpochs rebuilds the epoch table from the guard's counts and
// publishes it, nil while every epoch is 0. It runs after every trip and
// quarantine and after an import installs guard state; epochMu keeps a
// table built from older counts from replacing a newer one.
func (e *Engine) publishEpochs() {
	e.epochMu.Lock()
	defer e.epochMu.Unlock()
	t := make(epochTable, len(e.rules))
	moved := false
	for _, r := range e.rules {
		per := e.altHosts[r.ID]
		eps := make([]uint64, max(len(per), 1))
		for i := range eps {
			eps[i] = e.guard.Epoch(r.ID, rules.Clamp(per, i))
			moved = moved || eps[i] > 0
		}
		t[r.ID] = eps
	}
	if !moved {
		e.epochs.Store(nil)
		return
	}
	e.epochs.Store(&t)
}

// squareImport holds what an import installs, and on a boot the segment log,
// to the guard's counts: no activation may sit above its pair's epoch, where
// the next trip would move the epoch only up to it. On a boot the records are
// the engine's own, one above was admitted under counts a crash lost after the
// last save, and the guard is lifted to it (guard.Set.Lift); any other payload
// contradicts its own guard section with one, and it is dropped. A boot reads
// no record here: recovery kept the epochs of the records that hold a ref as
// it walked them (spillStore.lifts). Caller holds every shard lock, or is
// NewEngine.
func (e *Engine) squareImport(fresh []map[string]*Profile, boot bool) {
	lift := func(ruleID string, alt int, epoch uint64) {
		if _, known := e.rulesByID[ruleID]; known {
			e.guard.Lift(ruleID, e.altHostsFor(ruleID, alt), epoch)
		}
	}
	if boot && e.spill != nil {
		for p, epoch := range e.spill.lifts {
			lift(p.rule, p.alt, epoch)
		}
	}
	e.publishEpochs()
	ep := e.epochs.Load()
	for _, profs := range fresh {
		for _, prof := range profs {
			for id, a := range prof.active {
				if boot {
					lift(id, a.AltIndex, a.Epoch)
				} else if a.Epoch > ep.at(id, a.AltIndex) {
					delete(prof.active, id)
					prof.sizeEst = prof.estimateSize()
				}
			}
		}
	}
	e.publishEpochs()
}

// admitLocked is the one admission decision: may the user whose profile is
// prof take an activation of rule, triggered by server, onto alternative pref
// or — when fallback is set — the first of the rule's others, in order, that
// the guard admits whole (guard.Set.Admit)? A full profile is refused first
// and silently: roomFor has no side effect, so no breaker is asked and no
// slot is spent. An admitted canary is counted and traced here, as the canary
// of site. It returns the admitted alternative and the epoch it was admitted
// under, or -1 with blockedBy naming what refused pref ("" for a full
// profile, which is not counted as blocked). Caller holds prof's shard lock
// for writing (the guard mutex is a leaf).
func (e *Engine) admitLocked(prof *Profile, rule *rules.Rule, server string, now time.Time, site string, pref int, fallback bool) (alt int, epoch uint64, blockedBy string) {
	if !prof.roomFor(rule, server) {
		return -1, 0, ""
	}
	if e.guard == nil {
		return pref, 0, ""
	}
	// i = -1 asks for pref; with fallback, the others follow in order.
	for i := -1; i < len(rule.Alternatives) && (i < 0 || fallback); i++ {
		alt := i
		if i < 0 {
			alt = pref
		} else if i == pref {
			continue
		}
		epoch, canary, by := e.guard.Admit(rule.ID, e.altHostsFor(rule.ID, alt))
		if by != "" {
			if blockedBy == "" {
				blockedBy = by
			}
			continue
		}
		if canary {
			e.metrics.CanaryActivations.Inc()
			if e.tracing() {
				e.traceAt(now, obs.Event{
					Kind: obs.EventCanary, User: prof.UserID, RuleID: rule.ID,
					Detail: fmt.Sprintf("canary %s through half-open breaker, alt %d", site, alt),
				})
			}
		}
		return alt, epoch, ""
	}
	return -1, 0, blockedBy
}

// providerOutcome is one population-level signal extracted from a report
// under the shard lock and observed after it is released.
type providerOutcome struct {
	provider string
	good     bool
	deltaMs  float64
}

// collectOutcomes derives per-provider outcomes from one report for the
// user's activations, which pruneDead has left live, sorted by provider: a
// provider an active alternative points at is bad, with its largest violation
// distance, when a server of it was flagged as a violator in this report —
// partial failure is failure for the user hit by it — and good when every
// server of it answered unremarkably. Providers the report never touched
// yield nothing. Must run before reconciliation mutates the profile; caller
// holds sh.mu.
func (e *Engine) collectOutcomes(prof *Profile, servers []*report.ServerPerf, violations []Violation) []providerOutcome {
	if e.guard == nil || len(prof.active) == 0 {
		return nil
	}
	var out []providerOutcome
	for _, a := range prof.active {
		for _, h := range e.altHostsFor(a.Rule.ID, a.AltIndex) {
			for _, s := range servers {
				if !s.HasHost(h) {
					continue
				}
				i, found := slices.BinarySearchFunc(out, h, func(o providerOutcome, h string) int {
					return cmp.Compare(o.provider, h)
				})
				if !found {
					out = slices.Insert(out, i, providerOutcome{provider: h, good: true})
				}
				for _, v := range violations {
					if v.Server.Addr == s.Addr {
						out[i].good = false
						out[i].deltaMs = max(out[i].deltaMs, v.Distance)
					}
				}
			}
		}
	}
	return out
}

// ObserveProviderOutcome feeds one population-level outcome for an alternate
// provider into its breaker and acts on the resulting transition: a trip
// (or half-open reopen) rolls back every activation pointing at the
// provider by moving its epochs; a close re-admits it. This is also the sink
// the active prober reports through, so probe results and user reports drive
// the same machinery. No-op on guardless engines.
func (e *Engine) ObserveProviderOutcome(provider string, good bool, deltaMs float64) {
	if e.guard == nil || provider == "" {
		return
	}
	switch e.guard.Observe(provider, good, deltaMs) {
	case guard.TransitionTrip, guard.TransitionReopen:
		e.tripProvider(provider, fmt.Sprintf("breaker tripped (delta %.1fms)", deltaMs))
	case guard.TransitionClose:
		e.metrics.BreakerCloses.Inc()
		if e.tracing() {
			e.trace(obs.Event{Kind: obs.EventReadmit, Provider: provider,
				Detail: "breaker closed after good canary outcomes"})
		}
	}
}

// tripProvider does the engine-side bookkeeping of a breaker trip: metrics,
// trace, and the epochs that roll back every activation onto the provider.
func (e *Engine) tripProvider(provider, detail string) {
	e.metrics.BreakerTrips.Inc()
	if e.tracing() {
		e.trace(obs.Event{Kind: obs.EventQuarantine, Provider: provider, Detail: detail})
	}
	e.publishEpochs()
}

// noteRulePanic attributes one rewrite panic to a rule and, when the panic
// count crosses the quarantine threshold, quarantines the rule and rolls its
// activations back — moves its epochs — before returning. No-op on guardless
// engines — panic isolation still serves the safe page, there is just no
// quarantine ledger.
func (e *Engine) noteRulePanic(ruleID string) {
	if e.guard == nil || ruleID == "" {
		return
	}
	if !e.guard.ObserveRulePanic(ruleID) {
		return
	}
	e.metrics.RuleQuarantines.Inc()
	if e.tracing() {
		e.trace(obs.Event{Kind: obs.EventQuarantine, RuleID: ruleID,
			Detail: "rule quarantined after repeated rewrite panics"})
	}
	e.publishEpochs()
}

// QuarantineProvider trips the provider's breaker manually (operator
// override). Existing activations on the provider are rolled back exactly as
// on an automatic trip. No-op on guardless engines.
func (e *Engine) QuarantineProvider(provider string) {
	if e.guard == nil || provider == "" {
		return
	}
	if e.guard.ForceOpen(provider) {
		e.tripProvider(provider, "manual quarantine")
	}
}

// ReleaseProvider force-closes the provider's breaker (operator override);
// what its trips rolled back stays rolled back. No-op on guardless engines.
func (e *Engine) ReleaseProvider(provider string) {
	if e.guard == nil || provider == "" {
		return
	}
	if e.guard.ForceClose(provider) {
		e.metrics.BreakerCloses.Inc()
		if e.tracing() {
			e.trace(obs.Event{Kind: obs.EventReadmit, Provider: provider,
				Detail: "manual release"})
		}
	}
}

// QuarantineRule quarantines a rule manually, rolling back its activations.
// No-op on guardless engines.
func (e *Engine) QuarantineRule(ruleID string) {
	if e.guard == nil || ruleID == "" {
		return
	}
	if !e.guard.QuarantineRule(ruleID) {
		return
	}
	e.metrics.RuleQuarantines.Inc()
	if e.tracing() {
		e.trace(obs.Event{Kind: obs.EventQuarantine, RuleID: ruleID,
			Detail: "manual rule quarantine"})
	}
	e.publishEpochs()
}

// ReleaseRule lifts a rule's quarantine, not its rollbacks. No-op without a guard.
func (e *Engine) ReleaseRule(ruleID string) {
	if e.guard == nil {
		return
	}
	e.guard.ReleaseRule(ruleID)
}

// GuardStatus is the guard's externally visible state, served under "guard"
// in /oak/v1/metrics.
type GuardStatus struct {
	// Breakers is every tracked provider breaker, sorted by provider.
	Breakers []guard.ProviderStatus `json:"breakers,omitempty"`
	// Quarantines lists providers whose breakers are open.
	Quarantines []string `json:"quarantines,omitempty"`
	// QuarantinedRules lists rules quarantined after rewrite panics (or
	// manually).
	QuarantinedRules []string `json:"quarantined_rules,omitempty"`
	// CanaryActivations counts activations admitted through half-open
	// canary budgets.
	CanaryActivations uint64 `json:"canary_activations"`
	// RewritePanics counts panics recovered on the serve path.
	RewritePanics uint64 `json:"rewrite_panics"`
}

// GuardStatus snapshots the guard state; ok is false on guardless engines.
func (e *Engine) GuardStatus() (GuardStatus, bool) {
	if e.guard == nil {
		return GuardStatus{}, false
	}
	return GuardStatus{
		Breakers:          e.guard.Snapshot(),
		Quarantines:       e.guard.OpenProviders(),
		QuarantinedRules:  e.guard.QuarantinedRules(),
		CanaryActivations: e.metrics.CanaryActivations.Value(),
		RewritePanics:     e.metrics.RewritePanics.Value(),
	}, true
}

// OpenBreakers lists providers currently quarantined by an open breaker
// (nil on guardless engines). Healthz surfaces this.
func (e *Engine) OpenBreakers() []string {
	if e.guard == nil {
		return nil
	}
	return e.guard.OpenProviders()
}

// AlternateProviders maps each alternate provider hostname referenced by the
// rule set to candidate probe URLs found in the alternatives' text. This is
// the prober's target set: probing these URLs exercises exactly the providers
// the guard gates activations on. Providers mentioned without a full URL get a
// synthesized "http://host/" probe target.
func (e *Engine) AlternateProviders() map[string][]string {
	out := make(map[string][]string)
	for _, r := range e.rules {
		if r.Type == rules.TypeRemove {
			continue
		}
		for i, alt := range r.Alternatives {
			for _, u := range htmlscan.URLsInText(alt) {
				h := htmlscan.HostOf(u)
				if h == "" {
					continue
				}
				if !slices.Contains(out[h], u) {
					out[h] = append(out[h], u)
				}
			}
			for _, h := range r.AlternativeHosts(i) {
				if len(out[h]) == 0 {
					out[h] = append(out[h], "http://"+h+"/")
				}
			}
		}
	}
	return out
}
