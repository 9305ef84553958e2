package core

import (
	"fmt"
	"sort"
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
//   - every activation (and alternative advance) consults the target
//     provider's breaker first — an open breaker blocks it, a half-open one
//     admits it as a bounded canary;
//   - a breaker trip bulk-deactivates all existing activations pointing at
//     the provider: one pass over the resident profiles, shard by shard
//     (rollbackWhere — the same pass a rule quarantine makes); spilled users
//     are filtered when their record is read (spillActivationBarred);
//   - the serve path isolates rewrite panics (compiled applier → sequential
//     per-rule fallback → unmodified page) and quarantines a rule implicated
//     in repeated panics.
//
// Lock discipline: the guard's own mutex is a leaf — Allow/observe calls are
// safe under a shard lock — but acting on a trip locks shards one at a time,
// so ObserveProviderOutcome must only ever be called with NO shard lock
// held. process() therefore collects outcomes under the shard lock and
// observes them after unlocking.

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

// altHostsOf extracts the provider hostnames an alternative's text points at
// (src/href attributes plus free-text host mentions — the same surfaces
// MatchesAlternate recognises).
func altHostsOf(alt string) []string {
	if alt == "" {
		return nil
	}
	seen := make(map[string]bool)
	var hosts []string
	for _, h := range htmlscan.ExtractSrcHosts(alt) {
		if !seen[h] {
			seen[h] = true
			hosts = append(hosts, h)
		}
	}
	for _, h := range htmlscan.HostsInText(alt) {
		if !seen[h] {
			seen[h] = true
			hosts = append(hosts, h)
		}
	}
	return hosts
}

// buildAltHosts precomputes rule ID → per-alternative provider host lists
// for the rule set, so neither an activation-time breaker check nor a trip's
// rollback rescans alternative text. Called once, by NewEngine; no-op on
// guardless engines.
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
		for i, alt := range r.Alternatives {
			per[i] = altHostsOf(alt)
		}
		e.altHosts[r.ID] = per
	}
}

// altHostsFor returns the provider hostnames of one (rule, alternative)
// activation target, nil when there are none (Type 1 removals, host-less
// alternatives, guardless engines).
func (e *Engine) altHostsFor(ruleID string, altIdx int) []string {
	return clampedAlt(e.altHosts[ruleID], altIdx)
}

// clampedAlt indexes a per-alternative host table the way Rule.Alternative
// indexes the alternatives: out-of-range indexes clamp.
func clampedAlt(per [][]string, altIdx int) []string {
	if len(per) == 0 {
		return nil
	}
	if altIdx < 0 {
		altIdx = 0
	}
	if altIdx >= len(per) {
		altIdx = len(per) - 1
	}
	return per[altIdx]
}

// activationOn reports whether the activation rewrites pages onto provider:
// whether provider is among the hosts of the alternative a holds. Every
// activation is of a rule in the engine's one rule set, so the table has them.
func (e *Engine) activationOn(a *ActiveRule, provider string) bool {
	return containsString(e.altHostsFor(a.Rule.ID, a.AltIndex), provider)
}

// guardAdmit consults the guard before activating (rule, altIdx): the rule
// must not be quarantined and every provider the alternative points at must
// admit. canary marks an admission that consumed a half-open canary slot (of
// any provider). Safe under a shard lock (the guard mutex is a leaf).
func (e *Engine) guardAdmit(ruleID string, altIdx int) (admit, canary bool, blockedBy string) {
	if e.guard == nil {
		return true, false, ""
	}
	if e.guard.RuleQuarantined(ruleID) {
		return false, false, "rule:" + ruleID
	}
	for _, h := range e.altHostsFor(ruleID, altIdx) {
		d := e.guard.Allow(h)
		if !d.Admit {
			return false, canary, h
		}
		if d.Canary {
			canary = true
		}
	}
	return true, canary, ""
}

// providerOutcome is one population-level signal extracted from a report
// under the shard lock and observed after it is released.
type providerOutcome struct {
	provider string
	good     bool
	deltaMs  float64
}

// collectOutcomes derives per-provider outcomes from one report for the
// user's live activations: a provider an active alternative points at was
// either flagged as a violator in this report (bad, with the violation
// distance) or served its objects unremarkably (good). Providers the report
// never touched yield nothing. Must run before reconciliation mutates the
// profile; caller holds sh.mu.
func (e *Engine) collectOutcomes(prof *Profile, now time.Time, servers []*report.ServerPerf, violated map[string]float64) []providerOutcome {
	if e.guard == nil || len(prof.active) == 0 {
		return nil
	}
	type agg struct {
		good    bool
		bad     bool
		deltaMs float64
	}
	byProv := make(map[string]*agg)
	for _, a := range prof.active {
		if a.Expired(now) {
			continue
		}
		for _, h := range e.altHostsFor(a.Rule.ID, a.AltIndex) {
			for _, s := range servers {
				if !s.HasHost(h) {
					continue
				}
				g := byProv[h]
				if g == nil {
					g = &agg{}
					byProv[h] = g
				}
				if d, bad := violated[s.Addr]; bad {
					g.bad = true
					if d > g.deltaMs {
						g.deltaMs = d
					}
				} else {
					g.good = true
				}
			}
		}
	}
	if len(byProv) == 0 {
		return nil
	}
	provs := make([]string, 0, len(byProv))
	for p := range byProv {
		provs = append(provs, p)
	}
	sort.Strings(provs)
	out := make([]providerOutcome, 0, len(provs))
	for _, p := range provs {
		g := byProv[p]
		// Bad wins: one violating server on the provider outweighs another
		// answering fine (partial failure is failure for the user hit by it).
		out = append(out, providerOutcome{provider: p, good: !g.bad, deltaMs: g.deltaMs})
	}
	return out
}

// ObserveProviderOutcome feeds one population-level outcome for an alternate
// provider into its breaker and acts on the resulting transition: a trip
// (or half-open reopen) bulk-deactivates every activation pointing at the
// provider across all shards; a close re-admits it. This is also the sink
// the active prober reports through, so probe results and user reports drive
// the same machinery.
//
// Callers must not hold any shard lock: the rollback locks shards itself.
// No-op on guardless engines.
func (e *Engine) ObserveProviderOutcome(provider string, good bool, deltaMs float64) {
	if e.guard == nil || provider == "" {
		return
	}
	switch e.guard.Observe(provider, good, deltaMs) {
	case guard.TransitionTrip, guard.TransitionReopen:
		e.tripProvider(provider, fmt.Sprintf("breaker tripped (delta %.1fms)", deltaMs))
	case guard.TransitionClose:
		e.metrics.breakerCloses.Inc()
		if e.tracing() {
			e.trace(obs.Event{Kind: obs.EventReadmit, Provider: provider,
				Detail: "breaker closed after good canary outcomes"})
		}
	}
}

// tripProvider does the engine-side bookkeeping of a breaker trip: metrics,
// trace, and the cross-shard bulk rollback. Caller must not hold shard locks.
func (e *Engine) tripProvider(provider, detail string) {
	e.metrics.breakerTrips.Inc()
	if e.tracing() {
		e.trace(obs.Event{Kind: obs.EventQuarantine, Provider: provider, Detail: detail})
	}
	n := e.rollbackProvider(provider)
	if n > 0 && e.tracing() {
		e.trace(obs.Event{Kind: obs.EventRollback, Provider: provider,
			Detail: fmt.Sprintf("%d activations rolled back", n)})
	}
}

// rollbackWhere is the one bulk deactivation: it removes every activation of
// a resident profile that match selects, shard by shard, each shard
// write-locked only for the pass over its own profiles, and returns how many
// it removed. ev is the per-user trace event's template (provider, detail);
// user and rule are filled in. A profile's activations live in the profile
// and nowhere else, so the pass is a walk of sh.profiles: its shard hold is
// O(resident in shard), paid once per trip or quarantine. Spilled users are
// not visited — their activations are filtered when the record is next read
// (spillActivationBarred). Caller must not hold shard locks.
func (e *Engine) rollbackWhere(match func(*ActiveRule) bool, ev obs.Event) int {
	total := 0
	for _, sh := range e.shards {
		sh.mu.Lock()
		for uid, prof := range sh.profiles {
			if len(prof.active) == 0 {
				continue // most of a population: skip before a map iterator is set up
			}
			removed := 0
			for rid, a := range prof.active {
				if !match(a) {
					continue
				}
				prof.deactivate(rid)
				removed++
				if e.tracing() {
					ev.User, ev.RuleID = uid, rid
					e.trace(ev)
				}
			}
			if removed > 0 {
				e.metrics.ruleDeactivations.Add(uint64(removed))
				e.metrics.bulkDeactivations.Add(uint64(removed))
				e.noteProfileSizeLocked(sh, prof)
				total += removed
			}
		}
		sh.mu.Unlock()
	}
	return total
}

// rollbackProvider deactivates every resident activation that rewrites onto
// the provider (breaker trip).
func (e *Engine) rollbackProvider(provider string) int {
	if e.guard == nil {
		return 0
	}
	return e.rollbackWhere(
		func(a *ActiveRule) bool { return e.activationOn(a, provider) },
		obs.Event{Kind: obs.EventRollback, Provider: provider, Detail: "breaker trip"})
}

// rollbackRule deactivates the rule for every resident user holding it (rule
// quarantine).
func (e *Engine) rollbackRule(ruleID string) int {
	return e.rollbackWhere(
		func(a *ActiveRule) bool { return a.Rule.ID == ruleID },
		obs.Event{Kind: obs.EventRollback, Detail: "rule quarantine"})
}

// noteRulePanic attributes one rewrite panic to a rule and, when the panic
// count crosses the quarantine threshold, quarantines the rule and rolls its
// activations back before returning: the serve path rewrites from an immutable
// view with no shard lock held (rewriteFrom), so the rollback may take the
// write locks here. No-op on guardless engines — panic isolation still serves
// the safe page, there is just no quarantine ledger.
func (e *Engine) noteRulePanic(ruleID string) {
	if e.guard == nil || ruleID == "" {
		return
	}
	if !e.guard.ObserveRulePanic(ruleID) {
		return
	}
	e.metrics.ruleQuarantines.Inc()
	if e.tracing() {
		e.trace(obs.Event{Kind: obs.EventQuarantine, RuleID: ruleID,
			Detail: "rule quarantined after repeated rewrite panics"})
	}
	e.rollbackRule(ruleID)
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

// ReleaseProvider force-closes the provider's breaker (operator override).
// No-op on guardless engines.
func (e *Engine) ReleaseProvider(provider string) {
	if e.guard == nil || provider == "" {
		return
	}
	if e.guard.ForceClose(provider) {
		e.metrics.breakerCloses.Inc()
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
	e.metrics.ruleQuarantines.Inc()
	if e.tracing() {
		e.trace(obs.Event{Kind: obs.EventQuarantine, RuleID: ruleID,
			Detail: "manual rule quarantine"})
	}
	e.rollbackRule(ruleID)
}

// ReleaseRule lifts a rule's quarantine. No-op on guardless engines.
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
		CanaryActivations: e.metrics.canaryActivations.Value(),
		RewritePanics:     e.metrics.rewritePanics.Value(),
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
		for _, alt := range r.Alternatives {
			for _, u := range htmlscan.URLsInText(alt) {
				h := htmlscan.HostOf(u)
				if h == "" {
					continue
				}
				if !containsString(out[h], u) {
					out[h] = append(out[h], u)
				}
			}
			for _, h := range altHostsOf(alt) {
				if len(out[h]) == 0 {
					out[h] = append(out[h], "http://"+h+"/")
				}
			}
		}
	}
	return out
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
