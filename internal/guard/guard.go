// Package guard implements population-level guardrails for Oak's own
// interventions: per-provider circuit breakers and self-healing rule
// quarantine.
//
// Oak's control loop (paper §4.2.3) is strictly per-user — a user must
// personally suffer a bad rewrite before the engine deactivates their rule.
// When an alternate provider dies globally, that loop converges one painful
// report at a time, activating *new* users onto the dead provider all the
// while. The guard closes that gap with aggregate state: outcomes for an
// alternate provider are pooled across every user (and an optional active
// prober, see Prober), and a provider that accumulates enough consecutive
// bad outcomes trips a breaker.
//
// Breaker lifecycle (classic closed → open → half-open):
//
//	closed:    activations flow freely. Consecutive bad outcomes count
//	           toward TripThreshold; any good outcome resets the count.
//	open:      tripped. No activations are admitted, and the trip count
//	           moves: every activation admitted onto the provider before it
//	           is dead (see Epoch). After OpenFor elapses the breaker moves
//	           to half-open on its next consultation.
//	half-open: at most HalfOpenCanaries activations are admitted as
//	           canaries. CloseAfter good observed outcomes close the
//	           breaker; a single bad outcome reopens it (fresh cool-down).
//
// The same Set also quarantines rules implicated in rewrite panics: a rule
// whose application panics PanicThreshold times is quarantined — skipped on
// the serve path and refused new activations — until released.
//
// A rollback is an epoch, not a walk: a breaker counts its trips and a rule
// its quarantines for its whole life — a close or a release keeps the count —
// so the epoch of a (rule, alternative) pair, the rule's quarantines plus the
// trips of every provider the alternative names, only grows. Admit returns
// the epoch it admitted under; an activation recorded under an older epoch
// than its pair's current one is dead, wherever the caller keeps it.
//
// A Set only aggregates and decides; it never touches engine state itself.
// Callers act on the returned Transition (trip ⇒ publish the new epochs),
// which keeps the Set's mutex a leaf lock — safe to consult from under any
// engine lock.
package guard

import (
	"sort"
	"sync"
	"time"
)

// State is one breaker's position in the closed → open → half-open cycle.
type State int

const (
	// Closed admits every activation (the healthy steady state).
	Closed State = iota
	// Open admits nothing: the provider is quarantined.
	Open
	// HalfOpen admits a bounded number of canary activations to test
	// whether the provider recovered.
	HalfOpen
)

// String names the state as it appears in metrics and snapshots.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// parseState inverts String; unknown input parses as Closed (a snapshot from
// a future format degrades to "no quarantine" rather than failing the load).
func parseState(s string) State {
	switch s {
	case "open":
		return Open
	case "half-open":
		return HalfOpen
	default:
		return Closed
	}
}

// Transition is what an observed outcome did to a breaker. The caller acts
// on it: a trip or reopen moves the epoch of every pair on the provider.
type Transition int

const (
	// TransitionNone: the breaker did not change state.
	TransitionNone Transition = iota
	// TransitionTrip: closed → open. The provider crossed TripThreshold
	// consecutive bad outcomes and is now quarantined.
	TransitionTrip
	// TransitionReopen: half-open → open. A canary outcome was bad; the
	// provider goes back into quarantine with a fresh cool-down.
	TransitionReopen
	// TransitionClose: half-open → closed. Enough canary outcomes were
	// good; the provider is re-admitted.
	TransitionClose
)

// Config tunes a Set. Zero fields take the defaults.
type Config struct {
	// TripThreshold is how many consecutive bad outcomes (pooled across
	// all users) trip a provider's breaker. Default 5.
	TripThreshold int
	// OpenFor is the quarantine cool-down: how long an open breaker waits
	// before admitting canaries. Default 30s.
	OpenFor time.Duration
	// HalfOpenCanaries bounds how many canary activations a half-open
	// breaker admits per episode. Default 3.
	HalfOpenCanaries int
	// CloseAfter is how many good outcomes a half-open breaker needs to
	// close. Default 2.
	CloseAfter int
	// PanicThreshold is how many rewrite panics quarantine a rule.
	// Default 3.
	PanicThreshold int
	// Now overrides the clock (tests, simulation). Default time.Now.
	Now func() time.Time
}

// Defaults for Config's zero fields.
const (
	DefaultTripThreshold    = 5
	DefaultOpenFor          = 30 * time.Second
	DefaultHalfOpenCanaries = 3
	DefaultCloseAfter       = 2
	DefaultPanicThreshold   = 3
)

// normalized fills zero fields with defaults.
func (c Config) normalized() Config {
	if c.TripThreshold <= 0 {
		c.TripThreshold = DefaultTripThreshold
	}
	if c.OpenFor <= 0 {
		c.OpenFor = DefaultOpenFor
	}
	if c.HalfOpenCanaries <= 0 {
		c.HalfOpenCanaries = DefaultHalfOpenCanaries
	}
	if c.CloseAfter <= 0 {
		c.CloseAfter = DefaultCloseAfter
	}
	if c.PanicThreshold <= 0 {
		c.PanicThreshold = DefaultPanicThreshold
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// breaker is one provider's aggregate state.
type breaker struct {
	state          State
	consecutiveBad int
	openedAt       time.Time
	halfOpenGood   int
	canariesUsed   int
	trips          uint64 // lifetime trip count (incl. reopens); never reset
	lastDeltaMs    float64
}

// ruleHealth tracks rewrite panics attributed to one rule.
type ruleHealth struct {
	panics      int
	quarantined bool
	quarantines uint64 // lifetime quarantine count, plus Lift's raises; never reset
}

// Set is a collection of per-provider breakers plus the rule-quarantine
// table, guarded by one mutex. All methods are safe for concurrent use, and
// none ever calls out while holding the mutex — the Set is a leaf lock.
type Set struct {
	mu       sync.Mutex
	cfg      Config
	breakers map[string]*breaker
	rules    map[string]*ruleHealth
}

// New builds a Set with the given configuration.
func New(cfg Config) *Set {
	return &Set{
		cfg:      cfg.normalized(),
		breakers: make(map[string]*breaker),
		rules:    make(map[string]*ruleHealth),
	}
}

// Admit is the one admission decision for an activation of ruleID onto an
// alternative whose providers are providers. The rule must not be
// quarantined and every provider's breaker must admit: closed (or unknown)
// admits freely, open admits nothing until its cool-down elapses, half-open
// admits while it has canary slots left. The decision is all or nothing: a
// canary slot is spent on each half-open provider only when every provider
// admits, so a refused activation spends nothing. canary marks an admission
// that spent a slot; blockedBy names the refusal ("rule:<id>" or the first
// provider that refused) and is "" exactly when the activation is admitted;
// epoch is the pair's epoch the admission was decided under.
func (s *Set) Admit(ruleID string, providers []string) (epoch uint64, canary bool, blockedBy string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rh := s.rules[ruleID]; rh != nil && rh.quarantined {
		return 0, false, "rule:" + ruleID
	}
	for _, p := range providers {
		b := s.breakers[p]
		if b == nil {
			continue
		}
		s.advanceLocked(b)
		switch {
		case b.state == Open, b.state == HalfOpen && b.canariesUsed >= s.cfg.HalfOpenCanaries:
			return 0, false, p
		case b.state == HalfOpen:
			canary = true
		}
	}
	if canary {
		for _, p := range providers {
			if b := s.breakers[p]; b != nil && b.state == HalfOpen {
				b.canariesUsed++
			}
		}
	}
	return s.epochLocked(ruleID, providers), canary, ""
}

// Epoch is the current epoch of an activation of ruleID onto an alternative
// whose providers are providers: the rule's lifetime quarantines plus each
// provider's lifetime trips. It only grows, and it moves exactly when a trip
// or a quarantine must roll such an activation back.
func (s *Set) Epoch(ruleID string, providers []string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epochLocked(ruleID, providers)
}

// Lift raises ruleID's quarantine count so that the epoch of ruleID onto
// providers is at least epoch, reporting whether it moved. It squares the
// counts with an activation recorded under counts the Set never saw — ones a
// crash lost after the last export — so that the next trip or quarantine
// moves the pair's epoch past it. The rule is not quarantined by it, and the
// rule's other alternatives' epochs move with it.
func (s *Set) Lift(ruleID string, providers []string, epoch uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.epochLocked(ruleID, providers)
	if cur >= epoch {
		return false
	}
	rh := s.rules[ruleID]
	if rh == nil {
		rh = &ruleHealth{}
		s.rules[ruleID] = rh
	}
	rh.quarantines += epoch - cur
	return true
}

func (s *Set) epochLocked(ruleID string, providers []string) uint64 {
	var n uint64
	if rh := s.rules[ruleID]; rh != nil {
		n = rh.quarantines
	}
	for _, p := range providers {
		if b := s.breakers[p]; b != nil {
			n += b.trips
		}
	}
	return n
}

// Observe feeds one population-level outcome for a provider: good reports a
// load (or probe) that went fine, bad one where the provider violated;
// deltaMs is the latency distance that judged it (informational). The
// returned Transition tells the caller what to do — a trip or reopen moves
// the epoch of every pair on the provider.
func (s *Set) Observe(provider string, good bool, deltaMs float64) Transition {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.breakers[provider]
	if b == nil {
		if good {
			return TransitionNone // nothing tracked, nothing to reset
		}
		b = &breaker{}
		s.breakers[provider] = b
	}
	b.lastDeltaMs = deltaMs
	s.advanceLocked(b)
	switch b.state {
	case Closed:
		if good {
			b.consecutiveBad = 0
			return TransitionNone
		}
		b.consecutiveBad++
		if b.consecutiveBad >= s.cfg.TripThreshold {
			s.openLocked(b)
			return TransitionTrip
		}
		return TransitionNone
	case Open:
		// Outcomes while open are stale: they describe loads begun before
		// the trip. The cool-down decides what happens next.
		return TransitionNone
	default: // HalfOpen: every outcome is canary evidence
		if good {
			b.halfOpenGood++
			if b.halfOpenGood >= s.cfg.CloseAfter {
				*b = breaker{trips: b.trips, lastDeltaMs: b.lastDeltaMs}
				return TransitionClose
			}
			return TransitionNone
		}
		s.openLocked(b)
		return TransitionReopen
	}
}

// advanceLocked moves an open breaker whose cool-down elapsed to half-open.
func (s *Set) advanceLocked(b *breaker) {
	if b.state == Open && s.cfg.Now().Sub(b.openedAt) >= s.cfg.OpenFor {
		b.state = HalfOpen
		b.halfOpenGood = 0
		b.canariesUsed = 0
	}
}

// openLocked (re)opens a breaker with a fresh cool-down.
func (s *Set) openLocked(b *breaker) {
	b.state = Open
	b.openedAt = s.cfg.Now()
	b.consecutiveBad = 0
	b.halfOpenGood = 0
	b.canariesUsed = 0
	b.trips++
}

// ForceOpen trips the provider's breaker unconditionally (manual quarantine
// override). It reports whether the breaker was not already open — when
// true, the trip count moved, exactly as after TransitionTrip.
func (s *Set) ForceOpen(provider string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.breakers[provider]
	if b == nil {
		b = &breaker{}
		s.breakers[provider] = b
	}
	s.advanceLocked(b) // an elapsed cool-down is half-open: reopen it
	if b.state == Open {
		return false
	}
	s.openLocked(b)
	return true
}

// ForceClose resets the provider's breaker to closed (manual re-admission
// override), reporting whether there was a non-closed breaker to reset. The
// trip count stays: what the trips rolled back stays rolled back.
func (s *Set) ForceClose(provider string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.breakers[provider]
	if b == nil || b.state == Closed {
		if b != nil {
			b.consecutiveBad = 0
		}
		return false
	}
	*b = breaker{trips: b.trips}
	return true
}

// State reports the provider's current breaker state (Closed for providers
// never observed).
func (s *Set) State(provider string) State {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.breakers[provider]
	if b == nil {
		return Closed
	}
	s.advanceLocked(b)
	return b.state
}

// OpenProviders lists the providers whose breakers are open, sorted.
func (s *Set) OpenProviders() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for p, b := range s.breakers {
		s.advanceLocked(b)
		if b.state == Open {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// ProviderStatus is one breaker's state for metrics surfaces.
type ProviderStatus struct {
	Provider       string  `json:"provider"`
	State          string  `json:"state"`
	ConsecutiveBad int     `json:"consecutive_bad,omitempty"`
	HalfOpenGood   int     `json:"half_open_good,omitempty"`
	CanariesUsed   int     `json:"canaries_used,omitempty"`
	Trips          uint64  `json:"trips,omitempty"`
	LastDeltaMs    float64 `json:"last_delta_ms,omitempty"`
	// OpenForMs is how long the breaker has been open (open state only).
	OpenForMs float64 `json:"open_for_ms,omitempty"`
}

// Snapshot returns every tracked breaker's status, sorted by provider.
func (s *Set) Snapshot() []ProviderStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ProviderStatus, 0, len(s.breakers))
	for p, b := range s.breakers {
		s.advanceLocked(b)
		ps := ProviderStatus{
			Provider:       p,
			State:          b.state.String(),
			ConsecutiveBad: b.consecutiveBad,
			HalfOpenGood:   b.halfOpenGood,
			CanariesUsed:   b.canariesUsed,
			Trips:          b.trips,
			LastDeltaMs:    b.lastDeltaMs,
		}
		if b.state == Open {
			ps.OpenForMs = float64(s.cfg.Now().Sub(b.openedAt)) / float64(time.Millisecond)
		}
		out = append(out, ps)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Provider < out[j].Provider })
	return out
}

// ObserveRulePanic records one rewrite panic attributed to a rule. It
// reports true exactly when this panic crosses PanicThreshold and
// quarantines the rule — its quarantine count, and so its epochs, moved.
func (s *Set) ObserveRulePanic(ruleID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	rh := s.rules[ruleID]
	if rh == nil {
		rh = &ruleHealth{}
		s.rules[ruleID] = rh
	}
	rh.panics++
	if rh.quarantined || rh.panics < s.cfg.PanicThreshold {
		return false
	}
	rh.quarantined = true
	rh.quarantines++
	return true
}

// QuarantineRule quarantines a rule unconditionally (manual override),
// reporting whether it was not already quarantined.
func (s *Set) QuarantineRule(ruleID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	rh := s.rules[ruleID]
	if rh == nil {
		rh = &ruleHealth{}
		s.rules[ruleID] = rh
	}
	if rh.quarantined {
		return false
	}
	rh.quarantined = true
	rh.quarantines++
	return true
}

// ReleaseRule lifts a rule's quarantine and resets its panic count. The
// quarantine count stays: what the quarantines rolled back stays rolled back.
func (s *Set) ReleaseRule(ruleID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rh := s.rules[ruleID]; rh != nil && rh.quarantines > 0 {
		*rh = ruleHealth{quarantines: rh.quarantines}
	} else {
		delete(s.rules, ruleID)
	}
}

// RuleQuarantined reports whether the rule is quarantined.
func (s *Set) RuleQuarantined(ruleID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	rh := s.rules[ruleID]
	return rh != nil && rh.quarantined
}

// QuarantinedRules lists quarantined rule IDs, sorted.
func (s *Set) QuarantinedRules() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for id, rh := range s.rules {
		if rh.quarantined {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Persisted is the guard state as stored inside an engine snapshot. Only
// breakers that deviate from the healthy steady state or have ever tripped,
// and rules with panic or quarantine history, are included, so a guard with
// nothing to say exports nil and the snapshot is byte-identical to one from
// an engine without a guard.
type Persisted struct {
	Breakers []PersistedBreaker `json:"breakers,omitempty"`
	Rules    []PersistedRule    `json:"rules,omitempty"`
}

// PersistedBreaker is one breaker's durable state.
type PersistedBreaker struct {
	Provider       string    `json:"provider"`
	State          string    `json:"state"`
	ConsecutiveBad int       `json:"consecutiveBad,omitempty"`
	OpenedAt       time.Time `json:"openedAt"`
	HalfOpenGood   int       `json:"halfOpenGood,omitempty"`
	CanariesUsed   int       `json:"canariesUsed,omitempty"`
	// Trips is the lifetime trip count, omitted at its least (see least):
	// a breaker persisted open or half-open before the count existed reads
	// as tripped once, so an activation written then onto it reads as dead.
	Trips uint64 `json:"trips,omitempty"`
}

// PersistedRule is one rule's durable panic-quarantine state.
type PersistedRule struct {
	RuleID      string `json:"ruleId"`
	Panics      int    `json:"panics,omitempty"`
	Quarantined bool   `json:"quarantined,omitempty"`
	// Quarantines is the lifetime quarantine count, plus what Lift raised
	// it by; omitted at its least, as PersistedBreaker.Trips is.
	Quarantines uint64 `json:"quarantines,omitempty"`
}

// least is the least lifetime count of a breaker that is not closed, or of
// a quarantined rule, held: one gets there only by a trip or a quarantine.
// Export omits a count at its least, and Import reads one below it — written
// before counts were persisted — as it.
func least(held bool) uint64 {
	if held {
		return 1
	}
	return 0
}

// Export captures the durable guard state, or nil when there is none (every
// breaker closed, quiet and never tripped; no rule panic or quarantine
// history).
func (s *Set) Export() *Persisted {
	s.mu.Lock()
	defer s.mu.Unlock()
	var p Persisted
	for name, b := range s.breakers {
		if b.state == Closed && b.consecutiveBad == 0 && b.trips == 0 {
			continue
		}
		pb := PersistedBreaker{
			Provider:       name,
			State:          b.state.String(),
			ConsecutiveBad: b.consecutiveBad,
			OpenedAt:       b.openedAt,
			HalfOpenGood:   b.halfOpenGood,
			CanariesUsed:   b.canariesUsed,
		}
		if b.trips != least(b.state != Closed) {
			pb.Trips = b.trips
		}
		p.Breakers = append(p.Breakers, pb)
	}
	for id, rh := range s.rules {
		if rh.panics == 0 && !rh.quarantined && rh.quarantines == 0 {
			continue
		}
		pr := PersistedRule{RuleID: id, Panics: rh.panics, Quarantined: rh.quarantined}
		if rh.quarantines != least(rh.quarantined) {
			pr.Quarantines = rh.quarantines
		}
		p.Rules = append(p.Rules, pr)
	}
	if len(p.Breakers) == 0 && len(p.Rules) == 0 {
		return nil
	}
	sort.Slice(p.Breakers, func(i, j int) bool { return p.Breakers[i].Provider < p.Breakers[j].Provider })
	sort.Slice(p.Rules, func(i, j int) bool { return p.Rules[i].RuleID < p.Rules[j].RuleID })
	return &p
}

// Import replaces the Set's state with a previously exported one; nil (the
// empty export, and what legacy snapshots decode to) clears it. With
// keepCounts each trip and quarantine count becomes the larger of the two
// sides' instead: the caller keeps activations admitted under this Set's
// counts, and no import may bring back one a trip or quarantine of either
// side rolled back.
func (s *Set) Import(p *Persisted, keepCounts bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	oldBreakers, oldRules := s.breakers, s.rules
	if !keepCounts {
		oldBreakers, oldRules = nil, nil
	}
	s.breakers = make(map[string]*breaker)
	s.rules = make(map[string]*ruleHealth)
	if p != nil {
		for _, pb := range p.Breakers {
			if pb.Provider == "" {
				continue
			}
			st := parseState(pb.State)
			s.breakers[pb.Provider] = &breaker{
				state:          st,
				consecutiveBad: pb.ConsecutiveBad,
				openedAt:       pb.OpenedAt,
				halfOpenGood:   pb.HalfOpenGood,
				canariesUsed:   pb.CanariesUsed,
				trips:          max(pb.Trips, least(st != Closed)),
			}
		}
		for _, pr := range p.Rules {
			if pr.RuleID == "" {
				continue
			}
			s.rules[pr.RuleID] = &ruleHealth{panics: pr.Panics, quarantined: pr.Quarantined,
				quarantines: max(pr.Quarantines, least(pr.Quarantined))}
		}
	}
	for name, old := range oldBreakers {
		if b := s.breakers[name]; b != nil {
			b.trips = max(b.trips, old.trips)
		} else if old.trips > 0 {
			s.breakers[name] = &breaker{trips: old.trips}
		}
	}
	for id, old := range oldRules {
		if rh := s.rules[id]; rh != nil {
			rh.quarantines = max(rh.quarantines, old.quarantines)
		} else if old.quarantines > 0 {
			s.rules[id] = &ruleHealth{quarantines: old.quarantines}
		}
	}
}
