package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"oak/internal/guard"
	"oak/internal/report"
	"oak/internal/rules"
)

// TestEngineAgreesWithModel is the engine's reference check: one seeded
// stream drives a deliberately naive engine — one map of profiles behind one
// lock, encoding/json for decode and export, rules.Apply for pages — and, in
// lockstep, a matrix of engines: shards {1, 8} × residency {none, four
// profiles and a spill directory} × wire {JSON through DecodePooled, OAKRPT1
// through DecodeBinaryPooled}. The model reuses only pure pieces tested on
// their own: DetectViolators, report.GroupByServer, Matcher, MatchesAlternate,
// Policy.SelectAlternative. The stream mixes reports and batches (some JSON
// bodies repeat or case-fold the userId key), clock steps across TTLs and
// cool-downs, outcomes, quarantines and releases of providers and rules,
// degraded marks, eviction, compaction, whole and range imports, restarts
// (one onto a smaller rule set) and crashes of the capped engines. After
// every step every engine serves each user the model's bytes and hint under
// one entity tag, waiting or not; exports the model's state byte for byte;
// and counts what the model counts.
//
// One ordering is excluded, and only one: a crash after the guard's state
// moved since the last save (crashExcluded). The checkpoint header is the
// only durable home of the breakers, quarantines and degraded marks, so a
// crashed engine boots without the move; until the guard's moves are logged
// (ROADMAP item 3(a)) no engine can agree with a model that keeps them.

// modelSeeds: seeds 1..modelSeeds run; raise it locally to hunt for failures.
const modelSeeds = 12

// modelFailedSeeds are seeds that once failed, kept whatever modelSeeds says.
var modelFailedSeeds = []uint64{
	1, // step 96: a rehydration dropped a lapsed activation uncounted (RuleExpirations)
}

func TestEngineAgreesWithModel(t *testing.T) {
	seeds := slices.Clone(modelFailedSeeds)
	for s := uint64(1); s <= modelSeeds; s++ {
		if !slices.Contains(seeds, s) {
			seeds = append(seeds, s)
		}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runModel(t, seed, 160) })
	}
}

// modelProfile is one user in the model; active holds every activation the
// user's next report has not dropped, dead or alive.
type modelProfile struct {
	violations map[string]int
	active     map[string]*persistedActivation
	last       time.Time
	version    uint64
}

// modelBreaker is one provider's breaker in the model.
type modelBreaker struct {
	state               guard.State
	bad, good, canaries int
	openedAt            time.Time
	trips               uint64 // times it opened, ever
}

// modelQuarantine is one rule's quarantine in the model.
type modelQuarantine struct {
	on    bool
	count uint64 // times quarantined, ever
}

// modelCounts are the counters an engine's Metrics must agree on.
type modelCounts struct {
	Reports, Activations, Deactivations, Expirations, Bulk      uint64
	Blocked, SynthBlocked, Canaries, Synthesized, Trips, Closes uint64
}

// model is the engine as a spec. Its methods hold mu, the one lock.
type model struct {
	mu       sync.Mutex
	cfg      GuardConfig
	now      time.Time
	rules    []*rules.Rule
	byID     map[string]*rules.Rule
	hosts    map[string][][]string // rule → alternative → providers
	policy   Policy
	matcher  *Matcher
	profiles map[string]*modelProfile
	breakers map[string]*modelBreaker
	quar     map[string]modelQuarantine
	degraded map[string]time.Time // provider → marked since
	c        modelCounts          // this process's counters
	changes  []RuleChange         // the report being handled's, in order
}

// breaker is p's breaker with an elapsed cool-down applied, nil if untracked.
func (m *model) breaker(p string) *modelBreaker {
	b := m.breakers[p]
	if b != nil && b.state == guard.Open && m.now.Sub(b.openedAt) >= m.cfg.OpenFor {
		b.state, b.good, b.canaries = guard.HalfOpen, 0, 0
	}
	return b
}

// open (re)opens p's breaker, which moves the epoch of every pair on p.
func (m *model) open(p string) {
	var trips uint64
	if b := m.breakers[p]; b != nil {
		trips = b.trips
	}
	m.breakers[p] = &modelBreaker{state: guard.Open, openedAt: m.now, trips: trips + 1}
	m.c.Trips++
}

// operator is an outcome or an operator's verb on a provider, a rule or a
// home (ObserveProviderOutcome, QuarantineProvider, … ClearDegraded).
func (m *model) operator(verb, x string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch b, q := m.breaker(x), m.quar[x]; verb {
	case "bad outcome", "good outcome":
		m.observe(x, verb == "good outcome")
	case "quarantine provider":
		if b == nil || b.state != guard.Open {
			m.open(x)
		}
	case "release provider":
		if b != nil && b.state == guard.Closed {
			b.bad = 0
		} else if b != nil {
			*b, m.c.Closes = modelBreaker{trips: b.trips}, m.c.Closes+1
		}
	case "quarantine rule":
		if !q.on {
			m.quar[x] = modelQuarantine{true, q.count + 1}
		}
	case "release rule":
		if m.quar[x] = (modelQuarantine{count: q.count}); q.count == 0 {
			delete(m.quar, x)
		}
	case "mark degraded":
		if _, on := m.degraded[x]; !on {
			m.degraded[x] = m.now
		}
	case "clear degraded":
		delete(m.degraded, x)
	}
}

// observe is one population-level outcome for provider p.
func (m *model) observe(p string, good bool) {
	b := m.breaker(p)
	switch {
	case b == nil && !good:
		b = &modelBreaker{}
		m.breakers[p] = b
		fallthrough
	case b != nil && b.state == guard.Closed:
		if b.bad++; good {
			b.bad = 0
		} else if b.bad >= m.cfg.TripThreshold {
			m.open(p)
		}
	case b != nil && b.state == guard.HalfOpen:
		if !good {
			m.open(p)
		} else if b.good++; b.good >= m.cfg.CloseAfter {
			*b, m.c.Closes = modelBreaker{trips: b.trips}, m.c.Closes+1
		}
	}
}

// providers is what rule id's alternative alt points at; out-of-range
// alternatives clamp, as Rule.Alternative does.
func (m *model) providers(id string, alt int) []string {
	if per := m.hosts[id]; len(per) > 0 {
		return per[min(max(alt, 0), len(per)-1)]
	}
	return nil
}

// epoch is the rule's quarantines plus its alternative's providers' trips.
func (m *model) epoch(id string, alt int) uint64 {
	n := m.quar[id].count
	for _, p := range m.providers(id, alt) {
		if b := m.breakers[p]; b != nil {
			n += b.trips
		}
	}
	return n
}

func (m *model) lapsed(a *persistedActivation) bool {
	return !a.ExpiresAt.IsZero() && m.now.After(a.ExpiresAt)
}

// dead says an activation is served to no one: its rule is gone, it lapsed,
// or a trip or quarantine moved its pair's epoch since it was admitted.
func (m *model) dead(a *persistedActivation) bool {
	return m.byID[a.RuleID] == nil || m.lapsed(a) || m.epoch(a.RuleID, a.AltIndex) > a.Epoch
}

func (m *model) live(p *modelProfile, id string) bool {
	return p.active[id] != nil && !m.dead(p.active[id])
}

// admit is the guard's admission of the first of alts whose rule is not
// quarantined and whose every provider admits; a half-open one spends a
// canary slot only when the whole alternative is admitted.
func (m *model) admit(r *rules.Rule, alts ...int) (alt int, epoch uint64, blocked bool) {
	for _, alt := range alts {
		var half []*modelBreaker
		ok := !m.quar[r.ID].on
		for _, p := range m.providers(r.ID, alt) {
			switch b := m.breaker(p); {
			case b == nil || b.state == guard.Closed:
			case b.state == guard.HalfOpen && b.canaries < m.cfg.HalfOpenCanaries:
				half = append(half, b)
			default:
				ok = false
			}
		}
		if !ok {
			continue
		}
		for _, b := range half {
			b.canaries++
		}
		if len(half) > 0 {
			m.c.Canaries++
		}
		return alt, m.epoch(r.ID, alt), false
	}
	return -1, 0, true
}

func (m *model) activate(p *modelProfile, r *rules.Rule, alt int, epoch uint64, server string, dist float64) *persistedActivation {
	a := p.active[r.ID]
	if a == nil {
		a = &persistedActivation{RuleID: r.ID}
		p.active[r.ID] = a
	}
	a.AltIndex, a.Epoch, a.ActivatedAt, a.ExpiresAt = alt, epoch, m.now, r.Expires(m.now)
	a.TriggerServer, a.TriggerDistance, a.Synthesized = server, dist, false
	a.Activations++
	m.c.Activations++
	return a
}

// admitNew activates rule for p, tied to server at level, onto its preferred
// alternative; a synthesized activation tries the others after it.
func (m *model) admitNew(p *modelProfile, rule *rules.Rule, uid, server string, level MatchLevel, dist float64, synth bool) {
	alts := []int{0}
	if rule.Type != rules.TypeRemove {
		alts[0] = m.policy.SelectAlternative(rule, -1, uid)
		for i := 0; synth && i < len(rule.Alternatives); i++ {
			if i != alts[0] {
				alts = append(alts, i)
			}
		}
	}
	alt, epoch, blocked := m.admit(rule, alts...)
	switch {
	case blocked && synth:
		m.c.SynthBlocked++
	case blocked:
		m.c.Blocked++
	case synth:
		m.activate(p, rule, alt, epoch, server, dist).Synthesized = true
		m.c.Synthesized++
	default:
		m.activate(p, rule, alt, epoch, server, dist)
	}
	if !blocked {
		m.changes = append(m.changes, RuleChange{RuleID: rule.ID, Action: "activate", Server: server,
			AltIndex: alt, Level: level, Synthesized: synth})
	}
}

// report is HandleReport: the report's rule changes, and false when the
// report is refused.
func (m *model) report(r *report.Report) ([]RuleChange, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.Validate() != nil {
		return nil, false
	}
	m.c.Reports++
	m.changes = nil
	servers := report.GroupByServer(r)
	viols := DetectViolators(servers, m.policy.MADMultiplier)
	p := m.profiles[r.UserID]
	if p == nil {
		p = &modelProfile{violations: map[string]int{}, active: map[string]*persistedActivation{}}
		m.profiles[r.UserID] = p
	}
	p.last, p.version = m.now, p.version+1
	// Dead activations go first, counted as expiries or rollbacks.
	for _, id := range sortedKeys(p.active) {
		if a := p.active[id]; m.dead(a) {
			delete(p.active, id)
			if m.lapsed(a) {
				m.c.Expirations++
				m.changes = append(m.changes, RuleChange{RuleID: id, Action: "expire"})
			} else {
				m.c.Bulk++
			}
		}
	}
	// Outcomes for the providers the user's activations point at.
	bad := map[string]bool{}
	for id, a := range p.active {
		for _, h := range m.providers(id, a.AltIndex) {
			for _, s := range servers {
				if s.HasHost(h) {
					bad[h] = bad[h] || slices.ContainsFunc(viols, func(v Violation) bool { return v.Server.Addr == s.Addr })
				}
			}
		}
	}
	for _, v := range viols {
		p.violations[v.Server.Addr]++
		if m.reconcile(r.UserID, p, v) || p.violations[v.Server.Addr] < m.policy.MinViolations {
			continue
		}
		for _, rule := range m.rules {
			level := m.matcher.Match(rule, v.Server, nil)
			if !rule.InScope(r.Page) || m.live(p, rule.ID) || level == MatchNone {
				continue
			}
			m.admitNew(p, rule, r.UserID, v.Server.Addr, level, v.Distance, false)
		}
	}
	// Synthesis: a server on a degraded provider activates what its own
	// surface matches, at distance 0 (a manual mark has no window to measure).
	for _, s := range servers {
		if !slices.ContainsFunc(s.Hosts, func(h string) bool { _, ok := m.degraded[h]; return ok }) {
			continue
		}
		for _, rule := range m.rules {
			level := m.matcher.MatchOwnSurface(rule, s)
			if !rule.InScope(r.Page) || m.live(p, rule.ID) || level == MatchNone {
				continue
			}
			m.admitNew(p, rule, r.UserID, s.Addr, level, 0, true)
		}
	}
	for _, h := range sortedKeys(bad) {
		m.observe(h, !bad[h])
	}
	return m.changes, true
}

// reconcile is rule history (§4.2.3): a violator that is the alternate of a
// live activation keeps, advances or reverts it.
func (m *model) reconcile(uid string, p *modelProfile, v Violation) bool {
	handled := false
	for _, id := range sortedKeys(p.active) {
		a, rule := p.active[id], m.byID[id]
		if a == nil || !MatchesAlternate(rule, a.AltIndex, v.Server) {
			continue
		}
		handled = true
		change := RuleChange{RuleID: id, Action: "deactivate", Server: v.Server.Addr}
		switch {
		case v.Distance < a.TriggerDistance:
			change.Action, change.AltIndex = "keep", a.AltIndex
		case a.AltIndex+1 < len(rule.Alternatives):
			next := m.policy.SelectAlternative(rule, a.AltIndex, uid)
			if next == a.AltIndex {
				next++
			}
			if _, epoch, blocked := m.admit(rule, next); !blocked {
				m.activate(p, rule, next, epoch, v.Server.Addr, v.Distance)
				change.Action, change.AltIndex = "advance", next
				break
			}
			m.c.Blocked++
			fallthrough
		default:
			delete(p.active, id)
			m.c.Deactivations++
		}
		m.changes = append(m.changes, change)
	}
	return handled
}

// page is what the user is served at path: the live in-scope activations,
// by rule ID, applied in sequence, and their cache hint.
func (m *model) page(uid, path, html string) (string, string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var acts []rules.Activation
	if p := m.profiles[uid]; p != nil {
		for _, id := range sortedKeys(p.active) {
			if a := p.active[id]; !m.dead(a) && m.byID[id].InScope(path) {
				acts = append(acts, rules.Activation{Rule: m.byID[id], AltIndex: a.AltIndex, Synthesized: a.Synthesized})
			}
		}
	}
	out, applied := rules.Apply(html, path, acts)
	return out, rules.CacheHintValue(applied)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// counted is a lifetime count as a state section carries it: omitted at its
// least, 1 while held — its breaker open or half-open, its rule quarantined.
func counted(n uint64, held bool) uint64 {
	if held && n == 1 {
		return 0
	}
	return n
}

// state is the export of the arc r, its dead activations left out (the
// imports read no range header, so it carries none).
func (m *model) state(r HashRange) *persistedState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := &persistedState{Version: stateVersion, SavedAt: m.now}
	g := &guard.Persisted{}
	for _, p := range sortedKeys(m.breakers) {
		if b := m.breaker(p); b.state != guard.Closed || b.bad > 0 || b.trips > 0 {
			g.Breakers = append(g.Breakers, guard.PersistedBreaker{Provider: p, State: b.state.String(), ConsecutiveBad: b.bad,
				OpenedAt: b.openedAt, HalfOpenGood: b.good, CanariesUsed: b.canaries, Trips: counted(b.trips, b.state != guard.Closed)})
		}
	}
	for _, id := range sortedKeys(m.quar) {
		if q := m.quar[id]; q.on || q.count > 0 {
			g.Rules = append(g.Rules, guard.PersistedRule{RuleID: id, Quarantined: q.on, Quarantines: counted(q.count, q.on)})
		}
	}
	if g.Breakers != nil || g.Rules != nil {
		st.Guard = g
	}
	for _, p := range sortedKeys(m.degraded) {
		if st.Population == nil {
			st.Population = &popPersisted{}
		}
		st.Population.Degraded = append(st.Population.Degraded, DegradedProvider{Provider: p, Since: m.degraded[p], Manual: true})
	}
	for _, uid := range sortedKeys(m.profiles) {
		if !r.Contains(UserHash(uid)) {
			continue
		}
		p := m.profiles[uid]
		pp := persistedProfile{UserID: uid, Violations: maps.Clone(p.violations), LastReport: p.last, Version: p.version}
		for _, id := range sortedKeys(p.active) {
			if a := p.active[id]; !m.dead(a) {
				pp.Active = append(pp.Active, *a)
			}
		}
		st.Profiles = append(st.Profiles, pp)
	}
	return st
}

// export is exportStateRange(r), ExportState for the whole ring.
func (m *model) export(r HashRange) []byte {
	st := m.state(r)
	if !r.Whole() {
		st.Range = &persistedRange{Lo: r.Lo, Hi: r.Hi}
	}
	b, _ := json.MarshalIndent(st, "", "  ")
	return b
}

// header is what only a checkpoint's header holds: the guard and degraded
// sections.
func (m *model) header() string {
	st := m.state(HashRange{})
	b, _ := json.Marshal([]any{st.Guard, st.Population})
	return string(b)
}

// importState is ImportState, and ImportStateRange of the arc r: the
// payload replaces the arc's profiles, activations of unknown rules dropped,
// and the guard and degraded sections; an activation above its pair's epoch
// contradicts the guard section and is dropped. (The stream's arcs carry
// the model's own sections, so an arc's keeping the larger of each count,
// and its leaving the sections a payload lacks alone, change nothing here.)
func (m *model) importState(r HashRange, st *persistedState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.breakers, m.quar, m.degraded = map[string]*modelBreaker{}, map[string]modelQuarantine{}, map[string]time.Time{}
	if g := st.Guard; g != nil {
		for _, pb := range g.Breakers {
			s := map[string]guard.State{"open": guard.Open, "half-open": guard.HalfOpen}[pb.State]
			m.breakers[pb.Provider] = &modelBreaker{state: s, bad: pb.ConsecutiveBad, openedAt: pb.OpenedAt,
				good: pb.HalfOpenGood, canaries: pb.CanariesUsed, trips: max(pb.Trips, uint64(min(s, 1)))} // 1 unless closed
		}
		for _, pr := range g.Rules {
			if m.quar[pr.RuleID] = (modelQuarantine{pr.Quarantined, pr.Quarantines}); pr.Quarantined {
				m.quar[pr.RuleID] = modelQuarantine{true, max(pr.Quarantines, 1)}
			}
		}
	}
	for i := 0; st.Population != nil && i < len(st.Population.Degraded); i++ {
		m.degraded[st.Population.Degraded[i].Provider] = st.Population.Degraded[i].Since
	}
	maps.DeleteFunc(m.profiles, func(uid string, _ *modelProfile) bool { return r.Contains(UserHash(uid)) })
	for _, pp := range st.Profiles {
		p := &modelProfile{violations: map[string]int{}, active: map[string]*persistedActivation{}, last: pp.LastReport, version: pp.Version}
		maps.Copy(p.violations, pp.Violations)
		for _, pa := range pp.Active {
			if m.byID[pa.RuleID] != nil && pa.Epoch <= m.epoch(pa.RuleID, pa.AltIndex) {
				p.active[pa.RuleID] = &pa
			}
		}
		m.profiles[pp.UserID] = p
	}
}

// restart is a new process on rs: the counters start over, and activations
// of rules rs lacks are gone.
func (m *model) restart(rs []*rules.Rule) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rules, m.byID, m.c = rs, map[string]*rules.Rule{}, modelCounts{}
	for _, r := range rs {
		m.byID[r.ID] = r
	}
	for _, p := range m.profiles {
		maps.DeleteFunc(p.active, func(id string, _ *persistedActivation) bool { return m.byID[id] == nil })
	}
}

// modelArm is one engine of the matrix.
type modelArm struct {
	name           string
	shards         int
	capped, binary bool
	dir            string
	e              *Engine
}

// modelWorld drives the model and the matrix with one stream.
type modelWorld struct {
	t       *testing.T
	seed    uint64
	rng     *rand.Rand
	clock   *testClock
	m       *model
	arms    []*modelArm
	users   []string
	pages   map[string]string
	saved   string            // the model's header at the last save or import
	past    []*persistedState // earlier states of the model, ImportState payloads
	ops     []string
	crashes int
	actions map[string]int // the rule changes compared, by action
}

func (w *modelWorld) fatalf(format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("seed %d, step %d: %s\nlast steps:\n  %s", w.seed, len(w.ops)-1, fmt.Sprintf(format, args...),
		strings.Join(w.ops[max(0, len(w.ops)-10):], "\n  "))
}

// must fails the seed on err, from the engine or piece named what.
func (w *modelWorld) must(what string, err error) {
	if err != nil {
		w.fatalf("%s: %v", what, err)
	}
}

func (w *modelWorld) boot(a *modelArm) {
	opts := []Option{WithClock(w.clock.Now), WithShards(a.shards), WithGuard(w.m.cfg), synthesisOn, WithTraceCapacity(0)}
	if a.capped {
		// Small segments: compaction has victims, the append target stays.
		opts = append(opts, WithProfileResidency(ResidencyConfig{Dir: a.dir, MaxProfiles: 4, SegmentBytes: 2000, CompactRatio: 0.3}))
	}
	e, err := NewEngine(w.m.rules, opts...)
	w.must(a.name, err)
	for path, html := range w.pages {
		e.SetPage(path, html)
	}
	_, err = e.LoadStateFile(filepath.Join(a.dir, "state.json"))
	w.must(a.name, err)
	w.t.Cleanup(func() { e.Close() })
	a.e = e
}

// restart stops every engine and boots a new one on rs. A crash stops a
// capped engine with its profiles in the log and no save; the others save.
func (w *modelWorld) restart(rs []*rules.Rule, crash bool) {
	for _, a := range w.arms {
		if crash && a.capped {
			for _, uid := range w.users {
				if a.e.Residency(uid) == "resident" {
					forceSpill(w.t, a.e, uid)
				}
			}
		} else {
			w.must(a.name, a.e.SaveStateFile(filepath.Join(a.dir, "state.json")))
		}
		a.e.Close()
	}
	w.m.restart(rs)
	for _, a := range w.arms {
		w.boot(a)
	}
	if !crash {
		w.saved = w.m.header()
	}
}

// crashExcluded is the one ordering the stream leaves out: a crash after the
// guard's state moved since the last save or import.
func (w *modelWorld) crashExcluded() bool { return w.m.header() != w.saved }

// genBody is a JSON report from uid: four healthy peers and about half of
// the homes and providers, a third of those slow. One in four repeats the
// userId key, or folds its case, naming another user, whom encoding/json —
// and so the model — reads. note describes it.
func (w *modelWorld) genBody(uid string, hosts []string) (body []byte, note string) {
	r := &report.Report{UserID: uid, Page: sortedKeys(w.pages)[w.rng.IntN(len(w.pages))]}
	add := func(h string, ms float64) {
		r.Entries = append(r.Entries, report.Entry{URL: "http://" + h + "/obj.js", ServerAddr: "ip-" + h,
			SizeBytes: 1024, DurationMillis: ms, Kind: report.KindScript})
	}
	for _, h := range sortedKeys(healthyPeers) {
		add(h, healthyPeers[h])
	}
	for _, h := range hosts {
		if w.rng.IntN(2) == 0 {
			add(h, []float64{float64(95 + w.rng.IntN(15)), 2000}[w.rng.IntN(3)/2])
		}
	}
	body, err := json.Marshal(r)
	w.must("report", err)
	note = fmt.Sprintf(" %q on %s, %d entries", uid, r.Page, len(r.Entries))
	if k := w.rng.IntN(8); k < 2 {
		body = fmt.Appendf(body[:len(body)-1], `,%s:%q}`, []string{`"userId"`, `"USERID"`}[k], w.users[w.rng.IntN(len(w.users))])
		note += " and " + string(body[bytes.LastIndexByte(body, ','):])
	}
	return body, note
}

// ingest sends a report (HandleReport) or a batch (StartBatch) to every
// engine, each through its wire, and to the model; a report's rule changes
// are the model's, in its order (a batch returns none to compare).
func (w *modelWorld) ingest(bodies [][]byte) {
	var want BatchResult
	var changes []RuleChange
	bins := make([][]byte, len(bodies))
	for i, body := range bodies {
		var r report.Report
		w.must("encoding/json", json.Unmarshal(body, &r))
		var ok bool
		if changes, ok = w.m.report(&r); ok {
			want.Processed++
		}
		bins[i] = r.AppendBinary(nil)
	}
	for _, a := range w.arms {
		s := a.e.StartBatch(context.Background())
		for i := range bodies {
			r, err := report.DecodePooled(bodies[i])
			if a.binary {
				r, err = report.DecodeBinaryPooled(bins[i])
			}
			w.must(a.name+": decode "+string(bodies[i]), err)
			if len(bodies) > 1 {
				s.Submit(r)
			} else if res, err := a.e.HandleReport(r); (err == nil) != (want.Processed == 1) {
				w.fatalf("%s: HandleReport: %v, the model processed %d", a.name, err, want.Processed)
			} else if err == nil && !slices.Equal(res.Changes, changes) {
				w.fatalf("%s: changes %+v, model %+v", a.name, res.Changes, changes)
			}
		}
		if got := s.Wait(); len(bodies) > 1 && got.Processed != want.Processed {
			w.fatalf("%s: batch processed %d, model %d: %v", a.name, got.Processed, want.Processed, got.Errors)
		}
	}
	for i := 0; len(bodies) == 1 && i < len(changes); i++ {
		w.actions[changes[i].Action]++
	}
}

// importAll imports st into every engine — a whole import, or of the arc r —
// and into the model; a capped engine's checkpoint then holds the guard.
func (w *modelWorld) importAll(r HashRange, st *persistedState) {
	data, err := json.Marshal(st)
	w.must("state", err)
	for _, a := range w.arms {
		if r.Whole() {
			w.must(a.name, a.e.ImportState(data))
		} else {
			w.must(a.name, a.e.ImportStateRange(r, data))
		}
	}
	w.m.importState(r, st)
	w.saved = w.m.header()
}

// check holds every engine to the model.
func (w *modelWorld) check(wait bool) {
	want, arc := w.m.export(HashRange{}), EqualRanges(4)[len(w.ops)%4]
	for _, a := range w.arms {
		a.e.GuardStatus() // a breaker's cool-down lapses when it is read, the model's at once
		got, err := a.e.ExportState()
		w.must(a.name, err)
		if !bytes.Equal(got, want) {
			g, m := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			i := 0
			for i < min(len(g), len(m))-1 && g[i] == m[i] {
				i++
			}
			w.fatalf("%s: export differs from the model's at line %d:\n engine %q\n model  %q\n%s", a.name, i+1, g[i], m[i], want)
		}
		if got, err := a.e.exportStateRange(arc); err != nil || !bytes.Equal(got, w.m.export(arc)) {
			w.fatalf("%s: export of %v differs from the model's (%v):\n%s\nmodel:\n%s", a.name, arc, err, got, w.m.export(arc))
		}
		mt := a.e.Metrics()
		if got, want := (modelCounts{mt.ReportsHandled, mt.RuleActivations, mt.RuleDeactivations, mt.RuleExpirations,
			mt.BulkDeactivations, mt.ActivationsBlocked, mt.SynthesisBlocked, mt.CanaryActivations,
			mt.SynthesizedActivations, mt.BreakerTrips, mt.BreakerCloses}), w.m.c; got != want {
			w.fatalf("%s: counters %+v, model %+v", a.name, got, want)
		}
		if n := a.e.Users(); n != len(w.m.profiles) {
			w.fatalf("%s: %d users, model %d", a.name, n, len(w.m.profiles))
		}
	}
	for _, uid := range w.users {
		for _, path := range sortedKeys(w.pages) {
			html, hint := w.m.page(uid, path, w.pages[path])
			tag := ""
			for i, a := range w.arms {
				plan, ok := a.e.ServePage(uid, a.e.Page(path), wait)
				if !ok && (wait || a.e.Residency(uid) != "spilled") {
					w.fatalf("%s: %s (%s) not served: only a spilled record waits for the disk", a.name, uid, a.e.Residency(uid))
				} else if !ok {
					plan, _ = a.e.ServePage(uid, a.e.Page(path), true)
				}
				if got := strings.Join(plan.Segments, ""); got != html || plan.Hint != hint {
					w.fatalf("%s: %s (%s) served %s:\n %q hint %q\nmodel:\n %q hint %q",
						a.name, uid, a.e.Residency(uid), path, got, plan.Hint, html, hint)
				}
				if i == 0 {
					tag = plan.ETag
				} else if plan.ETag != tag {
					w.fatalf("%s: %s's %s tagged %q, %s tagged %q", a.name, uid, path, plan.ETag, w.arms[0].name, tag)
				}
			}
		}
	}
}

// modelRules is one seed's rule set: a first rule scoped to /index, the
// others site-wide; some remove their default, the others replace it with
// one to three alternatives, each on one or two providers from a pool the
// rules share, so one alternative can name a half-open provider beside an
// open one.
func modelRules(rng *rand.Rand, homes, providers []string) ([]*rules.Rule, map[string][][]string) {
	hosts := map[string][][]string{}
	var rs []*rules.Rule
	for i := range 3 + rng.IntN(2) {
		r := &rules.Rule{
			ID: fmt.Sprintf("r%d", i), Type: rules.TypeReplaceSame, Scope: "*", TTL: []time.Duration{0, 2 * time.Minute, 5 * time.Minute}[rng.IntN(3)],
			Default: fmt.Sprintf(`<script src="http://%s/lib%d.js"></script>`, homes[rng.IntN(len(homes))], i),
		}
		if i == 0 {
			r.Scope = "re:^/index"
		}
		n := 1 + rng.IntN(3)
		if rng.IntN(4) == 0 {
			r.Type, n = rules.TypeRemove, 0
		}
		for range n {
			on := slices.Clone(providers)
			rng.Shuffle(len(on), func(i, j int) { on[i], on[j] = on[j], on[i] })
			on = on[:1+rng.IntN(2)]
			var alt strings.Builder
			for _, p := range on {
				fmt.Fprintf(&alt, `<script src="http://%s/lib%d.js"></script>`, p, i)
			}
			r.Alternatives = append(r.Alternatives, alt.String())
			hosts[r.ID] = append(hosts[r.ID], on)
		}
		rs = append(rs, r)
	}
	return rs, hosts
}

// runModel runs one seed's stream of steps.
func runModel(t *testing.T, seed uint64, steps int) {
	rng := rand.New(rand.NewPCG(seed, 46))
	homes := []string{"h0.example", "h1.example", "h2.example"}
	providers := []string{"p0.example", "p1.example", "p2.example", "p3.example"}
	rs, hosts := modelRules(rng, homes, providers)
	w := &modelWorld{t: t, seed: seed, rng: rng, clock: newTestClock(), pages: map[string]string{}, actions: map[string]int{}}
	w.m = &model{
		cfg: GuardConfig{
			TripThreshold: 1 + rng.IntN(3), OpenFor: time.Minute,
			HalfOpenCanaries: 1 + rng.IntN(3), CloseAfter: 1 + rng.IntN(2),
		},
		now: w.clock.Now(), rules: rs, hosts: hosts, policy: DefaultPolicy(), matcher: NewMatcher(nil),
		profiles: map[string]*modelProfile{}, breakers: map[string]*modelBreaker{},
		quar: map[string]modelQuarantine{}, degraded: map[string]time.Time{},
	}
	w.m.restart(rs)
	page := ""
	for _, r := range rs {
		page += r.Default + "\n"
	}
	w.pages["/index.html"], w.pages["/about.html"] = "<html>\n"+page+"</html>", "<html><p>about</p>\n"+page+"</html>"
	w.users = strings.Fields("u0 u1 u2 u3 u4 u5 u6 u7 u8 u9")
	for i := range 8 {
		a := &modelArm{shards: []int{1, 8}[i/4], capped: i/2%2 == 1, binary: i%2 == 1, dir: t.TempDir()}
		a.name = fmt.Sprintf("shards=%d capped=%v binary=%v", a.shards, a.capped, a.binary)
		w.boot(a)
		w.arms = append(w.arms, a)
	}
	if got := w.arms[0].e.altHosts; !maps.EqualFunc(got, hosts, func(a, b [][]string) bool { return slices.EqualFunc(a, b, slices.Equal) }) {
		t.Fatalf("seed %d: engine reads alternatives' providers as %v, model %v", seed, got, hosts)
	}
	w.saved = w.m.header()
	// Outcomes and the operator's verbs, on a provider, a rule or a home.
	verbs := map[string]func(e *Engine, x string){
		"bad outcome":         func(e *Engine, p string) { e.ObserveProviderOutcome(p, false, 100) },
		"good outcome":        func(e *Engine, p string) { e.ObserveProviderOutcome(p, true, 100) },
		"quarantine provider": (*Engine).QuarantineProvider, "release provider": (*Engine).ReleaseProvider,
		"quarantine rule": (*Engine).QuarantineRule, "release rule": (*Engine).ReleaseRule,
		"mark degraded": (*Engine).MarkDegraded, "clear degraded": (*Engine).ClearDegraded,
	}
	all := append(slices.Clone(homes), providers...)
	for step := range steps {
		uid := w.users[rng.IntN(len(w.users))]
		var op string
		switch k := rng.IntN(100); {
		case step == steps/2:
			op = "restart onto a smaller rule set"
			w.restart(w.m.rules[:len(w.m.rules)-1], false)
		case k < 34:
			var bodies [][]byte
			for range 1 + rng.IntN(4)*rng.IntN(2) {
				uid := w.users[rng.IntN(len(w.users))]
				if rng.IntN(12) == 0 {
					uid = "" // refused: counted failed, never handled
				}
				body, note := w.genBody(uid, all)
				bodies, op = append(bodies, body), op+note
			}
			op = fmt.Sprintf("%d reports:%s", len(bodies), op)
			w.ingest(bodies)
		case k < 43:
			d := time.Duration(10+rng.IntN(90)) * time.Second
			op = fmt.Sprintf("clock +%v", d)
			w.clock.Advance(d)
		case k < 64:
			v, on := sortedKeys(verbs)[rng.IntN(len(verbs))], providers
			if k < 51 {
				v = sortedKeys(verbs)[rng.IntN(2)] // an outcome
			} else if strings.HasSuffix(v, " rule") {
				on = sortedKeys(w.m.byID)
			} else if strings.HasSuffix(v, " degraded") {
				on = homes
			}
			x := on[rng.IntN(len(on))]
			op = v + " " + x
			for _, a := range w.arms {
				verbs[v](a.e, x)
			}
			w.m.operator(v, x)
		case k < 75:
			if op = "evict " + uid; k >= 71 {
				op += ", compact"
			}
			for _, a := range w.arms {
				if a.capped && a.e.Residency(uid) == "resident" {
					forceSpill(t, a.e, uid)
				}
				if k >= 71 {
					a.e.maybeCompact()
				}
			}
		case k < 80 && len(w.past) > 0:
			i := rng.IntN(len(w.past))
			op = fmt.Sprintf("import export %d of %d", i, len(w.past))
			w.importAll(HashRange{}, w.past[i])
		case k < 85:
			arc := EqualRanges(4)[RangeFor(uid, EqualRanges(4))]
			op = "range import without " + uid
			st := w.m.state(arc)
			st.Profiles = slices.DeleteFunc(st.Profiles, func(pp persistedProfile) bool { return pp.UserID == uid })
			w.importAll(arc, st)
		case k < 89:
			op = "save, restart"
			w.restart(w.m.rules, false)
		case k < 95 && w.crashExcluded():
			op = "crash excluded: the guard moved since the last save"
		case k < 95:
			op = "crash"
			w.crashes++
			w.restart(w.m.rules, true)
		default:
			op = "serve"
		}
		w.ops = append(w.ops, op)
		w.m.now = w.clock.Now()
		if rng.IntN(8) == 0 {
			w.past = append(w.past, w.m.state(HashRange{}))
		}
		w.check(rng.IntN(2) == 0)
	}
	t.Logf("seed %d: %d steps, %d of them crashes; rule changes compared: %v", seed, steps, w.crashes, w.actions)
}
