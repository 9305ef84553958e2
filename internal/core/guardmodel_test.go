package core

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"oak/internal/guard"
	"oak/internal/report"
	"oak/internal/rules"
)

// TestGuardAgreesWithModel drives an engine with a guard and a reference
// model of the guard with one seeded stream of operations, and compares the
// two after every step: each breaker's state, bad and good counts, spent
// canary slots and trips, the canary and blocked counters, and every user's
// live activations with the epochs they were admitted under — resident and
// spilled users alike.
//
// The stream mixes slow reports from fresh users, returning users and one
// user whose profile is full; degraded-provider reports that only synthesis
// acts on; clock ticks across the cool-down; good and bad provider outcomes;
// operator quarantines and releases of providers and rules; and evictions of
// resident users to the spill tier. Its rules
// have one to three alternatives, each on one to three providers drawn from
// a pool the rules share, so one alternative can name a half-open provider
// next to an open one.
//
// The model is the guard as its documentation states it, in map-and-switch
// form: an open breaker admits nothing until its cool-down elapses, a
// half-open one admits HalfOpenCanaries canaries, an alternative is admitted
// whole or not at all, and a full profile is skipped before any breaker is
// asked. An activation records its pair's epoch — the rule's quarantines plus
// its providers' trips, counts no close or release resets — and is live while
// the epoch has not moved.

// guardModelSeeds is how many seeds TestGuardAgreesWithModel runs,
// 1..guardModelSeeds; raise it locally to hunt for failing ones.
const guardModelSeeds = 200

// guardModelFailedSeeds are seeds that once failed, kept whatever
// guardModelSeeds says.
var guardModelFailedSeeds = []uint64{
	4, // the guard spent a half-open slot on an alternative another of its providers refused
}

func TestGuardAgreesWithModel(t *testing.T) {
	seeds := slices.Clone(guardModelFailedSeeds)
	for s := uint64(1); s <= guardModelSeeds; s++ {
		if !slices.Contains(seeds, s) {
			seeds = append(seeds, s)
		}
	}
	for _, seed := range seeds {
		runGuardModel(t, seed)
		if t.Failed() {
			return
		}
	}
}

// modelBreaker is one provider's breaker in the model.
type modelBreaker struct {
	state    guard.State
	bad      int       // consecutive bad outcomes while closed
	openedAt time.Time // when it last opened
	good     int       // good outcomes while half-open
	canaries int       // canary slots spent while half-open
	trips    uint64    // times it opened, ever
}

// modelAct is one activation in the model: its alternative and epoch.
type modelAct struct {
	alt   int
	epoch uint64
}

// guardModel is the guard, and the activations it lets through, as a spec.
type guardModel struct {
	cfg         GuardConfig
	now         time.Time
	rules       []*rules.Rule
	home        map[string]string     // rule → the host its default loads from
	hosts       map[string][][]string // rule → alternative → providers
	breakers    map[string]*modelBreaker
	quarantined map[string]bool                // rule IDs
	quarantines map[string]uint64              // rule ID → times quarantined, ever
	degraded    map[string]bool                // hosts marked degraded
	full        map[string]bool                // users whose profile is full
	active      map[string]map[string]modelAct // user → rule → activation, live or dead

	canaries, activationsBlocked, synthesisBlocked uint64
}

// breaker is p's breaker with an elapsed cool-down applied, nil if untracked.
func (m *guardModel) breaker(p string) *modelBreaker {
	b := m.breakers[p]
	if b != nil && b.state == guard.Open && m.now.Sub(b.openedAt) >= m.cfg.OpenFor {
		*b = modelBreaker{state: guard.HalfOpen, trips: b.trips}
	}
	return b
}

// open (re)opens p's breaker, which kills every activation onto p.
func (m *guardModel) open(p string) {
	var trips uint64
	if b := m.breakers[p]; b != nil {
		trips = b.trips
	}
	m.breakers[p] = &modelBreaker{state: guard.Open, openedAt: m.now, trips: trips + 1}
}

// epoch is the current epoch of rule id's alternative alt.
func (m *guardModel) epoch(id string, alt int) uint64 {
	n := m.quarantines[id]
	for _, p := range m.hosts[id][alt] {
		if b := m.breakers[p]; b != nil {
			n += b.trips
		}
	}
	return n
}

// live is the user's activation of rule id if it has one whose epoch has not
// moved.
func (m *guardModel) live(user, id string) (modelAct, bool) {
	a, held := m.active[user][id]
	return a, held && a.epoch == m.epoch(id, a.alt)
}

func (m *guardModel) observe(p string, good bool) {
	b := m.breaker(p)
	if b == nil {
		if good {
			return
		}
		b = &modelBreaker{}
		m.breakers[p] = b
	}
	switch b.state {
	case guard.Closed:
		b.bad++
		if good {
			b.bad = 0
		}
		if b.bad >= m.cfg.TripThreshold {
			m.open(p)
		}
	case guard.HalfOpen:
		if !good {
			m.open(p)
		} else if b.good++; b.good >= m.cfg.CloseAfter {
			*b = modelBreaker{trips: b.trips}
		}
	}
}

func (m *guardModel) forceOpen(p string) {
	if b := m.breaker(p); b == nil || b.state != guard.Open {
		m.open(p)
	}
}

func (m *guardModel) forceClose(p string) {
	if b := m.breakers[p]; b != nil {
		*b = modelBreaker{trips: b.trips}
	}
}

func (m *guardModel) quarantineRule(id string) {
	if m.quarantined[id] {
		return
	}
	m.quarantined[id] = true
	m.quarantines[id]++
}

// admit returns the first of alts the user may take for r, or -1 and whether
// the guard refused (false: the profile is full, which is not a refusal).
func (m *guardModel) admit(user string, r *rules.Rule, alts []int) (int, bool) {
	if m.full[user] {
		return -1, false
	}
	for _, alt := range alts {
		if m.quarantined[r.ID] {
			continue
		}
		var half []*modelBreaker
		ok := true
		for _, p := range m.hosts[r.ID][alt] {
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
			m.canaries++
		}
		return alt, false
	}
	return -1, true
}

// activate records an admitted activation under its pair's epoch.
func (m *guardModel) activate(user, id string, alt int) {
	m.active[user][id] = modelAct{alt: alt, epoch: m.epoch(id, alt)}
}

// report is a report by user touching host: when slow, every rule on host
// the user does not hold is admitted onto its first alternative; then, when
// host is degraded, synthesis tries every rule still not held, preferred
// (first) alternative first.
func (m *guardModel) report(user, host string, slow bool) {
	if m.active[user] == nil {
		m.active[user] = make(map[string]modelAct)
	}
	for _, r := range m.rules {
		if !slow || m.home[r.ID] != host {
			continue
		}
		if _, live := m.live(user, r.ID); live {
			continue
		}
		if alt, blocked := m.admit(user, r, []int{0}); alt >= 0 {
			m.activate(user, r.ID, alt)
		} else if blocked {
			m.activationsBlocked++
		}
	}
	for _, r := range m.rules {
		if !m.degraded[host] || m.home[r.ID] != host {
			continue
		}
		if _, live := m.live(user, r.ID); live {
			continue
		}
		alts := make([]int, len(r.Alternatives))
		for i := range alts {
			alts[i] = i
		}
		if alt, blocked := m.admit(user, r, alts); alt >= 0 {
			m.activate(user, r.ID, alt)
		} else if blocked {
			m.synthesisBlocked++
		}
	}
}

// diff reports the first way the engine disagrees with the model, "" if none.
func (m *guardModel) diff(e *Engine) string {
	st, _ := e.GuardStatus()
	got := make(map[string]string)
	for _, b := range st.Breakers {
		got[b.Provider] = fmt.Sprintf("%s bad=%d good=%d canaries=%d trips=%d", b.State, b.ConsecutiveBad, b.HalfOpenGood, b.CanariesUsed, b.Trips)
	}
	want := make(map[string]string)
	for p := range m.breakers {
		b := m.breaker(p)
		want[p] = fmt.Sprintf("%s bad=%d good=%d canaries=%d trips=%d", b.state, b.bad, b.good, b.canaries, b.trips)
	}
	if !maps.Equal(got, want) {
		return fmt.Sprintf("breakers %v, model %v", got, want)
	}
	mt := e.Metrics()
	if mt.CanaryActivations != m.canaries || mt.ActivationsBlocked != m.activationsBlocked || mt.SynthesisBlocked != m.synthesisBlocked {
		return fmt.Sprintf("canary/blocked/synthesis-blocked %d/%d/%d, model %d/%d/%d",
			mt.CanaryActivations, mt.ActivationsBlocked, mt.SynthesisBlocked,
			m.canaries, m.activationsBlocked, m.synthesisBlocked)
	}
	// Every user the engine holds, resident or spilled, as deadAt leaves
	// them.
	got2 := make(map[string]map[string]modelAct)
	put := func(user, id string, a modelAct) {
		if got2[user] == nil {
			got2[user] = make(map[string]modelAct)
		}
		got2[user][id] = a
	}
	now, ep := e.now(), e.epochs.Load()
	for _, sh := range e.shards {
		for user, prof := range sh.profiles {
			for id, a := range prof.active {
				if !a.deadAt(now, ep) {
					put(user, id, modelAct{alt: a.AltIndex, epoch: a.Epoch})
				}
			}
		}
		var err error
		sh.spilled.each(func(uid []byte, ref spillRef) bool {
			if _, resident := sh.profiles[string(uid)]; resident || err != nil {
				return false
			}
			var pp *persistedProfile
			if pp, err = e.spill.readRecord(ref); err == nil {
				for _, pa := range pp.Active {
					if !e.deadAt(&pa, now) {
						put(pp.UserID, pa.RuleID, modelAct{alt: pa.AltIndex, epoch: pa.Epoch})
					}
				}
			}
			return false
		})
		if err != nil {
			return err.Error()
		}
	}
	want2 := make(map[string]map[string]modelAct)
	for user, acts := range m.active {
		for id := range acts {
			if a, live := m.live(user, id); live {
				if want2[user] == nil {
					want2[user] = make(map[string]modelAct)
				}
				want2[user][id] = a
			}
		}
	}
	if !maps.EqualFunc(got2, want2, maps.Equal) {
		return fmt.Sprintf("live activations %v, model %v", got2, want2)
	}
	return ""
}

// slowOn is a report in which host badly under-performs the healthy peers.
func slowOn(user, host string) *report.Report {
	times := maps.Clone(healthyPeers)
	times[host] = 2000
	return loadReport(user, times)
}

// runGuardModel runs one seed's stream against a fresh engine and model.
func runGuardModel(t *testing.T, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0))
	providers := []string{"p0.example", "p1.example", "p2.example", "p3.example"}
	homes := []string{"h0.example", "h1.example", "h2.example"}
	m := &guardModel{
		cfg: GuardConfig{
			TripThreshold:    1 + rng.IntN(3),
			OpenFor:          time.Minute,
			HalfOpenCanaries: 1 + rng.IntN(3),
			CloseAfter:       1 + rng.IntN(2),
		},
		home:        make(map[string]string),
		hosts:       make(map[string][][]string),
		breakers:    make(map[string]*modelBreaker),
		quarantined: make(map[string]bool),
		quarantines: make(map[string]uint64),
		degraded:    make(map[string]bool),
		full:        make(map[string]bool),
		active:      make(map[string]map[string]modelAct),
	}
	for i := range 2 + rng.IntN(3) {
		home := homes[rng.IntN(len(homes))]
		r := &rules.Rule{
			ID: fmt.Sprintf("r%d", i), Type: rules.TypeReplaceSame, Scope: "*",
			Default: `<script src="http://` + home + `/lib.js">`,
		}
		for range 1 + rng.IntN(3) {
			on := slices.Clone(providers)
			rng.Shuffle(len(on), func(i, j int) { on[i], on[j] = on[j], on[i] })
			on = on[:1+rng.IntN(3)]
			var alt strings.Builder
			for _, p := range on {
				fmt.Fprintf(&alt, `<script src="http://%s/lib.js">`, p)
			}
			r.Alternatives = append(r.Alternatives, alt.String())
			m.hosts[r.ID] = append(m.hosts[r.ID], on)
		}
		m.rules = append(m.rules, r)
		m.home[r.ID] = home
	}
	clock := newTestClock()
	// Each seed's engine and spill directory go when the seed ends.
	dir, err := os.MkdirTemp("", "guardmodel")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	e, err := NewEngine(m.rules, WithClock(clock.Now), WithGuard(m.cfg), synthesisOn,
		WithProfileResidency(ResidencyConfig{Dir: dir, MaxProfiles: 1 << 12}))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if !maps.EqualFunc(e.altHosts, m.hosts, func(a, b [][]string) bool { return slices.EqualFunc(a, b, slices.Equal) }) {
		t.Fatalf("seed %d: engine reads alternatives' providers as %v, model %v", seed, e.altHosts, m.hosts)
	}

	// The full user has been slow on every home, with every rule
	// quarantined, so its later slow reports pass the violation count and
	// reach admission without growing the profile.
	const fullUser = "full"
	for _, r := range m.rules {
		e.QuarantineRule(r.ID)
		m.quarantineRule(r.ID)
	}
	for _, h := range homes {
		handle(t, e, slowOn(fullUser, h))
		m.report(fullUser, h, true)
	}
	fill(t, e, clock, fullUser)
	m.full[fullUser] = true
	for _, r := range m.rules {
		e.ReleaseRule(r.ID)
		delete(m.quarantined, r.ID)
	}
	for _, h := range homes {
		if rng.IntN(2) == 0 {
			e.MarkDegraded(h)
			m.degraded[h] = true
		}
	}
	m.now = clock.Now()
	if d := m.diff(e); d != "" {
		t.Fatalf("seed %d, after setup: %s", seed, d)
	}

	var roomy, ops []string
	user := func() string {
		switch k := rng.IntN(5); {
		case k == 0:
			return fullUser
		case k == 1 && len(roomy) > 0:
			return roomy[rng.IntN(len(roomy))]
		}
		roomy = append(roomy, fmt.Sprintf("u%d", len(roomy)))
		return roomy[len(roomy)-1]
	}
	for step := range 150 {
		p := providers[rng.IntN(len(providers))]
		var op string
		switch k := rng.IntN(18); {
		case k < 6:
			u, h := user(), homes[rng.IntN(len(homes))]
			op = fmt.Sprintf("slow report %s on %s", u, h)
			handle(t, e, slowOn(u, h))
			m.report(u, h, true)
		case k < 8:
			u, h := user(), homes[rng.IntN(len(homes))]
			op = fmt.Sprintf("degraded report %s on %s", u, h)
			handle(t, e, loadReport(u, map[string]float64{h: 900}))
			m.report(u, h, false)
		case k < 10:
			d := time.Duration(5+rng.IntN(70)) * time.Second
			op = fmt.Sprintf("tick %v", d)
			clock.Advance(d)
			m.now = clock.Now()
		case k < 13:
			good := rng.IntN(2) == 0
			op = fmt.Sprintf("outcome %s good=%v", p, good)
			e.ObserveProviderOutcome(p, good, 100)
			m.observe(p, good)
		case k == 13:
			op = "quarantine " + p
			e.QuarantineProvider(p)
			m.forceOpen(p)
		case k == 14:
			op = "release " + p
			e.ReleaseProvider(p)
			m.forceClose(p)
		case k < 17 && len(roomy) > 0:
			// Not the full user: its record is most of a megabyte, read back
			// on every step it stays spilled.
			u := roomy[rng.IntN(len(roomy))]
			op = "spill " + u
			if e.Residency(u) == "resident" {
				forceSpill(t, e, u)
			}
		default:
			r := m.rules[rng.IntN(len(m.rules))].ID
			if rng.IntN(2) == 0 {
				op = "quarantine rule " + r
				e.QuarantineRule(r)
				m.quarantineRule(r)
			} else {
				op = "release rule " + r
				e.ReleaseRule(r)
				delete(m.quarantined, r)
			}
		}
		ops = append(ops, op)
		if d := m.diff(e); d != "" {
			t.Fatalf("seed %d, step %d: %s\nlast steps:\n  %s", seed, step, d,
				strings.Join(ops[max(0, len(ops)-8):], "\n  "))
		}
	}
}
