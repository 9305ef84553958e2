package core

import (
	"slices"
	"sort"
	"strings"
	"time"

	"oak/internal/rules"
)

// ActiveRule is one activated rule in a user's profile.
type ActiveRule struct {
	// Rule is the activated rule.
	Rule *rules.Rule
	// AltIndex is the currently selected alternative.
	AltIndex int
	// ActivatedAt is when the (latest) activation happened.
	ActivatedAt time.Time
	// ExpiresAt is when the activation lapses; zero means never (TTL 0).
	ExpiresAt time.Time
	// TriggerServer is the violating server that caused the activation.
	TriggerServer string
	// TriggerDistance is the violator's distance from the median at
	// activation time — the yardstick the history mechanism compares the
	// alternate against later (Section 4.2.3).
	TriggerDistance float64
	// Activations counts how many times this rule has (re-)activated for
	// the user, driving linear alternative progression.
	Activations int
	// Synthesized marks provenance: the activation came from
	// population-level rule synthesis rather than this user's own
	// violation history. A later organic (re-)activation clears it.
	Synthesized bool
	// Epoch is the pair's epoch it was admitted under (guard.Set.Admit).
	Epoch uint64
}

// Expired reports whether the activation has lapsed at time now.
func (a *ActiveRule) Expired(now time.Time) bool {
	return !a.ExpiresAt.IsZero() && now.After(a.ExpiresAt)
}

// deadAt is Engine.deadAt for a resident activation, whose rule is known.
func (a *ActiveRule) deadAt(now time.Time, ep *epochTable) bool {
	return a.Expired(now) || ep.at(a.Rule.ID, a.AltIndex) > a.Epoch
}

// Profile is Oak's per-user state: every decision Oak makes is grounded in
// this user's own reported performance, never the aggregate.
type Profile struct {
	// UserID is the identifying cookie value.
	UserID string
	// violations counts, per server address, how many reports flagged the
	// server as a violator for this user. Drives Policy.MinViolations.
	violations map[string]int
	// active maps rule ID to the live activation.
	active map[string]*ActiveRule
	// lastReport is when the user last submitted a report.
	lastReport time.Time
	// version counts the reports ever applied to the profile. It is bumped
	// where lastReport is set and nowhere else, so it is a function of the
	// user's report stream alone — the same capped or uncapped, at any shard
	// count — and says whether the user's record holds the profile as it is
	// (spillRef.holds).
	version uint64

	// sizeEst is the profile's last heap-footprint estimate in bytes
	// (estimateSize), the unit the residency byte cap counts in. Maintained
	// only on engines with a residency cap, under the owning shard's write
	// lock.
	sizeEst int
}

// actView is the activation set one serve of a page works from: the user's
// live activations in scope for the page's path at the serve's instant,
// sorted by rule ID, and their fingerprint. Each serve derives its own under
// the shard lock; it shares nothing ingest writes, so it stays valid after
// the lock is released, and a TTL lapse needs no invalidation.
type actView struct {
	acts []rules.Activation
	fp   uint64 // activation fingerprint; 0 ⇔ no in-scope activations
}

// viewBufLen is how many in-scope activations a serve derives into a stack
// buffer; a user with more costs one allocation, sized to their live
// activations.
const viewBufLen = 8

// newProfile creates an empty profile for a user; its maps are made on their
// first write (recordViolation, activate).
func newProfile(userID string) *Profile { return &Profile{UserID: userID} }

// recordViolation bumps the per-server violation counter and returns the
// new count; ok is false, and nothing recorded, when a server new to the
// profile would take it past maxProfileSize.
func (p *Profile) recordViolation(serverAddr string) (count int, ok bool) {
	count, seen := p.violations[serverAddr]
	if !seen && !p.grow(violationEntrySize+len(serverAddr)) {
		return 0, false
	} else if !seen { // a decoded address may view a longer string: keep the bytes estimateSize counts
		serverAddr = strings.Clone(serverAddr)
	}
	count++
	if p.violations == nil {
		p.violations = make(map[string]int, 1)
	}
	p.violations[serverAddr] = count
	return count, true
}

// grow reports whether the profile may grow by n bytes of its size estimate
// and stay within maxProfileSize. It walks the profile: ask it only to grow.
func (p *Profile) grow(n int) bool {
	return n <= 0 || p.estimateSize()+n <= maxProfileSize
}

// activeRule returns the activation for the rule ID, nil if none.
func (p *Profile) activeRule(id string) *ActiveRule {
	return p.active[id]
}

// roomFor reports whether an activation of r triggered by server fits within
// maxProfileSize; ingest asks it before spending a breaker's canary slot.
func (p *Profile) roomFor(r *rules.Rule, server string) bool {
	if a := p.active[r.ID]; a != nil {
		return p.grow(len(server) - len(a.TriggerServer))
	}
	return p.grow(activeEntrySize + len(r.ID) + len(server))
}

// activate records a (re-)activation of rule with the chosen alternative
// under epoch. It returns nil, and changes nothing, when the activation would
// take the profile past maxProfileSize (roomFor). Caller holds the shard lock.
func (p *Profile) activate(r *rules.Rule, altIndex int, epoch uint64, now time.Time, server string, distance float64) *ActiveRule {
	a := p.active[r.ID]
	if !p.roomFor(r, server) {
		return nil
	} else if a == nil {
		a = &ActiveRule{Rule: r}
		if p.active == nil {
			p.active = make(map[string]*ActiveRule, 1)
		}
		p.active[r.ID] = a
	}
	a.AltIndex = altIndex
	a.Epoch = epoch
	a.ActivatedAt = now
	a.ExpiresAt = r.Expires(now)
	a.TriggerServer = strings.Clone(server) // as in recordViolation
	a.TriggerDistance = distance
	a.Activations++
	// Provenance defaults to organic; a synthesized activation
	// (activateMatching) sets Synthesized on the returned one, and any later
	// organic (re-)activation — meaning the user's own evidence now
	// justifies the rule — clears it.
	a.Synthesized = false
	return a
}

// deactivate removes the rule's activation. Caller holds the owning shard's
// write lock.
func (p *Profile) deactivate(ruleID string) {
	delete(p.active, ruleID)
}

// pruneDead drops and returns (sorted by rule ID) the activations dead at now
// in the epochs ep. Caller holds the owning shard's write lock.
func (p *Profile) pruneDead(now time.Time, ep *epochTable) []*ActiveRule {
	var removed []*ActiveRule
	for id, a := range p.active {
		if a.deadAt(now, ep) {
			delete(p.active, id)
			removed = append(removed, a)
		}
	}
	sort.Slice(removed, func(i, j int) bool { return removed[i].Rule.ID < removed[j].Rule.ID })
	return removed
}

// viewAt derives p's activation view for path at time now, in the epochs
// ep, into buf's backing array, or — when more activations are live than buf
// holds — into one allocation sized to them all, so the list never grows.
// Caller holds the owning shard's lock (read suffices).
func (p *Profile) viewAt(path string, now time.Time, ep *epochTable, buf []rules.Activation) actView {
	acts := buf[:0]
	for _, a := range p.active {
		if a.deadAt(now, ep) || !a.Rule.InScope(path) {
			continue
		}
		if len(acts) == cap(acts) {
			acts = append(make([]rules.Activation, 0, len(p.active)), acts...)
		}
		acts = append(acts, rules.Activation{Rule: a.Rule, AltIndex: a.AltIndex, Synthesized: a.Synthesized})
	}
	if len(acts) == 0 {
		return actView{}
	}
	if len(acts) > 1 {
		slices.SortFunc(acts, func(x, y rules.Activation) int { return strings.Compare(x.Rule.ID, y.Rule.ID) })
	}
	return actView{acts: acts, fp: activationFingerprint(path, acts)}
}

// activationFingerprint hashes an in-scope activation set — page path and
// each (rule ID, alternative index) pair — with FNV-1a. Zero is reserved for
// the empty set, so a zero fingerprint always means "serve the page
// untouched"; non-empty sets are forced non-zero.
func activationFingerprint(path string, acts []rules.Activation) uint64 {
	if len(acts) == 0 {
		return 0
	}
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
		h ^= 0xff // terminator so "ab","c" ≠ "a","bc"
		h *= prime
	}
	mix(path)
	for _, a := range acts {
		mix(a.Rule.ID)
		h ^= uint64(uint32(a.AltIndex))
		h *= prime
	}
	if h == 0 {
		h = 1
	}
	return h
}

// activeRuleIDsInto lists the user's activations live in the epochs ep
// (sorted) in buf's backing array, so the reconciliation loop reuses one
// buffer; a nil buf makes a fresh list, nil when there is none.
func (p *Profile) activeRuleIDsInto(now time.Time, ep *epochTable, buf []string) []string {
	ids := buf[:0]
	for id, a := range p.active {
		if !a.deadAt(now, ep) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// Profile size estimation: the byte cap needs a cheap, allocation-free
// approximation of a profile's heap footprint. The constants cover the map
// headers, the Profile struct and per-entry overheads; they are estimates,
// not measurements — the cap is a watermark, not an accounting identity. Each
// is also above what its part of an OAKPROF1 record can take (a record's
// fixed fields are at most 69 bytes, a violation's 13 and an activation's
// 117, beside their strings), so the estimate bounds the record from above.
const (
	profileBaseSize    = 256
	violationEntrySize = 48
	activeEntrySize    = 176
)

// estimateSize approximates the profile's heap footprint in bytes. Caller
// holds the owning shard's lock.
func (p *Profile) estimateSize() int {
	n := profileBaseSize + len(p.UserID)
	for srv := range p.violations {
		n += violationEntrySize + len(srv)
	}
	for id, a := range p.active {
		n += activeEntrySize + len(id) + len(a.TriggerServer)
	}
	return n
}

// noteProfileSizeLocked refreshes the reporting profile's size estimate and
// the shard's resident-bytes gauge after ingest mutated it. Caller holds
// sh.mu for writing.
func (e *Engine) noteProfileSizeLocked(sh *shard, prof *Profile) {
	if e.spill == nil {
		return
	}
	est := prof.estimateSize()
	sh.residentBytes.Add(int64(est - prof.sizeEst))
	prof.sizeEst = est
}
