package core

import (
	"sort"
	"sync"
	"sync/atomic"
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
}

// Expired reports whether the activation has lapsed at time now.
func (a *ActiveRule) Expired(now time.Time) bool {
	return !a.ExpiresAt.IsZero() && now.After(a.ExpiresAt)
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
	// count — and orders two durable copies of the profile that share a
	// last-report time (spillRef.supersedes).
	version uint64

	// epoch increments on every activation-state change (activate,
	// deactivate, prune, observed expiry). Readers validate cached
	// derivations against it instead of rescanning the active map, so the
	// serve path pays nothing while a user's activations are stable.
	epoch atomic.Uint64
	// nextExpiry is the earliest ExpiresAt among live activations in unix
	// nanoseconds (0 = none). The read path checks it to observe TTL expiry
	// lazily — a rule lapsing between two reports bumps the epoch on the
	// first read past the deadline, not on the next ingest.
	nextExpiry atomic.Int64
	// cacheMu guards actCache. Mutations of the activation state itself
	// happen under the owning shard's write lock; the little mutex only
	// serialises concurrent readers publishing derived entries.
	cacheMu sync.Mutex
	// actCache memoizes the per-path derived activation view (activation
	// slice, fingerprint, compiled applier), keyed by page path.
	actCache map[string]*actCacheEntry

	// sizeEst is the profile's last heap-footprint estimate in bytes
	// (estimateSize), the unit the residency byte cap counts in. Maintained
	// only on engines with a residency cap, under the owning shard's write
	// lock.
	sizeEst int
}

// maxActCachePaths bounds the per-profile activation cache; a profile
// browsing more distinct paths than this resets the map rather than growing
// without bound.
const maxActCachePaths = 64

// actCacheEntry is an immutable compiled view of one (profile, path)
// activation state: the derived in-scope activation list, its fingerprint,
// and the single-pass applier compiled from it. Published entries are never
// mutated; validity is (same profile epoch, earliest-expiry not passed).
type actCacheEntry struct {
	epoch   uint64 // profile epoch at derivation
	expires int64  // earliest ExpiresAt (unixnano) among acts; 0 = none
	acts    []rules.Activation
	fp      uint64         // activation fingerprint; 0 ⇔ no in-scope activations
	applier *rules.Applier // nil when fp == 0
}

// newProfile creates an empty profile for a user.
func newProfile(userID string) *Profile {
	return &Profile{
		UserID:     userID,
		violations: make(map[string]int),
		active:     make(map[string]*ActiveRule),
	}
}

// recordViolation bumps the per-server violation counter and returns the
// new count.
func (p *Profile) recordViolation(serverAddr string) int {
	p.violations[serverAddr]++
	return p.violations[serverAddr]
}

// activeRule returns the live activation for the rule ID, nil if none.
func (p *Profile) activeRule(id string) *ActiveRule {
	return p.active[id]
}

// activate records a (re-)activation of rule with the chosen alternative.
// Caller holds the owning shard's write lock.
func (p *Profile) activate(r *rules.Rule, altIndex int, now time.Time, server string, distance float64) *ActiveRule {
	a := p.active[r.ID]
	if a == nil {
		a = &ActiveRule{Rule: r}
		p.active[r.ID] = a
	}
	a.AltIndex = altIndex
	a.ActivatedAt = now
	a.ExpiresAt = r.Expires(now)
	a.TriggerServer = server
	a.TriggerDistance = distance
	a.Activations++
	// Provenance defaults to organic; synthesizeLocked sets Synthesized on
	// the returned activation, and any later organic (re-)activation —
	// meaning the user's own evidence now justifies the rule — clears it.
	a.Synthesized = false
	p.noteExpiry(a.ExpiresAt)
	p.epoch.Add(1)
	return a
}

// deactivate removes the rule's activation. Caller holds the owning shard's
// write lock.
func (p *Profile) deactivate(ruleID string) {
	delete(p.active, ruleID)
	p.epoch.Add(1)
}

// expiredActivation identifies one pruned activation by its rule.
type expiredActivation struct {
	ID string
}

// pruneExpired drops lapsed activations and returns what was removed (sorted
// by rule ID). Caller holds the owning shard's write lock.
func (p *Profile) pruneExpired(now time.Time) []expiredActivation {
	var removed []expiredActivation
	for id, a := range p.active {
		if a.Expired(now) {
			delete(p.active, id)
			removed = append(removed, expiredActivation{ID: id})
		}
	}
	if len(removed) > 0 {
		// nextExpiry may point at a removed activation; re-derive it from
		// the survivors (safe under the write lock — no reader runs).
		p.nextExpiry.Store(0)
		for _, a := range p.active {
			p.noteExpiry(a.ExpiresAt)
		}
		p.epoch.Add(1)
	}
	sort.Slice(removed, func(i, j int) bool { return removed[i].ID < removed[j].ID })
	return removed
}

// noteExpiry lowers nextExpiry to t if t is an earlier (non-zero) deadline.
func (p *Profile) noteExpiry(t time.Time) {
	if t.IsZero() {
		return
	}
	n := t.UnixNano()
	for {
		cur := p.nextExpiry.Load()
		if cur != 0 && cur <= n {
			return
		}
		if p.nextExpiry.CompareAndSwap(cur, n) {
			return
		}
	}
}

// observeExpiry bumps the epoch once when the earliest activation deadline
// has passed, so read paths notice TTL expiry without waiting for the next
// ingest. The CAS makes the bump exactly-once per deadline under concurrent
// readers; the next derivation re-arms nextExpiry for the survivors.
// ActiveRule.Expired is strict (now.After), so the bump is too.
func (p *Profile) observeExpiry(now time.Time) {
	ne := p.nextExpiry.Load()
	if ne != 0 && now.UnixNano() > ne {
		if p.nextExpiry.CompareAndSwap(ne, 0) {
			p.epoch.Add(1)
		}
	}
}

// cachedActivations returns the memoized compiled activation view for path,
// deriving (and publishing) it only when the profile epoch or an expiry
// deadline has invalidated the cached entry. Callers must hold the owning
// shard's lock (read or write); the returned entry and everything it
// references are immutable.
func (p *Profile) cachedActivations(path string, now time.Time) *actCacheEntry {
	p.observeExpiry(now)
	ep := p.epoch.Load()
	p.cacheMu.Lock()
	if ent, ok := p.actCache[path]; ok && ent.epoch == ep &&
		(ent.expires == 0 || now.UnixNano() <= ent.expires) {
		p.cacheMu.Unlock()
		return ent
	}
	p.cacheMu.Unlock()

	ent := p.deriveEntry(path, now, ep)

	p.cacheMu.Lock()
	if p.actCache == nil || len(p.actCache) >= maxActCachePaths {
		p.actCache = make(map[string]*actCacheEntry, 8)
	}
	p.actCache[path] = ent
	p.cacheMu.Unlock()
	return ent
}

// deriveEntry builds a fresh activation view for path at time now. It also
// re-arms nextExpiry from the full live activation set, completing the
// lazy-expiry handshake started by observeExpiry. Caller holds the owning
// shard's lock.
func (p *Profile) deriveEntry(path string, now time.Time, ep uint64) *actCacheEntry {
	ids := make([]string, 0, len(p.active))
	var scopedExpiry time.Time
	for id, a := range p.active {
		if a.Expired(now) {
			continue
		}
		p.noteExpiry(a.ExpiresAt)
		if !a.Rule.InScope(path) {
			continue
		}
		if !a.ExpiresAt.IsZero() && (scopedExpiry.IsZero() || a.ExpiresAt.Before(scopedExpiry)) {
			scopedExpiry = a.ExpiresAt
		}
		ids = append(ids, id)
	}
	ent := &actCacheEntry{epoch: ep}
	if !scopedExpiry.IsZero() {
		ent.expires = scopedExpiry.UnixNano()
	}
	if len(ids) == 0 {
		return ent
	}
	sort.Strings(ids)
	ent.acts = make([]rules.Activation, 0, len(ids))
	for _, id := range ids {
		a := p.active[id]
		ent.acts = append(ent.acts, rules.Activation{
			Rule: a.Rule, AltIndex: a.AltIndex, Synthesized: a.Synthesized,
		})
	}
	ent.fp = activationFingerprint(path, ent.acts)
	ent.applier = rules.NewApplier(ent.acts, path)
	return ent
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

// activeRuleIDsInto lists the user's live activations (sorted) in buf's
// backing array, so the per-report reconciliation loop reuses one snapshot
// buffer; a nil buf makes a fresh list, nil when there is none.
func (p *Profile) activeRuleIDsInto(now time.Time, buf []string) []string {
	ids := buf[:0]
	for id, a := range p.active {
		if !a.Expired(now) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// Profile size estimation: the byte cap needs a cheap, allocation-free
// approximation of a profile's heap footprint. The constants cover the map
// headers, the Profile struct and per-entry overheads; they are estimates,
// not measurements — the cap is a watermark, not an accounting identity.
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
