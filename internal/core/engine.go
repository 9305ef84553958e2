package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oak/internal/guard"
	"oak/internal/obs"
	"oak/internal/report"
	"oak/internal/rules"
	"oak/internal/seglog"
)

// Engine is the Oak server's decision core. It ingests client performance
// reports, maintains per-user profiles, and rewrites outgoing pages with the
// rules active for each user. It is safe for concurrent use.
//
// Per-user state lives in lock-striped shards (see shard.go) keyed by user
// ID, so reports for different users ingest in parallel. Every report is
// analysed on the goroutine that submitted it; WithAdmission optionally
// bounds how many may be in flight at once. Close stops ingest and releases
// the spill tier's files.
type Engine struct {
	// rules is the rule set, compiled by NewEngine and never written after it
	// returns, so it is read without a lock; rulesByID indexes it, so a record
	// resolves its rule references without scanning. A rule change is a
	// restart on the new set (OPERATIONS.md, "Changing rules").
	rules     []*rules.Rule
	rulesByID map[string]*rules.Rule

	// shards partition per-user state; len(shards) is a power of two fixed
	// at construction. shardCount carries the WithShards request until the
	// shards are built.
	shards     []*shard
	shardCount int

	policy  Policy
	matcher *Matcher
	metrics metrics
	now     func() time.Time
	logf    func(format string, args ...any)

	// gate, when non-nil (WithAdmission), bounds the reports in flight; nil
	// admits everything. See ingest.go.
	gate *gate

	// closeMu orders Close against ingest: a report holds it shared while it
	// is being processed and Close takes it exclusively to set closed, so
	// once Close returns nothing is touching a shard or the spill tier.
	closeMu sync.RWMutex
	closed  bool

	// Observability (internal/obs): every decision point emits a structured
	// trace event; rewrite latency feeds one histogram, ingest latency one
	// histogram per shard (merged on read). traceBuf nil means tracing is
	// disabled and the hot paths skip event construction entirely.
	traceBuf    *obs.Trace
	rewriteHist obs.Histogram

	// scanner indexes each registered page against the rule set, once, on
	// the page's first serve; ruleDigest is rules.Digest of the set, one
	// input of every derived entity tag. pages is the page registry,
	// guarded by pagesMu. See serve.go.
	scanner    *rules.Scanner
	ruleDigest [32]byte
	pagesMu    sync.RWMutex
	pages      map[string]*Page

	// guard, when non-nil (WithGuard), holds the per-provider circuit
	// breakers and rule-quarantine table; guardConfig carries the WithGuard
	// request until construction. altHosts maps rule ID → per-alternative
	// provider hostnames, built once with the rule set; epochs is every
	// pair's current epoch, republished under epochMu after each trip or
	// quarantine, nil until the first. See guardwire.go.
	guard       *guard.Set
	guardConfig *GuardConfig
	altHosts    map[string][][]string
	epochs      atomic.Pointer[epochTable]
	epochMu     sync.Mutex

	// pop, when non-nil (WithSynthesis), holds the population-level
	// detection state: per-provider download-time baselines, the degraded
	// set, and the synthesis machinery; synthConfig carries the
	// WithSynthesis request until construction. See popwire.go.
	pop         *popState
	synthConfig *SynthesisConfig

	// stateSource records where this engine's state last came from
	// (fresh/snapshot/backup/shipped) for healthz and the cluster gateway;
	// set by LoadStateFile and ImportShippedState. Empty reads as StateFresh.
	stateSource atomic.Value // StateSource
	// lastLoad is what the last successful LoadStateFile did (BootStatus).
	lastLoad atomic.Pointer[BootStatus]

	// spill, when non-nil (WithProfileResidency), bounds the resident
	// profile set: cold profiles are evicted to crash-safe segment files,
	// rehydrated on the user's next report and read in place by the serve
	// path; residencyCfg carries the option until construction;
	// rehydrateHist times rehydrations. See spill.go.
	spill         *spillStore
	residencyCfg  *ResidencyConfig
	rehydrateHist obs.Histogram

	// fs is the seam every durable byte goes through: segments and state
	// files (seglog.OS; tests substitute a fake).
	fs seglog.FS
	// goodPrimary is the state file whose primary this engine loaded cleanly
	// or installed itself, the one SaveStateFile may rotate to .bak. saveMu
	// runs SaveStateFile calls one at a time.
	goodPrimary atomic.Pointer[string]
	saveMu      sync.Mutex
}

// Option configures an Engine.
type Option func(*Engine)

// WithPolicy sets the operator policy (zero fields take defaults).
func WithPolicy(p Policy) Option {
	return func(e *Engine) { e.policy = p.normalized() }
}

// WithScriptFetcher enables the external-JavaScript matching tier using the
// given fetcher.
func WithScriptFetcher(f ScriptFetcher) Option {
	return func(e *Engine) { e.matcher.Fetcher = f }
}

// WithClock overrides the engine's time source (tests, simulation).
func WithClock(now func() time.Time) Option {
	return func(e *Engine) { e.now = now }
}

// WithLogf directs engine decision logging (rule activations, removals) to
// a printf-style sink. Logging is off by default. The structured source of
// these lines is the decision trace (TraceRecent); the sink receives one
// rendered line per trace event.
func WithLogf(logf func(format string, args ...any)) Option {
	return func(e *Engine) { e.logf = logf }
}

// WithTraceCapacity sizes the decision-trace ring buffer (default
// obs.DefaultTraceCapacity). The ring keeps the most recent n events;
// n <= 0 disables tracing entirely, which also spares the hot paths the
// cost of building event strings.
func WithTraceCapacity(n int) Option {
	return func(e *Engine) {
		if n <= 0 {
			e.traceBuf = nil
			return
		}
		e.traceBuf = obs.NewTrace(n)
	}
}

// NewEngine builds an engine with the given rule set, which is the engine's
// for its lifetime. The engine compiles its own copies of the rules, leaving
// the caller's untouched; an invalid rule or a duplicate rule ID fails
// construction.
func NewEngine(ruleSet []*rules.Rule, opts ...Option) (*Engine, error) {
	e := &Engine{
		policy:   DefaultPolicy(),
		matcher:  NewMatcher(nil),
		now:      time.Now,
		traceBuf: obs.NewTrace(obs.DefaultTraceCapacity),
		fs:       seglog.OS,
	}
	for _, opt := range opts {
		opt(e)
	}
	e.initGuard()
	e.initPop()
	n := e.shardCount
	if n <= 0 {
		n = DefaultShardCount()
	}
	e.shards = make([]*shard, n)
	for i := range e.shards {
		e.shards[i] = &shard{profiles: make(map[string]*Profile)}
	}
	e.matcher.MaxLevel = e.policy.MatchLevel
	e.matcher.Depth = e.policy.MatchDepth
	// The engine compiles copies: the caller's rules are never written, so
	// any number of engines may be built at once from one parsed set.
	e.rules = make([]*rules.Rule, len(ruleSet))
	e.rulesByID = make(map[string]*rules.Rule, len(e.rules))
	for i, r := range ruleSet {
		c, err := r.Compiled()
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		if _, dup := e.rulesByID[c.ID]; dup {
			return nil, fmt.Errorf("engine: duplicate rule id %q", c.ID)
		}
		e.rules[i] = c
		e.rulesByID[c.ID] = c
	}
	e.scanner = rules.NewScanner(e.rules)
	e.ruleDigest = rules.Digest(e.rules)
	e.pages = make(map[string]*Page)
	e.buildAltHosts()
	if err := e.initSpill(); err != nil {
		return nil, err
	}
	return e, nil
}

// Close stops ingest: it waits for the reports being processed to finish,
// makes every later submission fail with ErrShuttingDown, and closes the
// spill tier's segment files. Pages keep being served from the state the
// engine holds. It is safe to call more than once.
func (e *Engine) Close() error {
	e.closeMu.Lock()
	e.closed = true
	e.closeMu.Unlock()
	if e.spill != nil {
		e.spill.log.Close()
	}
	return nil
}

// Rules returns a copy of the engine's rule set.
func (e *Engine) Rules() []*rules.Rule {
	return append([]*rules.Rule(nil), e.rules...)
}

// RuleChange describes one activation-state transition made while handling
// a report.
type RuleChange struct {
	RuleID string
	// Action is "activate", "advance" (next alternative), "keep"
	// (alternate violated but still beats the default), "deactivate"
	// (reverted to default) or "expire".
	Action string
	// Server is the violating server that triggered the change, if any.
	Server string
	// AltIndex is the alternative in effect after the change.
	AltIndex int
	// Level is the evidence tier that tied the rule to the server
	// (activations only).
	Level MatchLevel
	// Synthesized marks an activation created by population-level rule
	// synthesis rather than the user's own violation history.
	Synthesized bool
}

// AnalysisResult is what HandleReport decided.
type AnalysisResult struct {
	UserID     string
	Violations []Violation
	Changes    []RuleChange
}

// HandleReport runs the full performance analysis of Section 4.2 on one
// client report: group objects by server, detect violators with the MAD
// criterion, reconcile the user's existing activations (rule history), and
// activate any rules with a connection dependency on a violator.
//
// It is HandleReportCtx with a background context.
func (e *Engine) HandleReport(r *report.Report) (*AnalysisResult, error) {
	return e.HandleReportCtx(context.Background(), r)
}

// HandleReportCtx is HandleReport with a context. The report is validated,
// admitted (WithAdmission; a no-op by default) and processed on the calling
// goroutine. ctx is checked on entry and while waiting for admission; a
// report that has been admitted is processed to completion.
//
// Submitting transfers ownership of a pooled report (DecodePooled /
// DecodeBinaryPooled) to the engine: it is released before this call
// returns, on every path, and the caller must not touch it afterwards.
func (e *Engine) HandleReportCtx(ctx context.Context, r *report.Report) (*AnalysisResult, error) {
	defer r.Release()
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.gate != nil {
		if err := e.admit(ctx); err != nil {
			return nil, err
		}
		defer e.gate.leave()
	}
	return e.process(r)
}

// process analyses one validated, admitted report against the report's
// shard, unless the engine has been closed.
func (e *Engine) process(r *report.Report) (*AnalysisResult, error) {
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed {
		return nil, ErrShuttingDown
	}
	sh := e.shardFor(r.UserID)
	start := time.Now()
	defer func() { sh.ingest.Observe(time.Since(start)) }()

	now := e.now()
	sc := ingestPool.Get().(*ingestScratch)
	servers := sc.group.View(r)
	violations := sc.detect.detect(servers, e.policy.MADMultiplier)
	e.metrics.reportsHandled.Add(1)
	e.metrics.entriesProcessed.Add(uint64(len(r.Entries)))
	e.metrics.violationsDetected.Add(uint64(len(violations)))

	// Script URLs the client actually loaded, for the external-JS tier.
	sc.scripts = sc.scripts[:0]
	for _, s := range servers {
		sc.scripts = append(sc.scripts, s.ScriptURLs...)
	}

	sh.mu.Lock()
	res, outcomes := e.analyzeLocked(sh, r, now, servers, violations, sc.scripts)
	sh.mu.Unlock()

	// The violations are all that outlives the scratch: their servers are
	// copied out of it before it goes back to the pool.
	for i := range res.Violations {
		res.Violations[i].Server = res.Violations[i].Server.Clone()
	}
	ingestPool.Put(sc)

	// Population-level guard outcomes are observed only after the shard lock
	// is released: a trip rebuilds the epoch table, work no shard should wait
	// on.
	for _, oc := range outcomes {
		e.ObserveProviderOutcome(oc.provider, oc.good, oc.deltaMs)
	}
	// The population window tick locks shards one at a time to swap their
	// sketches out, which would deadlock from under sh.mu.
	e.popTickIfDue(now)
	// And the residency cap: eviction re-takes the shard lock and may fsync
	// a spill batch, neither of which belongs inside the critical section.
	e.enforceResidency(sh)
	return res, nil
}

// analyzeLocked is process's per-shard critical section: profile
// bookkeeping, dead-activation pruning, violation handling and activation.
// It additionally derives the report's population-level provider outcomes for
// the guard (from the pre-reconciliation activation state) and hands them
// back for the caller to observe lock-free. Caller holds sh.mu for writing.
func (e *Engine) analyzeLocked(sh *shard, r *report.Report, now time.Time, servers []*report.ServerPerf, violations []Violation, scriptURLs []string) (*AnalysisResult, []providerOutcome) {
	prof := e.profileLocked(sh, r.UserID)
	prof.lastReport = now
	prof.version++
	if e.tracing() {
		e.traceAt(now, obs.Event{
			Kind: obs.EventReport, User: r.UserID,
			Detail: reportDetail(r.Page, len(r.Entries), len(servers), len(violations)),
		})
	}

	e.feedPopLocked(sh, servers)

	res := &AnalysisResult{UserID: r.UserID, Violations: violations}

	// Dead activations go before anything reads the profile: a lapsed one is
	// an expiry, a rolled-back one counted by the report that finds it.
	for _, a := range prof.pruneDead(now, e.epochs.Load()) {
		ev := obs.Event{Kind: obs.EventExpire, User: r.UserID, RuleID: a.Rule.ID}
		if a.Expired(now) {
			e.metrics.ruleExpirations.Add(1)
			res.Changes = append(res.Changes, RuleChange{RuleID: a.Rule.ID, Action: "expire"})
		} else {
			e.metrics.bulkDeactivations.Inc()
			ev.Kind = obs.EventRollback
		}
		if e.tracing() {
			if ev.Kind == obs.EventRollback {
				ev.Provider = strings.Join(e.altHostsFor(a.Rule.ID, a.AltIndex), ",")
				ev.Detail = fmt.Sprintf("alt %d rolled back: epoch %d", a.AltIndex, a.Epoch)
			}
			e.traceAt(now, ev)
		}
	}

	outcomes := e.collectOutcomes(prof, servers, violations)

	for _, v := range violations {
		count, ok := prof.recordViolation(v.Server.Addr)
		if !ok {
			continue // the profile is full (maxProfileSize)
		}
		if e.tracing() {
			e.traceAt(now, obs.Event{
				Kind: obs.EventViolator, User: r.UserID, Provider: v.Server.Addr,
				Detail: violatorDetail(v.Metric, v.Distance, count),
			})
		}

		// Rule history (Section 4.2.3): if the violator is the alternate of
		// an already-active rule, decide between keeping the alternate,
		// advancing to the next one, and reverting to the default by
		// minimising distance from the median.
		handled := e.reconcileActiveRules(sh, prof, v, now, res)
		if handled {
			continue
		}

		if count < e.policy.MinViolations {
			continue // policy says not yet
		}

		// Activation (Section 4.2.2): find rules with a connection
		// dependency on the violator and activate them for this user.
		for _, rule := range e.rules {
			if !rule.InScope(r.Page) {
				continue
			}
			if a := prof.activeRule(rule.ID); a != nil && !a.deadAt(now, e.epochs.Load()) {
				continue // already active
			}
			level := e.matcher.Match(rule, v.Server, scriptURLs)
			if level == MatchNone {
				continue
			}
			pref := 0
			if rule.Type != rules.TypeRemove {
				pref = e.policy.SelectAlternative(rule, -1, r.UserID)
			}
			altIdx, epoch, blockedBy := e.admitLocked(prof, rule, v.Server.Addr, now, "activation", pref)
			if blockedBy != "" {
				// The target provider (or the rule itself) is quarantined:
				// this user is never steered onto a known-bad alternate.
				e.metrics.activationsBlocked.Inc()
				if e.tracing() {
					e.traceAt(now, obs.Event{
						Kind: obs.EventQuarantine, User: r.UserID, RuleID: rule.ID,
						Provider: blockedBy,
						Detail:   fmt.Sprintf("activation blocked, alt %d", pref),
					})
				}
			}
			if altIdx < 0 {
				continue // blocked, or a full profile (skipped, not blocked)
			}
			prof.activate(rule, altIdx, epoch, now, v.Server.Addr, v.Distance) // admitted: it fits
			e.metrics.ruleActivations.Add(1)
			res.Changes = append(res.Changes, RuleChange{
				RuleID: rule.ID, Action: "activate", Server: v.Server.Addr,
				AltIndex: altIdx, Level: level,
			})
			if e.tracing() {
				e.traceAt(now, obs.Event{
					Kind: obs.EventActivate, User: r.UserID, RuleID: rule.ID,
					Provider: v.Server.Addr,
					Detail:   fmt.Sprintf("%s match, alt %d", level, altIdx),
				})
			}
		}
	}

	// Population-level synthesis: if the report touched a provider the
	// population detector has flagged, activate matching rules for this user
	// now, without waiting for their personal violation count.
	e.synthesizeLocked(prof, r, now, servers, res)

	// The report may have grown the profile; keep the shard's resident-bytes
	// estimate honest for the byte cap.
	e.noteProfileSizeLocked(sh, prof)

	return res, outcomes
}

// reconcileActiveRules implements the rule-history decision for one
// violation. It returns true if the violator was recognised as the alternate
// of an active rule (in which case normal activation matching is skipped for
// this violator). Caller holds sh.mu for writing.
func (e *Engine) reconcileActiveRules(sh *shard, prof *Profile, v Violation, now time.Time, res *AnalysisResult) bool {
	handled := false
	ids := prof.activeRuleIDsInto(now, e.epochs.Load(), sh.ruleIDScratch)
	sh.ruleIDScratch = ids // keep the (possibly grown) buffer for reuse
	for _, id := range ids {
		a := prof.activeRule(id)
		if a == nil || !MatchesAlternate(a.Rule, a.AltIndex, v.Server) {
			continue
		}
		handled = true
		switch {
		case v.Distance < a.TriggerDistance:
			// The alternate under-performs its current population but is
			// still closer to the median than the original default was:
			// retain it ("attempting to retain rules which outperform the
			// default").
			res.Changes = append(res.Changes, RuleChange{
				RuleID: id, Action: "keep", Server: v.Server.Addr, AltIndex: a.AltIndex,
			})
			if e.tracing() {
				e.traceAt(now, obs.Event{
					Kind: obs.EventKeep, User: prof.UserID, RuleID: id, Provider: v.Server.Addr,
					Detail: fmt.Sprintf("alt dist %.1f < default dist %.1f", v.Distance, a.TriggerDistance),
				})
			}
		case a.AltIndex+1 < len(a.Rule.Alternatives):
			// A fresh alternative remains: progress linearly.
			next := e.policy.SelectAlternative(a.Rule, a.AltIndex, prof.UserID)
			if next == a.AltIndex {
				next = a.AltIndex + 1 // selector refused to move; force progression
			}
			alt, epoch, blockedBy := e.admitLocked(prof, a.Rule, v.Server.Addr, now, "advance", next)
			if blockedBy != "" {
				// The next alternative's provider is quarantined: revert to
				// the default rather than steer the user onto it.
				e.metrics.activationsBlocked.Inc()
				prof.deactivate(id)
				e.metrics.ruleDeactivations.Add(1)
				res.Changes = append(res.Changes, RuleChange{
					RuleID: id, Action: "deactivate", Server: v.Server.Addr,
				})
				if e.tracing() {
					e.traceAt(now, obs.Event{
						Kind: obs.EventQuarantine, User: prof.UserID, RuleID: id,
						Provider: blockedBy,
						Detail:   fmt.Sprintf("advance to alt %d blocked; reverted to default", next),
					})
				}
				break
			}
			if alt < 0 {
				break // a full profile: the alternate stays
			}
			prof.activate(a.Rule, next, epoch, now, v.Server.Addr, v.Distance) // admitted: it fits
			e.metrics.ruleActivations.Add(1)
			res.Changes = append(res.Changes, RuleChange{
				RuleID: id, Action: "advance", Server: v.Server.Addr, AltIndex: next,
			})
			if e.tracing() {
				e.traceAt(now, obs.Event{
					Kind: obs.EventAdvance, User: prof.UserID, RuleID: id, Provider: v.Server.Addr,
					Detail: fmt.Sprintf("alt %d", next),
				})
			}
		default:
			// The alternate is at least as far from the median as the
			// default was and nothing fresh remains: revert.
			prof.deactivate(id)
			e.metrics.ruleDeactivations.Add(1)
			res.Changes = append(res.Changes, RuleChange{
				RuleID: id, Action: "deactivate", Server: v.Server.Addr,
			})
			if e.tracing() {
				e.traceAt(now, obs.Event{
					Kind: obs.EventDeactivate, User: prof.UserID, RuleID: id, Provider: v.Server.Addr,
					Detail: "alternate worse than default",
				})
			}
		}
	}
	return handled
}

// activationViewLocked derives, into buf, the activation view userID's pages
// at path are served from at e.now(): from the resident profile; empty for a
// user with no profile or a spilled record without activations (two map
// probes, no disk); or — only when disk allows it — from a spilled record read
// where it lies (viewRecord; nothing is installed). ok is false, with an empty
// view, when the view needs the disk and disk is false, or the record could
// not be read. Caller holds sh.mu (read suffices).
func (e *Engine) activationViewLocked(sh *shard, userID, path string, disk bool, buf []rules.Activation) (v actView, ok bool) {
	prof, resident := sh.profiles[userID]
	if !resident {
		ref, spilled := sh.spilled.get(userID)
		if !spilled || !ref.active {
			return actView{}, true
		}
		if !disk {
			return actView{}, false
		}
		if prof = e.viewRecord(ref); prof == nil {
			return actView{}, false
		}
	}
	return prof.viewAt(path, e.now(), e.epochs.Load(), buf), true
}

// activationView is activationViewLocked for callers holding no lock. It
// takes the shard's read lock and nothing else, unless a spilled record could
// not be read: what that means (quarantine the segment, degrade the store,
// drop the ref) is rehydrateLocked's to decide, under the write lock, and the
// user is then served from whatever that left — their profile if the read
// succeeded after all, otherwise nothing, the untouched page.
func (e *Engine) activationView(userID, path string, buf []rules.Activation) actView {
	sh := e.shardFor(userID)
	sh.mu.RLock()
	v, ok := e.activationViewLocked(sh, userID, path, true, buf)
	sh.mu.RUnlock()
	if ok {
		return v
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e.rehydrateLocked(sh, userID)
	v, _ = e.activationViewLocked(sh, userID, path, false, buf)
	return v
}

// ActiveRules returns the rule applications live for the user on the given
// page path at this instant, sorted by rule ID: what a serve of the page now
// would apply. Each call derives the list afresh from the profile (or the
// spilled record); the returned slice is the caller's to keep.
func (e *Engine) ActiveRules(userID, path string) []rules.Activation {
	return e.activationView(userID, path, nil).acts
}

// ActivationFingerprint returns the fingerprint of the user's activation
// set for path at this instant: a cheap hash over the path and every (rule
// ID, alternative) pair, derived afresh on each call. Zero means no in-scope
// activations — the page would be served untouched. Equal fingerprints
// guarantee byte-identical rewrites of the same page.
func (e *Engine) ActivationFingerprint(userID, path string) uint64 {
	var buf [viewBufLen]rules.Activation
	return e.activationView(userID, path, buf[:0]).fp
}

// ProfileSnapshot is a read-only view of a user's profile state.
type ProfileSnapshot struct {
	UserID      string
	ActiveRules []string
	Violations  map[string]int
	LastReport  time.Time
	// Version counts the reports ever applied to the profile.
	Version uint64
}

// Snapshot returns the profile state for a user, or false if unknown.
//
// Like every serve-side read it leaves a spilled user spilled: their record
// is read in place, and only if it cannot be read does the call take the
// write lock, for rehydrateLocked to dispose of the ref.
func (e *Engine) Snapshot(userID string) (ProfileSnapshot, bool) {
	sh := e.shardFor(userID)
	sh.mu.RLock()
	prof := sh.profiles[userID]
	unreadable := false
	if prof == nil {
		if ref, spilled := sh.spilled.get(userID); spilled {
			prof = e.viewRecord(ref)
			unreadable = prof == nil
		}
	}
	if !unreadable {
		defer sh.mu.RUnlock()
	} else {
		sh.mu.RUnlock()
		sh.mu.Lock()
		defer sh.mu.Unlock()
		e.rehydrateLocked(sh, userID)
		prof = sh.profiles[userID]
	}
	if prof == nil {
		return ProfileSnapshot{}, false
	}
	snap := ProfileSnapshot{
		UserID:      userID,
		ActiveRules: prof.activeRuleIDsInto(e.now(), e.epochs.Load(), nil),
		Violations:  make(map[string]int, len(prof.violations)),
		LastReport:  prof.lastReport,
		Version:     prof.version,
	}
	for k, n := range prof.violations {
		snap.Violations[k] = n
	}
	return snap, true
}

// Users returns the number of profiles the engine holds, summed shard by
// shard (weakly consistent under concurrent ingest).
func (e *Engine) Users() int {
	// Lock-free by design: healthz calls this, and a liveness probe must
	// answer even while a shard is wedged mid-ingest (stuck script fetch,
	// saturated admission). Each shard mirrors its profile count in a gauge.
	total := int64(0)
	for _, sh := range e.shards {
		total += sh.users.Value()
	}
	if e.spill != nil {
		// Spilled profiles are still the engine's users — they are served
		// and counted; only their bytes live on disk.
		total += e.spill.spilledUsers.Value()
	}
	return int(total)
}

// reportDetail renders the EventReport detail line. It fires once per
// ingested report, hot enough that fmt.Sprintf's reflection showed up in
// profiles; the output is byte-identical to the Sprintf it replaced, at one
// allocation (the builder's own buffer, handed off by String).
func reportDetail(page string, objects, servers, violators int) string {
	var tmp [20]byte
	var b strings.Builder
	b.Grow(len(page) + 48)
	b.WriteString("page ")
	b.WriteString(page)
	b.WriteString(": ")
	b.Write(strconv.AppendInt(tmp[:0], int64(objects), 10))
	b.WriteString(" objects, ")
	b.Write(strconv.AppendInt(tmp[:0], int64(servers), 10))
	b.WriteString(" servers, ")
	b.Write(strconv.AppendInt(tmp[:0], int64(violators), 10))
	b.WriteString(" violators")
	return b.String()
}

// violatorDetail renders the EventViolator detail line (one per violation,
// same byte-identical-to-Sprintf contract as reportDetail).
func violatorDetail(metric MetricKind, distance float64, count int) string {
	var tmp [32]byte
	var b strings.Builder
	b.Grow(64)
	b.WriteString(metric.String())
	b.WriteByte(' ')
	b.Write(strconv.AppendFloat(tmp[:0], distance, 'f', 1, 64))
	b.WriteString(" beyond median, violation #")
	b.Write(strconv.AppendInt(tmp[:0], int64(count), 10))
	return b.String()
}

// tracing reports whether any trace sink is attached. Hot paths gate event
// construction on it — building an obs.Event (and especially its Sprintf'd
// detail) allocates, and doing that per page served with no sink attached
// is pure waste.
func (e *Engine) tracing() bool {
	return e.traceBuf != nil || e.logf != nil
}

// trace records one decision event in the ring buffer, stamping it with the
// engine clock, and mirrors it to the logf sink when one is configured.
func (e *Engine) trace(ev obs.Event) {
	e.traceAt(e.now(), ev)
}

// traceAt is trace with the caller's already-read clock value: ingest emits
// several events per report, and re-reading the clock for each showed up in
// profiles.
func (e *Engine) traceAt(now time.Time, ev obs.Event) {
	ev.Time = now
	if e.traceBuf != nil {
		e.traceBuf.Record(ev)
	}
	if e.logf != nil {
		e.logf("%s", ev.String())
	}
}

// TraceRecent returns up to n most recent decision-trace events in
// chronological order. The trace is a bounded ring: older events are
// overwritten (gaps show as jumps in Event.Seq). It returns nil when
// tracing is disabled (WithTraceCapacity(0)).
func (e *Engine) TraceRecent(n int) []obs.Event {
	if e.traceBuf == nil {
		return nil
	}
	return e.traceBuf.Recent(n)
}

// LatencySnapshots are point-in-time copies of the engine's hot-path
// latency histograms.
type LatencySnapshots struct {
	// Ingest is per-report HandleReport latency (grouping through
	// decision-making), merged across all shards.
	Ingest obs.Snapshot
	// IngestShards holds each shard's ingest histogram, indexed by shard.
	// A shard whose latencies stand out from its peers indicates a hot
	// user population (hash skew or a few very busy users).
	IngestShards []obs.Snapshot
	// Rewrite is per-page ModifyPage latency.
	Rewrite obs.Snapshot
	// Rehydrate is per-profile spill-rehydration latency (engines with a
	// profile residency cap; empty otherwise).
	Rehydrate obs.Snapshot
}

// Latencies snapshots the ingest (overall and per shard) and rewrite
// histograms.
func (e *Engine) Latencies() LatencySnapshots {
	ls := LatencySnapshots{
		IngestShards: make([]obs.Snapshot, len(e.shards)),
		Rewrite:      e.rewriteHist.Snapshot(),
		Rehydrate:    e.rehydrateHist.Snapshot(),
	}
	for i, sh := range e.shards {
		ls.IngestShards[i] = sh.ingest.Snapshot()
		ls.Ingest = ls.Ingest.Merge(ls.IngestShards[i])
	}
	return ls
}
