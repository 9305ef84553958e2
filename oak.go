// Package oak implements Oak, a system for user-targeted web performance
// (Flores, Wenzel, Kuzmanovic — "Oak: User-Targeted Web Performance").
//
// Oak sits beside a web server. Oak-enabled clients measure every object
// they download while loading a page and report those timings back. For
// each user individually, Oak detects external servers that under-perform
// relative to the other servers that same user contacted (a median-absolute-
// deviation criterion), and activates operator-written rules that rewrite
// the user's future pages to fetch the affected objects from an alternative
// provider — or to drop them.
//
// The essential loop:
//
//	rules, _ := oak.ParseRules(ruleText)
//	engine, _ := oak.NewEngine(rules)
//	server := oak.NewServer(engine)     // an http.Handler
//	server.SetPage("/index.html", html)
//	// clients GET pages and POST reports to /oak/v1/report;
//	// each user's pages adapt to that user's own reported performance.
//
// Page registry lifecycle: a Server's pages are live state, safe to mutate
// while serving. SetPage registers or replaces the markup at a path,
// RemovePage retires it (subsequent requests 404; per-user rule state is
// untouched), Pages lists what is registered, and Server.LoadPages — or the
// WithPagesFrom server option, for embedded bundles — registers every
// *.html file in an fs.FS. Rules rewrite pages at delivery time, so page
// updates take effect on the next request without engine involvement.
//
// Scaling: per-user state is sharded (WithShards) so reports for different
// users ingest in parallel, each analysed on the goroutine that submitted
// it; WithAdmission bounds how many may be in flight and sheds the excess
// (503 + Retry-After) instead of queueing it. POST /oak/v1/report also
// accepts an NDJSON batch body (Content-Type application/x-ndjson, one
// report per line) and the compact OAKRPT1 binary wire format
// (BinaryContentType for one report, BinaryBatchContentType for a batch of
// length-prefixed frames — roughly half the wire bytes of JSON; a Client
// opts in with Wire = WireBinary). Ingest itself is a pooled fast path:
// reports are decoded with a zero-copy streaming decoder into sync.Pool-
// recycled structs, so the steady-state JSON path holds at a handful of
// allocations per report. Close an engine on shutdown: it stops ingest
// and releases the spill tier's files.
//
// Package layout: the facade re-exports the pieces a deployment needs —
// the engine (internal/core), the rule language (internal/rules), the
// report format (internal/report), the HTTP server (internal/origin) and
// an instrumented client (internal/client). The internal packages also
// contain the full simulation substrate (internal/netsim, internal/webgen)
// and the paper-reproduction harness (internal/experiment) driven by
// cmd/oakbench and the repository benchmarks.
package oak

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"time"
	"unicode"

	"oak/internal/client"
	"oak/internal/core"
	"oak/internal/gateway"
	"oak/internal/guard"
	"oak/internal/obs"
	"oak/internal/origin"
	"oak/internal/report"
	"oak/internal/rules"
)

// Rule is one operator-specified page rewrite rule (Section 4.1 of the
// paper): a block of default text, what may replace it, how long an
// activation lives, and which pages it applies to.
type Rule = rules.Rule

// SubRule is a dependent replacement applied only when its parent rule is
// active.
type SubRule = rules.SubRule

// RuleType selects remove / replace-identical / replace-alternative
// semantics.
type RuleType = rules.Type

// Rule types.
const (
	// TypeRemove removes the default text (paper Type 1).
	TypeRemove = rules.TypeRemove
	// TypeReplaceSame swaps in the identical object from an alternative
	// source (paper Type 2); clients receive cache hints for these.
	TypeReplaceSame = rules.TypeReplaceSame
	// TypeReplaceAlt swaps in a different object (paper Type 3).
	TypeReplaceAlt = rules.TypeReplaceAlt
)

// CacheHintHeader carries old=new URL pairs for Type 2 replacements so
// browsers can reuse cached copies fetched under the old URL (Section 4.3).
const CacheHintHeader = rules.CacheHintHeader

// Report is one page-load performance report from one client: the loaded
// URL, size and timing of every object, in the paper's HAR-like format.
type Report = report.Report

// Entry is one object download inside a report.
type Entry = report.Entry

// Engine is the Oak decision core: it ingests reports, maintains per-user
// profiles, detects violators and rewrites pages. Safe for concurrent use.
type Engine = core.Engine

// Policy tunes the engine: the MAD multiplier, the violations needed before
// a rule activates, alternative selection, and rule-matching depth.
type Policy = core.Policy

// EngineOption configures NewEngine.
type EngineOption = core.Option

// Violation describes one server flagged as under-performing for one user.
type Violation = core.Violation

// AnalysisResult is what handling one report decided. Engine.HandleReport
// produces one synchronously; Engine.HandleReportCtx is the context-aware
// form (cancellation abandons a report still waiting for admission).
type AnalysisResult = core.AnalysisResult

// Admission bounds ingest (see WithAdmission): how many reports may be in
// analysis at once, how long one may wait for room before it is shed, and
// what retry horizon a shed advertises.
type Admission = core.Admission

// BatchResult summarises one batch ingest: reports submitted, processed,
// failed, and a capped sample of failure messages. BatchSink.Wait returns
// one after Engine.StartBatch and a Submit per report — each ingested in
// order on the calling goroutine, so callers wanting parallelism run batches
// concurrently; the origin server serves it as the NDJSON batch response.
type BatchResult = core.BatchResult

// Resilience errors. Handlers map ErrOverloaded and ErrShuttingDown to
// 503 + Retry-After; state errors mark snapshots the engine refused to load
// (LoadStateFile falls back to the rotating backup on them).
var (
	// ErrShuttingDown is returned by report submission after Engine.Close.
	ErrShuttingDown = core.ErrShuttingDown
	// ErrOverloaded is returned (wrapped in *OverloadError) when the
	// admission bound sheds a report instead of making it wait.
	ErrOverloaded = core.ErrOverloaded
	// ErrCorruptState marks a snapshot or state file that failed checksum,
	// framing or structural validation.
	ErrCorruptState = core.ErrCorruptState
	// ErrStateVersion marks a snapshot or state file from an incompatible format version.
	ErrStateVersion = core.ErrStateVersion
)

// OverloadError is the concrete shed error: errors.Is(err, ErrOverloaded)
// matches it, and errors.As extracts the RetryAfter hint the origin server
// turns into a Retry-After header.
type OverloadError = core.OverloadError

// DefaultRetryAfter is the advertised retry horizon when an Admission does
// not set one.
const DefaultRetryAfter = core.DefaultRetryAfter

// StateSource reports where the engine's state came from: StateFresh (no
// file), StateSnapshot (primary), StateBackup (primary missing or corrupt;
// recovered from the rotating .bak), or StateShipped (rehydrated over HTTP
// from a snapshot shipped by another node — see Engine.ImportShippedState
// and the cluster gateway).
type StateSource = core.StateSource

// State sources.
const (
	StateFresh    = core.StateFresh
	StateSnapshot = core.StateSnapshot
	StateBackup   = core.StateBackup
	StateShipped  = core.StateShipped
)

// BootStatus says what starting the engine did with its durable state
// (Engine.BootStatus): which checkpoint the segment replay adopted under a
// residency cap, what it made of the checkpoint's index, and what the replay
// and the load each cost.
type BootStatus = core.BootStatus

// HashRange is one half-open arc [Lo, Hi) of the 32-bit user-hash ring —
// the unit of per-user-range state export (Engine.ExportSnapshotRange,
// Engine.ImportStateRange) and of cluster partitioning. Lo == Hi means the
// whole ring; Lo > Hi wraps around zero.
type HashRange = core.HashRange

// EqualRanges partitions the user-hash ring into n equal arcs — the
// partition map the cluster gateway assigns to n backends.
func EqualRanges(n int) []HashRange { return core.EqualRanges(n) }

// RangeFor returns the index of the arc in ranges owning userID's hash,
// or -1 when no arc contains it.
func RangeFor(userID string, ranges []HashRange) int { return core.RangeFor(userID, ranges) }

// UserHash is the engine's user-to-ring hash (FNV-1a over the user ID) —
// the same function that stripes users across shards, exported so external
// routing layers partition exactly the way the engine does.
func UserHash(userID string) uint32 { return core.UserHash(userID) }

// RetryPolicy bounds the client's retries (attempts, exponential backoff
// with jitter) for object fetches, page fetches and report submission.
type RetryPolicy = client.RetryPolicy

// StatusClientClosedRequest is the 499 status (nginx convention) the origin
// responds with when the client abandoned the request mid-ingest.
const StatusClientClosedRequest = origin.StatusClientClosedRequest

// EngineMetrics are the engine's aggregate counters.
type EngineMetrics = core.Metrics

// TraceEvent is one recorded engine decision (report ingested, violator
// flagged, rule activated/advanced/kept/deactivated/expired, page
// modified). Engine.TraceRecent(n) returns the latest; the origin server
// serves them at TracePathV1.
type TraceEvent = obs.Event

// LatencySnapshot is a point-in-time copy of one hot-path latency
// histogram; Quantile/Mean/Summary extract percentiles.
type LatencySnapshot = obs.Snapshot

// EngineLatencies pairs the engine's ingest and rewrite histograms,
// returned by Engine.Latencies and served at MetricsPathV1.
type EngineLatencies = core.LatencySnapshots

// AuditReport is the operator-facing summary of what Oak has learned —
// the paper's "offline auditing tool". Engine.Audit() builds one; the
// origin server also serves it at AuditPath.
type AuditReport = core.Audit

// Server is the Oak-fronted origin: an http.Handler that issues identifying
// cookies, rewrites outgoing pages per user, and ingests POSTed reports on
// ReportPath.
type Server = origin.Server

// ContentServer is a configurable external content server for tests,
// examples and local experiments (objects, scripts, adjustable delay).
type ContentServer = origin.ContentServer

// Client is an Oak-enabled HTTP client: it loads pages, measures every
// object download, and reports the timings back — the role the paper's
// modified browser plays.
type Client = client.HTTPClient

// LoadResult is a completed client page load: the report plus the effective
// page load time.
type LoadResult = client.LoadResult

// HostResolver maps hostnames in page markup to reachable addresses.
type HostResolver = client.HostResolver

// WireFormat selects how a Client encodes report submissions: WireJSON
// (the default) or WireBinary, the compact OAKRPT1 framing, which cuts
// report wire bytes roughly in half. Set Client.Wire to opt in; servers
// negotiate by Content-Type, so a pre-binary origin answers 400 rather
// than silently mis-parsing.
type WireFormat = client.WireFormat

const (
	// WireJSON submits reports as JSON (the default, understood by
	// every Oak origin).
	WireJSON = client.WireJSON
	// WireBinary submits reports as OAKRPT1 binary frames
	// (Content-Type BinaryContentType).
	WireBinary = client.WireBinary
)

// Wire-level constants of the origin server. The API is versioned: every
// endpoint answers under /oak/v1/... and nowhere else.
const (
	// CookieName is the identifying cookie Oak issues to clients.
	CookieName = origin.CookieName
	// V1Prefix is the versioned API mount point ("/oak/v1").
	V1Prefix = origin.V1Prefix
	// ReportPathV1 is the HTTP POST endpoint for performance reports: one
	// JSON report per request, or — with Content-Type BatchContentType —
	// an NDJSON batch of one report per line.
	ReportPathV1 = origin.ReportPathV1
	// BatchContentType marks a report body as an NDJSON batch.
	BatchContentType = origin.BatchContentType
	// BinaryContentType marks a report body as a single OAKRPT1 binary
	// frame (the compact wire format Client.Wire = WireBinary emits).
	BinaryContentType = report.ContentTypeBinary
	// BinaryBatchContentType marks a report body as concatenated
	// length-prefixed OAKRPT1 frames.
	BinaryBatchContentType = report.ContentTypeBinaryBatch
	// AuditPathV1 serves the operator audit summary. Restrict access in
	// deployments: it is operator-facing.
	AuditPathV1 = origin.AuditPathV1
	// MetricsPathV1 serves engine counters and ingest/rewrite latency
	// histograms as JSON. Operator-facing.
	MetricsPathV1 = origin.MetricsPathV1
	// HealthzPathV1 serves a liveness summary (uptime, rule/user counts).
	HealthzPathV1 = origin.HealthzPathV1
	// TracePathV1 serves recent decision-trace events as JSON (?n=100).
	// Operator-facing.
	TracePathV1 = origin.TracePathV1
	// PopulationPathV1 serves the population-detection state (degraded
	// providers, baselines, synthesis counters); 404 without WithSynthesis.
	PopulationPathV1 = origin.PopulationPathV1
)

// NewEngine builds an Oak engine over a compiled rule set.
func NewEngine(ruleSet []*Rule, opts ...EngineOption) (*Engine, error) {
	return core.NewEngine(ruleSet, opts...)
}

// WithPolicy sets the engine policy (zero fields take paper defaults:
// MAD multiplier 2, one violation, linear alternative progression, full
// match pipeline with one script layer).
func WithPolicy(p Policy) EngineOption { return core.WithPolicy(p) }

// WithScriptFetcher enables the external-JavaScript matching tier
// (Section 4.2.2) using the given fetcher.
func WithScriptFetcher(f core.ScriptFetcher) EngineOption { return core.WithScriptFetcher(f) }

// WithClock overrides the engine's time source.
func WithClock(now func() time.Time) EngineOption { return core.WithClock(now) }

// WithLogf directs engine decision logging to a printf-style sink. The
// structured source of these lines is the decision trace (TraceRecent).
func WithLogf(logf func(format string, args ...any)) EngineOption { return core.WithLogf(logf) }

// WithTraceCapacity sizes the engine's decision-trace ring buffer (the
// window TracePathV1 serves); default 1024 events.
func WithTraceCapacity(n int) EngineOption { return core.WithTraceCapacity(n) }

// WithShards sets how many lock-striped shards partition per-user state
// (rounded up to a power of two; default four per logical CPU). Reports for
// users on different shards ingest fully in parallel.
func WithShards(n int) EngineOption { return core.WithShards(n) }

// WithAdmission bounds ingest to a.MaxInFlight reports in analysis at once.
// A report that finds no room waits up to a.MaxWait (negative: until its
// context is cancelled) and is otherwise shed with an *OverloadError,
// keeping page serving responsive while ingest is saturated.
func WithAdmission(a Admission) EngineOption { return core.WithAdmission(a) }

// ResidencyConfig enables and tunes the profile spill tier (see
// WithProfileResidency): the segment directory, the resident caps
// (MaxProfiles and/or MaxBytes — either alone works, both combine), the
// segment rotation size and the dead-record ratio that triggers compaction.
type ResidencyConfig = core.ResidencyConfig

// WithProfileResidency bounds how much per-user state stays resident in
// memory. Profiles beyond the cap are evicted coldest-first into compact
// binary append-log segments (written and fsynced before the in-memory copy
// is dropped, so an acknowledged report is never lost to a crash) and
// rehydrated on the user's next report; a page request for a spilled user is
// served from the record in place and moves nothing.
// Spilled profiles participate fully in ExportState/ExportSnapshot — a
// snapshot is byte-identical whichever side of the cap each profile is on.
// Disk faults on the spill path degrade the engine to memory-only mode:
// evictions stop, serving continues, and healthz reports "degraded". See
// docs/OPERATIONS.md, "Memory & the spill tier".
func WithProfileResidency(cfg ResidencyConfig) EngineOption { return core.WithProfileResidency(cfg) }

// SpillStatus is the spill tier's externally visible state (residency
// counts, segment footprint, quarantined segments, counters), returned by
// Engine.SpillStatus and served under "spill" in /oak/v1/metrics.
type SpillStatus = core.SpillStatus

// GuardConfig enables and tunes the engine's population-level guardrails:
// per-provider circuit breakers over alternate providers (closed → open →
// half-open, fed by outcomes pooled across all users and by the optional
// active prober) and automatic quarantine of rules implicated in repeated
// rewrite panics. Zero fields take the defaults (trip after 5 consecutive
// bad outcomes, 30s cool-down, 3 half-open canaries, close after 2 good
// canary outcomes, rule quarantine after 3 panics).
type GuardConfig = core.GuardConfig

// WithGuard enables the guardrails. An open breaker blocks new activations
// onto its provider and rolls existing ones back; a half-open breaker
// admits a bounded number of canary activations and closes only on good
// observed outcomes. Guard state persists in snapshots (pre-guard snapshots
// load with empty guard state); breaker states surface in /oak/v1/metrics
// ("guard") and open breakers in /oak/v1/healthz ("open_breakers").
func WithGuard(cfg GuardConfig) EngineOption { return core.WithGuard(cfg) }

// GuardStatus is the guard's externally visible state (breakers, quarantined
// providers and rules, canary counts), returned by Engine.GuardStatus and
// served under "guard" in /oak/v1/metrics.
type GuardStatus = core.GuardStatus

// BreakerStatus is one provider breaker's state inside a GuardStatus.
type BreakerStatus = guard.ProviderStatus

// Prober actively probes alternate providers and feeds the outcomes into the
// engine's breakers, so a dead provider is caught (and a recovered one
// re-admitted) even while no user is loading from it. Typical wiring:
//
//	p := &oak.Prober{
//		Targets:  engine.AlternateProviders,
//		Report:   engine.ObserveProviderOutcome,
//		Interval: 30 * time.Second,
//	}
//	p.Start()
//	defer p.Stop()
type Prober = guard.Prober

// SynthesisConfig enables and tunes population-level detection and
// automatic rule synthesis: per-provider download-time sketches fed on
// every report, a window-vs-trailing-baseline quantile comparison that
// flags globally degraded providers, and a synthesizer that activates
// matching catalog rules for affected users before they individually
// accumulate enough violations. Zero fields take defaults (2m window,
// 1.5× degrade factor on the p75, 20 samples minimum, 64 providers).
type SynthesisConfig = core.SynthesisConfig

// WithSynthesis enables population-level detection and rule synthesis.
// Synthesized activations carry provenance (trace kind "synthesize",
// synthesized flags in snapshots and the audit trail) and are admitted
// through the guard breakers like organic ones, so a bad synthetic rule
// self-rolls-back. Degraded providers surface in /oak/v1/metrics
// ("population"), /oak/v1/healthz ("degraded_providers") and the dedicated
// /oak/v1/population endpoint; Engine.MarkDegraded / Engine.ClearDegraded
// are the manual override verbs.
func WithSynthesis(cfg SynthesisConfig) EngineOption { return core.WithSynthesis(cfg) }

// PopulationStatus is the population layer's externally visible state
// (degraded providers, per-provider baseline quantiles, top providers,
// synthesis counters), returned by Engine.PopulationStatus and served at
// PopulationPathV1.
type PopulationStatus = core.PopulationStatus

// ServerOption configures NewServer.
type ServerOption = origin.Option

// WithUserIDFunc overrides how the origin server identifies the user behind
// a request (for both page delivery and report ingestion). When the
// function returns "", the default cookie mechanism applies.
func WithUserIDFunc(f func(r *http.Request) string) ServerOption { return origin.WithUserIDFunc(f) }

// WithMaxBodyBytes bounds single-report POST bodies (default 4 MB). Batch
// bodies, NDJSON or OAKRPT1, may total 16× the bound, each report in them
// under it.
func WithMaxBodyBytes(n int64) ServerOption { return origin.WithMaxBodyBytes(n) }

// WithPagesFrom registers every *.html file in fsys at its slash-rooted
// path. Intended for embedded page bundles (embed.FS): a filesystem that
// fails mid-walk panics. Load pages from disk with Server.LoadPages, which
// reports errors instead.
func WithPagesFrom(fsys fs.FS) ServerOption { return origin.WithPagesFrom(fsys) }

// WithRewriteBudget bounds how long page delivery waits for the per-user
// rewrite before serving the page unmodified (degraded but available);
// default 500ms, non-positive disables the bound.
func WithRewriteBudget(d time.Duration) ServerOption { return origin.WithRewriteBudget(d) }

// NewServer wraps an engine as an Oak-fronted origin server. With no
// options it behaves exactly like the historical NewServer(engine):
// cookie-based identity, default body limits, empty page registry.
func NewServer(engine *Engine, opts ...ServerOption) *Server {
	return origin.NewServer(engine, opts...)
}

// NewContentServer returns an empty external content server.
func NewContentServer() *ContentServer { return origin.NewContentServer() }

// Gateway is the cluster tier: an http.Handler that partitions users
// across a fleet of oakd backends by UserHash, fails requests over when a
// backend struggles, re-broadcasts breaker trips and degraded episodes
// fleet-wide, and replaces dead nodes from continuously polled snapshots.
// Deployed standalone as cmd/oakgw; see the "Running a cluster" runbook in
// docs/OPERATIONS.md.
type Gateway = gateway.Gateway

// GatewayConfig configures NewGateway: the backend base URLs (one per
// hash-ring arc), the optional standby, and the probe / forward / snapshot
// cadences. Zero fields take defaults.
type GatewayConfig = gateway.Config

// NewGateway builds a cluster gateway over a fleet of oakd base URLs. Call
// Start to run the background probe, control-sweep and snapshot loops, and
// Close to stop them.
func NewGateway(cfg GatewayConfig) (*Gateway, error) { return gateway.NewGateway(cfg) }

// RuleSet is a parsed operator rule configuration: the unit LoadRules
// returns, NewEngine consumes (via .Rules), and MarshalJSON round-trips.
// The zero value is an empty, valid rule set.
type RuleSet struct {
	// Rules are the compiled-order rules, ready for NewEngine.
	Rules []*Rule
}

// Lint inspects the set for mistakes that compile fine but misbehave in
// production. Warnings are advisory; see LintRules.
func (rs *RuleSet) Lint() []LintWarning { return rules.Lint(rs.Rules) }

// MarshalJSON encodes the set in the JSON rule configuration format (the
// same format LoadRules auto-detects), as indented JSON.
func (rs *RuleSet) MarshalJSON() ([]byte, error) { return rules.MarshalJSON(rs.Rules) }

// LoadRules reads a rule configuration and auto-detects its format: input
// whose first non-space byte is '[' or '{' parses as the JSON rule format,
// anything else as the operator rule DSL. This is the one entry point that
// subsumes ParseRules (DSL) and ParseRulesJSON (JSON):
//
//	f, _ := os.Open("rules.conf")
//	rs, err := oak.LoadRules(f)
//	engine, err := oak.NewEngine(rs.Rules)
func LoadRules(r io.Reader) (*RuleSet, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("oak: read rules: %w", err)
	}
	trimmed := bytes.TrimLeftFunc(data, unicode.IsSpace)
	if len(trimmed) > 0 && (trimmed[0] == '[' || trimmed[0] == '{') {
		parsed, err := rules.ParseJSON(data)
		if err != nil {
			return nil, err
		}
		return &RuleSet{Rules: parsed}, nil
	}
	parsed, err := rules.ParseDSL(string(data))
	if err != nil {
		return nil, err
	}
	return &RuleSet{Rules: parsed}, nil
}

// ParseRules parses the operator rule DSL (heredoc blocks for HTML
// fragments; see internal/rules.ParseDSL for the grammar). Thin wrapper
// kept for compatibility; prefer LoadRules, which auto-detects the format.
func ParseRules(text string) ([]*Rule, error) { return rules.ParseDSL(text) }

// ParseRulesJSON parses the JSON rule configuration format. Thin wrapper
// kept for compatibility; prefer LoadRules, which auto-detects the format.
func ParseRulesJSON(data []byte) ([]*Rule, error) { return rules.ParseJSON(data) }

// MarshalRules encodes a rule set as indented JSON. Thin wrapper kept for
// compatibility; prefer RuleSet.MarshalJSON.
func MarshalRules(rs []*Rule) ([]byte, error) { return rules.MarshalJSON(rs) }

// LintWarning is one advisory finding from LintRules.
type LintWarning = rules.LintWarning

// LintRules inspects a rule set for mistakes that compile fine but
// misbehave in production (alternatives still pointing at the avoided host,
// shadowed fragments, no-op sub-rules, ...). Warnings are advisory.
func LintRules(rs []*Rule) []LintWarning { return rules.Lint(rs) }

// UnmarshalReport decodes a JSON report body.
func UnmarshalReport(data []byte) (*Report, error) { return report.Decode(data) }

// ReportFromHAR converts a browser-devtools HTTP Archive export into an Oak
// report for the given user, so captured real sessions can be fed through
// the engine or the offline analyser.
func ReportFromHAR(data []byte, userID string) (*Report, error) {
	return report.FromHAR(data, userID)
}

// Persistence: Engine.ExportState serialises all per-user state (violation
// counters, live activations) and Engine.ImportState restores it, so an Oak
// deployment restarts without losing what it learned about its users:
//
//	data, _ := engine.ExportState()
//	os.WriteFile("oak-state.json", data, 0o600)
//	// ... later, on a fresh engine with the same rules:
//	engine.ImportState(data)
//
// For crash safety, prefer the file-level API: Engine.SaveStateFile writes
// a checksummed snapshot atomically (fsync + rename) and rotates the
// previous snapshot to a .bak, and Engine.LoadStateFile restores it,
// falling back to the backup when the primary is missing or corrupt — a
// torn write or flipped bit costs one save interval, never the whole state:
//
//	engine.SaveStateFile("oak-state.json")
//	// ... later:
//	src, err := engine.LoadStateFile("oak-state.json") // src: fresh/snapshot/backup
//
// With WithProfileResidency the file is a checkpoint of the resident profiles
// only, and means something only beside the same spill directory; to move
// state elsewhere, ship ExportSnapshot, which is complete.
