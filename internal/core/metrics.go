package core

import (
	"sync/atomic"

	"oak/internal/obs"
)

// Metrics are the engine's aggregate counters — the "aggregate site
// performance" bookkeeping the paper's server maintains alongside per-user
// state. All counters are monotone and safe to read concurrently.
type Metrics struct {
	// ReportsHandled counts successfully processed performance reports.
	ReportsHandled uint64
	// EntriesProcessed counts object timings across all reports.
	EntriesProcessed uint64
	// ViolationsDetected counts violator flags across all reports.
	ViolationsDetected uint64
	// RuleActivations counts activate + advance transitions.
	RuleActivations uint64
	// RuleDeactivations counts deactivate transitions (history reverts).
	RuleDeactivations uint64
	// RuleExpirations counts TTL lapses observed at report time.
	RuleExpirations uint64
	// PagesModified counts ModifyPage calls that changed the page.
	PagesModified uint64
	// PagesUntouched counts ModifyPage calls that returned the page as-is.
	PagesUntouched uint64
	// ReportsShed counts report submissions refused with ErrOverloaded by
	// the admission bound (WithAdmission).
	ReportsShed uint64
	// StateRecoveries counts boots (LoadStateFile calls) that restored
	// state from the rotating backup because the primary snapshot was
	// damaged or missing.
	StateRecoveries uint64
	// BreakerTrips counts guard breaker trips (including half-open
	// reopens): a provider crossing into quarantine.
	BreakerTrips uint64
	// BreakerCloses counts breakers closing after successful half-open
	// canaries: a provider re-admitted.
	BreakerCloses uint64
	// ActivationsBlocked counts activations (and advances) the guard
	// refused because the target provider's breaker was not admitting.
	ActivationsBlocked uint64
	// BulkDeactivations counts activations rolled back by breaker trips
	// and rule quarantines (one per activation removed, across all users).
	BulkDeactivations uint64
	// CanaryActivations counts activations admitted through a half-open
	// breaker's canary budget.
	CanaryActivations uint64
	// RewritePanics counts panics recovered on the serve path (compiled
	// applier or per-rule fallback); each one served a safe page instead
	// of failing the request.
	RewritePanics uint64
	// RuleQuarantines counts rules auto-quarantined after repeated
	// rewrite panics.
	RuleQuarantines uint64
	// PopulationTrips counts providers flagged as population-degraded
	// (window quantile vs trailing baseline, plus manual MarkDegraded).
	PopulationTrips uint64
	// PopulationRecoveries counts degraded providers returning to baseline
	// (plus manual ClearDegraded).
	PopulationRecoveries uint64
	// SynthesizedActivations counts rule activations created by
	// population-level synthesis (also included in RuleActivations).
	SynthesizedActivations uint64
	// SynthesisBlocked counts synthesis attempts refused by the guard with
	// no admissible alternative.
	SynthesisBlocked uint64
	// PopulationSamplesDropped counts population samples discarded by the
	// per-shard MaxProviders cap.
	PopulationSamplesDropped uint64
	// ProfileSpills counts profiles evicted from memory to the spill tier's
	// segment files (WithProfileResidency).
	ProfileSpills uint64
	// Rehydrations counts spilled profiles brought back into memory by a
	// report (serve-side reads view a record in place and move nothing).
	Rehydrations uint64
	// SegmentCompactions counts spill segments rewritten (or removed) by
	// the ingest-driven compactor.
	SegmentCompactions uint64
	// SpillErrors counts spill-tier failures: I/O errors that degraded the
	// store to memory-only mode and segments quarantined for damage.
	SpillErrors uint64
}

// metrics is the engine-internal atomic representation.
type metrics struct {
	reportsHandled     atomic.Uint64
	entriesProcessed   atomic.Uint64
	violationsDetected atomic.Uint64
	ruleActivations    atomic.Uint64
	ruleDeactivations  atomic.Uint64
	ruleExpirations    atomic.Uint64
	pagesModified      atomic.Uint64
	pagesUntouched     atomic.Uint64
	reportsShed        obs.Counter
	stateRecoveries    obs.Counter
	breakerTrips       obs.Counter
	breakerCloses      obs.Counter
	activationsBlocked obs.Counter
	bulkDeactivations  obs.Counter
	canaryActivations  obs.Counter
	rewritePanics      obs.Counter
	ruleQuarantines    obs.Counter

	popTrips               obs.Counter
	popRecoveries          obs.Counter
	synthesizedActivations obs.Counter
	synthesisBlocked       obs.Counter
	popSamplesDropped      obs.Counter

	profileSpills      obs.Counter
	rehydrations       obs.Counter
	segmentCompactions obs.Counter
	spillErrors        obs.Counter
}

// snapshot copies the counters.
func (m *metrics) snapshot() Metrics {
	return Metrics{
		ReportsHandled:     m.reportsHandled.Load(),
		EntriesProcessed:   m.entriesProcessed.Load(),
		ViolationsDetected: m.violationsDetected.Load(),
		RuleActivations:    m.ruleActivations.Load(),
		RuleDeactivations:  m.ruleDeactivations.Load(),
		RuleExpirations:    m.ruleExpirations.Load(),
		PagesModified:      m.pagesModified.Load(),
		PagesUntouched:     m.pagesUntouched.Load(),
		ReportsShed:        m.reportsShed.Value(),
		StateRecoveries:    m.stateRecoveries.Value(),
		BreakerTrips:       m.breakerTrips.Value(),
		BreakerCloses:      m.breakerCloses.Value(),
		ActivationsBlocked: m.activationsBlocked.Value(),
		BulkDeactivations:  m.bulkDeactivations.Value(),
		CanaryActivations:  m.canaryActivations.Value(),
		RewritePanics:      m.rewritePanics.Value(),
		RuleQuarantines:    m.ruleQuarantines.Value(),

		PopulationTrips:          m.popTrips.Value(),
		PopulationRecoveries:     m.popRecoveries.Value(),
		SynthesizedActivations:   m.synthesizedActivations.Value(),
		SynthesisBlocked:         m.synthesisBlocked.Value(),
		PopulationSamplesDropped: m.popSamplesDropped.Value(),

		ProfileSpills:      m.profileSpills.Value(),
		Rehydrations:       m.rehydrations.Value(),
		SegmentCompactions: m.segmentCompactions.Value(),
		SpillErrors:        m.spillErrors.Value(),
	}
}

// Metrics returns a snapshot of the engine's aggregate counters.
func (e *Engine) Metrics() Metrics {
	return e.metrics.snapshot()
}
