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
	// PagesModified counts page serves in which some rule replaced text with
	// different text.
	PagesModified uint64
	// PagesUntouched counts page serves that returned the page as-is.
	PagesUntouched uint64
	// ReportsShed counts report submissions refused with ErrOverloaded by
	// the admission bound (WithAdmission).
	ReportsShed uint64
	// StateRecoveries counts restores from somewhere other than the primary
	// snapshot: boots (LoadStateFile calls) that fell back to the rotating
	// backup because the primary was damaged or missing, and shipped imports
	// (ImportShippedState) of another node's snapshot.
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

// SpillStatus is the spill tier's health and occupancy snapshot, served
// under "spill" in /oak/v1/metrics (origin.SpillSection embeds it) and
// rendered by oakreport -memory.
type SpillStatus struct {
	// MemoryOnly is true after a spill I/O failure latched the store into
	// memory-only degraded mode: evictions have stopped, serving continues
	// with unbounded resident growth. Also reflected in healthz.
	MemoryOnly bool `json:"memory_only"`
	// ProfilesResident / ProfilesSpilled partition the known users by where
	// each profile currently lives.
	ProfilesResident int64 `json:"profiles_resident"`
	ProfilesSpilled  int64 `json:"profiles_spilled"`
	// ResidentBytes is the engine's running estimate of resident profile
	// heap bytes (the quantity MaxBytes caps).
	ResidentBytes int64 `json:"resident_bytes"`
	// SpillBytes is the live segment files' on-disk size, dead records
	// included until compaction.
	SpillBytes int64 `json:"spill_bytes"`
	// Segments counts live segment files; QuarantinedSegments names the
	// segments taken out of service for damage (see docs/OPERATIONS.md).
	Segments            int      `json:"segments"`
	QuarantinedSegments []string `json:"quarantined_segments,omitempty"`
	// Spills / Rehydrations / SegmentCompactions / SpillErrors are the
	// tier's lifetime event counters. Rehydrations counts profiles installed
	// again by a report; RecordViews counts serve-side reads of a spilled
	// record done in place (a page for a spilled user whose record carries no
	// activation needs neither).
	Spills             uint64 `json:"spills"`
	Rehydrations       uint64 `json:"rehydrations"`
	RecordViews        uint64 `json:"record_views"`
	SegmentCompactions uint64 `json:"segment_compactions"`
	SpillErrors        uint64 `json:"spill_errors"`
	// MaxProfiles / MaxBytes echo the configured caps; zero when unset.
	MaxProfiles int   `json:"max_profiles,omitempty"`
	MaxBytes    int64 `json:"max_bytes,omitempty"`
}

// SpillStatus reports the spill tier's current state; ok is false on
// engines without one.
func (e *Engine) SpillStatus() (SpillStatus, bool) {
	st := e.spill
	if st == nil {
		return SpillStatus{}, false
	}
	s := SpillStatus{
		MemoryOnly:          st.failed.Load(),
		ProfilesSpilled:     st.spilledUsers.Value(),
		SpillBytes:          st.log.Bytes.Value(),
		Segments:            len(st.log.Segments()),
		QuarantinedSegments: st.log.Quarantined(),
		Spills:              e.metrics.profileSpills.Value(),
		Rehydrations:        e.metrics.rehydrations.Value(),
		RecordViews:         st.recordViews.Value(),
		SegmentCompactions:  e.metrics.segmentCompactions.Value(),
		SpillErrors:         e.metrics.spillErrors.Value(),
		MaxProfiles:         st.cfg.MaxProfiles,
		MaxBytes:            st.cfg.MaxBytes,
	}
	for _, sh := range e.shards {
		s.ProfilesResident += sh.users.Value()
		s.ResidentBytes += sh.residentBytes.Load()
	}
	return s, true
}

// SpillDegraded reports whether the spill tier is in a degraded state that
// healthz must surface: memory-only mode or quarantined segments.
func (e *Engine) SpillDegraded() bool {
	st := e.spill
	return st != nil && (st.failed.Load() || len(st.log.Quarantined()) > 0)
}
