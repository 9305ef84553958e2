package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"oak/internal/report"
)

// Ingest admission and batch ingest. There is one way in: HandleReportCtx
// validates, admits, processes and releases a report on the goroutine that
// submitted it; a batch is the same call once per report, on the goroutine
// that parses the batch.
// Admission is unbounded by default. WithAdmission bounds the reports in
// flight, and a report that finds no room waits at most the configured
// budget before it is refused with ErrOverloaded — so producers (and their
// clients, via 503 + Retry-After) find out immediately and the server keeps
// serving pages while ingest is saturated.

// ErrShuttingDown is returned by report submission after Engine.Close: the
// engine accepts no new work.
var ErrShuttingDown = errors.New("engine: shutting down")

// ErrOverloaded is the sentinel all shed submissions match via errors.Is:
// ingest stayed saturated past the admission budget and the report was
// refused, not processed. The concrete error is *OverloadError, which
// carries the retry hint.
var ErrOverloaded = errors.New("engine: overloaded")

// OverloadError is the error a shed submission returns. It unwraps to
// ErrOverloaded and carries the retry hint the origin server turns into a
// Retry-After header.
type OverloadError struct {
	// RetryAfter is how long the admission policy suggests the client wait
	// before resubmitting.
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("engine: overloaded, retry in %v", e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverloaded) true.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// DefaultRetryAfter is the retry hint used when Admission.RetryAfter is
// zero, and the one the origin server advertises while shutting down.
const DefaultRetryAfter = time.Second

// Admission bounds ingest (WithAdmission).
type Admission struct {
	// MaxInFlight is the most reports that may be in analysis at once; a
	// value <= 0 leaves ingest unbounded.
	MaxInFlight int
	// MaxWait is how long a report may wait for room before it is shed with
	// ErrOverloaded. Zero sheds immediately; a negative value never sheds —
	// the report waits until there is room or its context is cancelled.
	MaxWait time.Duration
	// RetryAfter is the retry hint shed submissions carry (and the origin
	// server advertises as Retry-After). Zero takes DefaultRetryAfter.
	RetryAfter time.Duration
}

// WithAdmission bounds how many reports the engine analyses at once. A
// report that finds MaxInFlight others in flight waits up to a.MaxWait for
// one to finish and is otherwise refused with an *OverloadError; sheds are
// counted in Metrics.ReportsShed.
func WithAdmission(a Admission) Option {
	return func(e *Engine) {
		if a.MaxInFlight <= 0 {
			return
		}
		if a.RetryAfter <= 0 {
			a.RetryAfter = DefaultRetryAfter
		}
		e.gate = &gate{Admission: a, slots: make(chan struct{}, a.MaxInFlight)}
	}
}

// gate is the admission bound: a counting semaphore with one token per
// report in flight.
type gate struct {
	Admission
	slots chan struct{}
}

// leave returns the slot admit took.
func (g *gate) leave() { <-g.slots }

// admit takes an in-flight slot for one report: immediately when there is
// room, otherwise after waiting at most the admission budget. A report left
// without a slot is shed with *OverloadError; a cancelled wait returns
// ctx's error.
func (e *Engine) admit(ctx context.Context) error {
	g := e.gate
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	if g.MaxWait != 0 {
		var expired <-chan time.Time // stays nil, and never fires, when MaxWait < 0
		if g.MaxWait > 0 {
			timer := time.NewTimer(g.MaxWait)
			defer timer.Stop()
			expired = timer.C
		}
		select {
		case g.slots <- struct{}{}:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-expired:
		}
	}
	e.metrics.reportsShed.Inc()
	return &OverloadError{RetryAfter: g.RetryAfter}
}

// IngestQueue reports how many reports are in flight under the admission
// bound and the bound itself. Both are zero on an engine without one.
func (e *Engine) IngestQueue() (depth int64, capacity int) {
	if e.gate == nil {
		return 0, 0
	}
	return int64(len(e.gate.slots)), cap(e.gate.slots)
}

// BatchResult summarises one batch ingest (StartBatch … Wait).
type BatchResult struct {
	// Submitted is how many reports the batch contained.
	Submitted int `json:"submitted"`
	// Processed is how many reports were analysed successfully.
	Processed int `json:"processed"`
	// Failed is how many reports were rejected (validation error, shedding,
	// cancellation, or a closed engine).
	Failed int `json:"failed"`
	// Overloaded is the subset of Failed shed by the admission bound;
	// clients should retry those after RetryAfter.
	Overloaded int `json:"overloaded,omitempty"`
	// RetryAfter is the longest retry hint among the shed reports; zero
	// when none was shed. The origin server sends it as a header.
	RetryAfter time.Duration `json:"-"`
	// Errors holds the first few distinct failure messages, as a debugging
	// aid; it is capped, not exhaustive.
	Errors []string `json:"errors,omitempty"`
}

// batchErrorCap bounds BatchResult.Errors.
const batchErrorCap = 8

// AddError keeps msg as a sample unless the result holds it already or holds
// batchErrorCap: the one cap of a batch answer's samples, node or gateway.
func (r *BatchResult) AddError(msg string) {
	if len(r.Errors) < batchErrorCap && !slices.Contains(r.Errors, msg) {
		r.Errors = append(r.Errors, msg)
	}
}

// BatchSink is a streaming batch ingest: reports are submitted one at a
// time as a producer parses them off the wire, each ingested on the
// submitting goroutine before Submit returns, and summarised on Wait. A
// batch body is never fully materialised as []*report.Report, and a batch
// uses one core: a server's parallelism comes from its concurrent requests,
// not from inside one of them (handing a ~6 µs ingest to a worker cost more
// than it offloaded, and decode — the larger half of a batch — was always
// serial).
//
// Usage: s := e.StartBatch(ctx); s.Submit(r)...; res := s.Wait(). A sink is
// not safe for concurrent use. Submitted pooled reports are owned by the
// engine and released on every path, like HandleReportCtx.
type BatchSink struct {
	engine *Engine
	ctx    context.Context
	res    BatchResult
}

// StartBatch begins a streaming batch ingest governed by ctx. Cancelling
// ctx counts not-yet-processed reports as failed.
func (e *Engine) StartBatch(ctx context.Context) *BatchSink {
	return &BatchSink{engine: e, ctx: ctx}
}

// Submit ingests one report on the calling goroutine (HandleReportCtx) and
// folds the outcome into the summary. After ctx is cancelled the report is
// released and counted failed without being processed.
func (s *BatchSink) Submit(r *report.Report) {
	s.res.Submitted++
	_, err := s.engine.HandleReportCtx(s.ctx, r)
	if err == nil {
		s.res.Processed++
		return
	}
	s.res.Failed++
	var oe *OverloadError
	if errors.As(err, &oe) {
		s.res.Overloaded++
		s.res.RetryAfter = max(s.res.RetryAfter, oe.RetryAfter)
	}
	if len(s.res.Errors) < batchErrorCap { // a message is rendered only to be kept
		s.res.AddError(err.Error())
	}
}

// Wait returns the batch summary. Every submitted report has already been
// processed or failed by the time Submit returned.
func (s *BatchSink) Wait() BatchResult {
	return s.res
}
