// Package obs is the observability substrate of the Oak server: lock-free
// counters, gauges and latency histograms, and a bounded decision-trace ring
// buffer.
//
// Paper mapping: Section 4.2 of "Oak: User-Targeted Web Performance"
// describes a server that continuously maintains "aggregate site
// performance" alongside per-user state, and Section 5 rests every
// evaluation claim on fine-grained timing measurement. This package gives
// the Go reproduction that measurement surface in a form cheap enough to
// stay on in production:
//
//   - Histogram is a fixed-size, log-bucketed latency histogram whose
//     buckets are atomic.Uint64 counters. Observe is wait-free (one atomic
//     add per bucket plus count/sum/max upkeep) and safe from any number of
//     goroutines, so it sits directly on the engine's report-ingest and
//     page-rewrite hot paths. Snapshots extract p50/p90/p99 with bounded
//     relative error (each octave is split into 8 sub-buckets, ≤ 12.5 %).
//
//   - Counter and Gauge are the cells of a metric group. A group is declared
//     once, as a struct generic over its cell types: over Counter and Gauge
//     it is the live group a server increments, one atomic add on a named
//     field; over uint64 and int64 it is the snapshot a metrics endpoint
//     serves. Read copies the one into the other by walking the fields.
//
//   - Trace is a bounded ring buffer of Events — one per engine decision
//     (report ingested, violator flagged, rule activated / advanced / kept /
//     deactivated / expired, page modified) carrying the user, rule ID,
//     provider and timestamp. It is the structured source behind the
//     engine's human-readable decision log and behind GET /oak/v1/trace.
//
// The engine (internal/core) feeds both; the origin server
// (internal/origin) serves them at /oak/v1/metrics and /oak/v1/trace; cmd/oakd
// and cmd/oakreport expose them to operators. docs/OPERATIONS.md documents
// how to read each counter and histogram.
package obs
