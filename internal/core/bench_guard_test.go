package core

import (
	"fmt"
	"testing"

	"oak/internal/rules"
)

// Guard micro-benchmarks.
//
// Two questions matter for the guardrail design:
//
//  1. What does the breaker check cost on the activation path?
//     BenchmarkActivationGuardOff vs BenchmarkActivationGuardOn run the
//     identical activating-ingest load without and with WithGuard; the
//     reports/sec ratio is the per-activation toll of the breaker Allow
//     call plus provider-index maintenance (target: <= 5%).
//
//  2. What does a trip cost once it fires? BenchmarkGuardRollback{100,1000,
//     5000} measure one breaker trip bulk-deactivating that many users'
//     activations across all shards via the provider index — the latency
//     between "provider declared dead" and "no user is on it any more".

// benchGuardActivation ingests b.N activating reports, one fresh user each,
// so every iteration walks the full violation→activation path.
func benchGuardActivation(b *testing.B, opts ...Option) {
	b.Helper()
	e, err := NewEngine([]*rules.Rule{jqRule(0)}, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.HandleReport(slowS1Report(fmt.Sprintf("bench-user-%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reports/sec")
}

// BenchmarkActivationGuardOff is the baseline: activating ingest with no
// guard (no breaker checks, no index maintenance).
func BenchmarkActivationGuardOff(b *testing.B) {
	benchGuardActivation(b)
}

// BenchmarkActivationGuardOn is the same load with the guard enabled and
// every breaker closed — pure check overhead, nothing ever blocks.
func BenchmarkActivationGuardOn(b *testing.B) {
	benchGuardActivation(b, WithGuard(GuardConfig{}))
}

// benchGuardRollback measures one trip's bulk rollback of `users`
// activations. The populated state is imported fresh each iteration
// (off-timer); the timed region is the single bad outcome that trips the
// breaker and deactivates everyone.
func benchGuardRollback(b *testing.B, users int) {
	b.Helper()
	e, err := NewEngine([]*rules.Rule{jqRule(0)},
		WithShards(8),
		WithGuard(GuardConfig{TripThreshold: 1}),
	)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < users; i++ {
		if _, err := e.HandleReport(slowS1Report(fmt.Sprintf("bench-user-%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	snap, err := e.ExportState()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := e.ImportState(snap); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		e.ObserveProviderOutcome("s2.net", false, 500)
	}
	b.StopTimer()
	if got := e.Metrics().BulkDeactivations; got < uint64(users) {
		b.Fatalf("BulkDeactivations = %d, want >= %d — rollback did not cover the population", got, users)
	}
	b.ReportMetric(float64(users), "deactivations/op")
}

func BenchmarkGuardRollback100(b *testing.B)  { benchGuardRollback(b, 100) }
func BenchmarkGuardRollback1000(b *testing.B) { benchGuardRollback(b, 1000) }
func BenchmarkGuardRollback5000(b *testing.B) { benchGuardRollback(b, 5000) }
