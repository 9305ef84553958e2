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
//     reports/sec ratio is the per-activation toll of the guard's Admit
//     call (target: <= 5%). The guard keeps nothing per activation, so the
//     two allocate the same.
//
//  2. What does a trip cost once it fires? A trip is one pass over the
//     resident profiles, shard by shard (rollbackWhere), so its cost follows
//     the resident population, not the number of users on the provider.
//     BenchmarkGuardRollback{100,1000,5000} trip a provider every resident
//     user is on; BenchmarkGuardRollback100of20000 is the pass's worst case,
//     few affected among many resident. The figure is the latency between
//     "provider declared dead" and "no resident user is on it any more".

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
// guard (no breaker checks).
func BenchmarkActivationGuardOff(b *testing.B) {
	benchGuardActivation(b)
}

// BenchmarkActivationGuardOn is the same load with the guard enabled and
// every breaker closed — pure check overhead, nothing ever blocks.
func BenchmarkActivationGuardOn(b *testing.B) {
	benchGuardActivation(b, WithGuard(GuardConfig{}))
}

// benchGuardRollback measures one trip's bulk rollback of `users` activations
// among `resident` resident profiles (the rest reported nothing slow and hold
// no activation). The populated state is imported fresh each iteration
// (off-timer); the timed region is the single bad outcome that trips the
// breaker and deactivates everyone on the provider.
func benchGuardRollback(b *testing.B, users, resident int) {
	b.Helper()
	e, err := NewEngine([]*rules.Rule{jqRule(0)},
		WithShards(8),
		WithGuard(GuardConfig{TripThreshold: 1}),
	)
	if err != nil {
		b.Fatal(err)
	}
	// The affected users are spread evenly through the population.
	every := resident / users
	for i := 0; i < resident; i++ {
		rep := healthyReport(fmt.Sprintf("bench-user-%d", i))
		if i%every == 0 && i/every < users {
			rep = slowS1Report(rep.UserID)
		}
		if _, err := e.HandleReport(rep); err != nil {
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
	if got := e.Metrics().BulkDeactivations; got != uint64(users*b.N) {
		b.Fatalf("BulkDeactivations = %d, want %d — rollback did not cover the population", got, users*b.N)
	}
	b.ReportMetric(float64(users), "deactivations/op")
}

func BenchmarkGuardRollback100(b *testing.B)        { benchGuardRollback(b, 100, 100) }
func BenchmarkGuardRollback1000(b *testing.B)       { benchGuardRollback(b, 1000, 1000) }
func BenchmarkGuardRollback5000(b *testing.B)       { benchGuardRollback(b, 5000, 5000) }
func BenchmarkGuardRollback100of20000(b *testing.B) { benchGuardRollback(b, 100, 20000) }
