package core

import (
	"fmt"
	"testing"

	"oak/internal/report"
	"oak/internal/rules"
)

// Guard micro-benchmarks: what does the breaker check cost on the
// activation path? BenchmarkActivationGuardOff vs BenchmarkActivationGuardOn
// run the identical activating-ingest load without and with WithGuard. Their
// ratio of times is the guard's Admit call plus host noise of the same size,
// so the toll is held by a count instead: TestGuardAddsNoAllocations. (A trip
// has no benchmark: it moves an epoch and walks no profile.)

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

// TestGuardAddsNoAllocations: on BenchmarkActivationGuardOn's load — one
// activating report from a fresh user each — the guard allocates nothing the
// guardless engine does not.
func TestGuardAddsNoAllocations(t *testing.T) {
	allocs := func(opts ...Option) float64 {
		e, err := NewEngine([]*rules.Rule{jqRule(0)}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		reports := make([]*report.Report, 0, 1001)
		for i := range cap(reports) {
			reports = append(reports, slowS1Report(fmt.Sprintf("alloc-user-%d", i)))
		}
		return testing.AllocsPerRun(cap(reports)-1, func() {
			if _, err := e.HandleReport(reports[0]); err != nil {
				t.Fatal(err)
			}
			reports = reports[1:]
		})
	}
	off, on := allocs(), allocs(WithGuard(GuardConfig{}))
	t.Logf("allocs per activating report: %.0f guard off, %.0f guard on", off, on)
	if on > off {
		t.Errorf("the guard adds %.0f allocations per activating report (%.0f on, %.0f off)", on-off, on, off)
	}
}
