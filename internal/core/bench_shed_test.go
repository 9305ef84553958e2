package core

import (
	"errors"
	"testing"
)

// BenchmarkShedSaturated measures the overload path itself: one report
// holds the only in-flight slot and MaxWait is zero, so every HandleReport
// is shed. Its ns/op is the full price of saying no — an overloaded
// submitter is turned away in well under a microsecond with a truthful
// Retry-After, where a waiting design parks it for an unbounded time.
func BenchmarkShedSaturated(b *testing.B) {
	e, _, _ := wedgedEngine(b, Admission{})

	rep := slowS1Report("bench-shed")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.HandleReport(rep); !errors.Is(err, ErrOverloaded) {
			b.Fatalf("want ErrOverloaded, got %v", err)
		}
	}
	b.StopTimer()
	if got := e.Metrics().ReportsShed; got < uint64(b.N) {
		b.Fatalf("ReportsShed = %d, want >= %d", got, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sheds/sec")
}
