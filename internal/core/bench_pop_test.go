package core

import (
	"testing"
	"time"
)

// Population-ingest micro-benchmarks. SynthOff is the pre-population baseline; SynthOn adds the
// per-report sketch feed plus the amortised window tick. The acceptance
// bar for the population layer is SynthOn within 5% of SynthOff.

// benchSynthesis is a production-shaped config: a window long enough that
// tick elections almost never fire inside the measured loop, so the
// numbers isolate the steady-state per-report cost (sketch feed + degraded
// pointer load), not the periodic fold.
func benchSynthesis() Option {
	return WithSynthesis(SynthesisConfig{Window: time.Hour})
}

// BenchmarkHandleReportSynthOff is the baseline: same engine, same
// reports, population layer disabled.
func BenchmarkHandleReportSynthOff(b *testing.B) {
	e := benchEngine(b)
	reports := benchReports("synthoff")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.HandleReport(reports[i%benchUserPool]); err != nil {
			b.Fatal(err)
		}
	}
	reportThroughput(b)
}

// BenchmarkHandleReportSynthOn measures ingest with the population layer
// feeding per-provider sketches on every report.
func BenchmarkHandleReportSynthOn(b *testing.B) {
	e := benchEngine(b, benchSynthesis())
	reports := benchReports("synthon")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.HandleReport(reports[i%benchUserPool]); err != nil {
			b.Fatal(err)
		}
	}
	reportThroughput(b)
}

// BenchmarkHandleReportSynthOnParallel is the contended variant: sketch
// feeds happen under the shard write lock, so any added contention shows
// up here rather than in the serial number.
func BenchmarkHandleReportSynthOnParallel(b *testing.B) {
	benchParallel(b, benchEngine(b, benchSynthesis()))
}
