package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"oak/internal/report"
	"oak/internal/rules"
)

// Ingest micro-benchmarks.
// BenchmarkHandleReportParallel vs BenchmarkHandleReportParallelSingleShard
// is the sharding payoff — the single-shard engine reproduces the old
// one-global-lock design, so the ratio of their reports/sec is the
// parallel-ingest speedup on the machine at hand.

// benchUserPool is how many distinct users each benchmark goroutine cycles
// through, spreading load across every shard.
const benchUserPool = 512

// benchReports pre-builds one report per pool user so the measured loop
// does no allocation beyond the engine's own.
func benchReports(prefix string) []*report.Report {
	reports := make([]*report.Report, benchUserPool)
	for i := range reports {
		reports[i] = slowS1Report(fmt.Sprintf("%s-%d", prefix, i))
	}
	return reports
}

func benchEngine(b *testing.B, opts ...Option) *Engine {
	b.Helper()
	e, err := NewEngine([]*rules.Rule{jqRule(0)}, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	return e
}

// BenchmarkHandleReportSerial is the single-goroutine ingest cost.
func BenchmarkHandleReportSerial(b *testing.B) {
	e := benchEngine(b)
	reports := benchReports("serial")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.HandleReport(reports[i%benchUserPool]); err != nil {
			b.Fatal(err)
		}
	}
	reportThroughput(b)
}

// BenchmarkHandleReportParallel ingests reports for distinct users from
// every available core against the default-sharded engine.
func BenchmarkHandleReportParallel(b *testing.B) {
	benchParallel(b, benchEngine(b))
}

// BenchmarkHandleReportParallelSingleShard is the contention baseline: one
// shard means one write lock for all users, the pre-sharding design.
func BenchmarkHandleReportParallelSingleShard(b *testing.B) {
	benchParallel(b, benchEngine(b, WithShards(1)))
}

func benchParallel(b *testing.B, e *Engine) {
	var gid atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each goroutine owns a distinct slice of the user population.
		reports := benchReports(fmt.Sprintf("g%d", gid.Add(1)))
		i := 0
		for pb.Next() {
			if _, err := e.HandleReport(reports[i%benchUserPool]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	reportThroughput(b)
}

// BenchmarkHandleBatch measures the batch entry point end to end (every
// report ingested in order on the calling goroutine).
func BenchmarkHandleBatch(b *testing.B) {
	e := benchEngine(b)
	reports := benchReports("batch")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := e.HandleBatch(context.Background(), reports)
		if res.Failed != 0 {
			b.Fatalf("batch failed: %+v", res)
		}
	}
	b.StopTimer()
	// Normalise to per-report so the number is comparable to the others.
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N*benchUserPool)
	if perOp > 0 {
		b.ReportMetric(1e9/perOp, "reports/sec")
	}
}

// benchWire marshals the bench corpus with the given encoder and measures
// decode+handle end to end, reporting the mean payload size as wire_bytes so
// the JSON and OAKRPT1 rows compare both CPU and bytes.
func benchWire(b *testing.B, marshal func(*report.Report) ([]byte, error), decode func([]byte) (*report.Report, error)) {
	e := benchEngine(b)
	reports := benchReports("wire")
	payloads := make([][]byte, len(reports))
	var wireBytes int
	for i, r := range reports {
		data, err := marshal(r)
		if err != nil {
			b.Fatal(err)
		}
		payloads[i] = data
		wireBytes += len(data)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := decode(payloads[i%benchUserPool])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.HandleReport(rep); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(wireBytes)/float64(len(payloads)), "wire_bytes")
	reportThroughput(b)
}

// BenchmarkIngestJSON is the full JSON ingest path: pooled fast-path decode
// of the serialised report, then HandleReport (which releases it).
func BenchmarkIngestJSON(b *testing.B) {
	benchWire(b, (*report.Report).Marshal, report.DecodePooled)
}

// BenchmarkIngestBinary is the same path over the OAKRPT1 binary format.
func BenchmarkIngestBinary(b *testing.B) {
	benchWire(b, (*report.Report).MarshalBinary, report.DecodeBinaryPooled)
}

// reportThroughput derives reports/sec from the measured ns/op.
func reportThroughput(b *testing.B) {
	if b.N == 0 || b.Elapsed() == 0 {
		return
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reports/sec")
}
