//go:build !race

package core

// The race detector's instrumentation allocates, so this file is built
// without it; scripts/verify.sh runs the gate by name.

import (
	"fmt"
	"runtime"
	"testing"

	"oak/internal/report"
	"oak/internal/rules"
)

// TestHealthyIngestSteadyStateBytes gates what the engine allocates per
// healthy report once the profiles exist and the ingest scratch is warm: the
// rotation of origin's TestReportHandlerSteadyStateBytes (12 pages of 40
// objects, 12 each of a site's 40 providers), handed to HandleReport
// directly. Its durations vary by object rather than by provider, so no
// report has a violator (origin's flags a server in two of its twelve). The
// grouping, detection and script list live in the pooled ingest scratch; what
// is left is the AnalysisResult and the trace's report detail. A grouping
// that allocates its output again costs about 2.5 KB and 3 allocations more.
func TestHealthyIngestSteadyStateBytes(t *testing.T) {
	e, err := NewEngine([]*rules.Rule{jqRule(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	reports := make([]*report.Report, 12)
	for p := range reports {
		rep := &report.Report{UserID: fmt.Sprintf("gate-u%d", p), Page: fmt.Sprintf("/page-%02d.html", p)}
		for i := 0; i < 40; i++ {
			h := (p*7 + i%12) % 40
			rep.Entries = append(rep.Entries, report.Entry{
				URL:            fmt.Sprintf("http://static%02d.provider-%02d.example/p%02d/bundle-%04d.js", h%4, h, p, i),
				ServerAddr:     fmt.Sprintf("10.%d.0.1", h),
				SizeBytes:      20000 + int64(i),
				DurationMillis: 80 + float64(i%5),
				Kind:           report.KindOther,
			})
		}
		reports[p] = rep
	}
	i := 0
	ingest := func() {
		res, err := e.HandleReport(reports[i%len(reports)])
		if err != nil || len(res.Violations) != 0 {
			t.Fatalf("report %d: %v, %d violations", i, err, len(res.Violations))
		}
		i++
	}
	const n = 4000
	for range n / 4 {
		ingest()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		ingest()
	}
	runtime.ReadMemStats(&after)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / n
	allocsPer := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.0f B and %.3f allocs per healthy report", bytesPer, allocsPer)
	if bytesPer > 256 || allocsPer > 3 {
		t.Errorf("%.0f B and %.2f allocs per healthy report, want at most 256 B and 3 allocs", bytesPer, allocsPer)
	}
}
