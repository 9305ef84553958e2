//go:build !race

package origin

// The race detector's instrumentation allocates, so this file is built
// without it; scripts/verify.sh runs the gate by name.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"oak/internal/core"
	"oak/internal/report"
	"oak/internal/rules"
)

// TestReportHandlerSteadyStateBytes gates what the report handler allocates
// per 5.7 KB JSON report — the benchmark's report: 40 objects, no violator —
// once profiles exist and the body and report pools are warm, measured
// through httptest.NewRecorder like bench's origin.report_allocs. The
// ceilings sit about 15 % above the measurement; the body buffer falling
// out of reuse costs the body's size again.
func TestReportHandlerSteadyStateBytes(t *testing.T) {
	engine, err := core.NewEngine([]*rules.Rule{swapRule()})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	srv := NewServer(engine)

	bodies := make([][]byte, 8)
	for u := range bodies {
		rep := &report.Report{UserID: fmt.Sprintf("gate-u%d", u), Page: "/index.html"}
		for i := 0; i < 40; i++ {
			rep.Entries = append(rep.Entries, report.Entry{
				URL:            fmt.Sprintf("http://static%02d.provider-%02d.example/js/bundle-%04d.js", i%12, i%12, i),
				ServerAddr:     fmt.Sprintf("10.%d.0.1", i%12),
				SizeBytes:      20000 + int64(i),
				DurationMillis: 80 + float64(i%12),
				Kind:           report.KindOther,
			})
		}
		if bodies[u], err = rep.Marshal(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("report body: %d bytes", len(bodies[0]))

	i := 0
	run := func() {
		// Not httptest.NewRequest: its fresh 4 KB bufio.Reader would be most of
		// the figure.
		req, err := http.NewRequest(http.MethodPost, ReportPathV1, bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			t.Fatal(err)
		}
		i++
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusNoContent {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	const n = 2000
	for j := 0; j < n/4; j++ {
		run()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for j := 0; j < n; j++ {
		run()
	}
	runtime.ReadMemStats(&after)
	gotBytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	gotAllocs := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.0f B and %.1f allocs per report", gotBytes, gotAllocs)
	// Measured 3.5 KB / 17 allocs (io.ReadAll staging: 27.9 KB / 26).
	const maxBytes, maxAllocs = 4100, 20
	if gotBytes > maxBytes || gotAllocs > maxAllocs {
		t.Errorf("%.0f B and %.1f allocs per report, want at most %d B and %d allocs", gotBytes, gotAllocs, maxBytes, maxAllocs)
	}
}
