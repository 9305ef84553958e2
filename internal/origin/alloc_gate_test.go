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
	"strings"
	"testing"

	"oak/internal/core"
	"oak/internal/report"
	"oak/internal/rules"
)

// perOp runs f n times after a warm-up and returns the heap bytes and
// objects allocated per run.
func perOp(n int, f func()) (bytesPerOp, allocsPerOp float64) {
	for i := 0; i < n/4; i++ {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

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
	gotBytes, gotAllocs := perOp(2000, run)
	t.Logf("%.0f B and %.1f allocs per report", gotBytes, gotAllocs)
	// Measured 3.5 KB / 17 allocs (io.ReadAll staging: 27.9 KB / 26).
	const maxBytes, maxAllocs = 4100, 20
	if gotBytes > maxBytes || gotAllocs > maxAllocs {
		t.Errorf("%.0f B and %.1f allocs per report, want at most %d B and %d allocs", gotBytes, gotAllocs, maxBytes, maxAllocs)
	}
}

// TestPageNotModifiedSteadyStateBytes gates the page handler's 304 path: a
// 128 KB page whose tag the requester lists costs a fixed few allocations —
// the tag is the stored one, never a hash of the body per request, and no
// byte of the body is copied or written.
func TestPageNotModifiedSteadyStateBytes(t *testing.T) {
	engine, err := core.NewEngine([]*rules.Rule{swapRule()}, core.WithRewriteCache(64))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	srv := NewServer(engine)
	page := "<html>" + strings.Repeat("x", 128<<10) + "</html>"
	srv.SetPage("/big.html", page)
	tag := core.ContentTag(page)
	cookie := &http.Cookie{Name: CookieName, Value: "gate-user"}

	run := func() {
		req, err := http.NewRequest(http.MethodGet, "/big.html", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.AddCookie(cookie)
		req.Header.Set("If-None-Match", tag)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
			t.Fatalf("status %d, %d body bytes", rec.Code, rec.Body.Len())
		}
	}
	gotBytes, gotAllocs := perOp(2000, run)
	t.Logf("%.0f B and %.1f allocs per 304", gotBytes, gotAllocs)
	// Measured 2.1 KB / 20 allocs, most of them the request and the recorder.
	const maxBytes, maxAllocs = 2450, 23
	if gotBytes > maxBytes || gotAllocs > maxAllocs {
		t.Errorf("%.0f B and %.1f allocs per 304, want at most %d B and %d allocs", gotBytes, gotAllocs, maxBytes, maxAllocs)
	}
}
