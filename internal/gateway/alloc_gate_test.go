//go:build !race

package gateway_test

// The race detector's instrumentation allocates, so this file is built
// without it; scripts/verify.sh runs the gate by name.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"oak/internal/core"
	"oak/internal/gateway"
	"oak/internal/origin"
)

// discardResponse is a ResponseWriter that keeps nothing, so the gate
// measures the gateway and not a recorder's buffer.
type discardResponse struct {
	header http.Header
	code   int
	n      int
}

func (d *discardResponse) Header() http.Header  { return d.header }
func (d *discardResponse) WriteHeader(code int) { d.code = code }
func (d *discardResponse) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// perOp runs f n times after a warm-up and returns the heap bytes and
// objects the whole process allocated per run — the gateway's handler, its
// transport and the in-process backend alike.
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

// TestForwardSteadyStateBytes gates what one forwarded exchange allocates
// once the body buffers and backend connections are warm: a 5.7 KB report,
// a 128 KB page shipped in full and the same page revalidated (the backend
// answers 304, the edge serves its copy) against a backend that does
// nothing. The ceilings sit about 15 % above what one backend call measures
// over the gateway's own transport;
// a buffer falling out of reuse — or a revalidated page being copied —
// costs at least the body's size again.
func TestForwardSteadyStateBytes(t *testing.T) {
	page := bytes.Repeat([]byte("x"), 128<<10)
	tag := core.ContentTag(string(page))
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == origin.ReportPathV1 {
			_, _ = io.Copy(io.Discard, r.Body)
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if r.URL.Path == "/tagged.html" {
			w.Header().Set("ETag", tag)
			if r.Header.Get("If-None-Match") == tag {
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(page)))
		_, _ = w.Write(page)
	}))
	defer backend.Close()
	gw, err := gateway.NewGateway(gateway.Config{Backends: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	report := []byte(benchReportBody("gate-user"))
	report = append(report, bytes.Repeat([]byte(" "), 5700-len(report))...)
	cookie := &http.Cookie{Name: origin.CookieName, Value: "gate-user"}
	w := &discardResponse{header: http.Header{}}
	exchange := func(method, path string, body []byte, wantCode, wantBytes int) func() {
		return func() {
			// Not httptest.NewRequest: it parses the request through a fresh
			// 4 KB bufio.Reader, which would be a fifth of the report figure.
			req, err := http.NewRequest(method, path, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.AddCookie(cookie)
			clear(w.header)
			w.code, w.n = 0, 0
			gw.ServeHTTP(w, req)
			if w.code != wantCode || w.n != wantBytes {
				t.Fatalf("%s %s: status %d, %d bytes relayed", method, path, w.code, w.n)
			}
		}
	}

	for _, tc := range []struct {
		name                string
		run                 func()
		maxBytes, maxAllocs float64
	}{
		// Measured 5.24 KB / 58 allocs (through http.Client and the oak
		// client's SubmitURL: 5.8 KB / 67; over net/http's Transport, with
		// the forwarded body cloned: 14.1 KB / 99).
		{"report", exchange("POST", origin.ReportPathV1, report, http.StatusNoContent, 0), 6030, 67},
		// Measured 6.13 KB / 62 allocs (63 when each relayed header was Set
		// into a new slice; through http.Client: 6.7 KB / 71; over net/http's
		// Transport: 8.6–9.0 KB / 100).
		{"page", exchange("GET", "/index.html", nil, http.StatusOK, len(page)), 7050, 71},
		// Measured 6.1 KB / 61 allocs: the 128 KB body is neither read nor copied.
		{"revalidated page", exchange("GET", "/tagged.html", nil, http.StatusOK, len(page)), 7020, 70},
	} {
		gotBytes, gotAllocs := perOp(2000, tc.run)
		t.Logf("%s: %.0f B and %.1f allocs per forward", tc.name, gotBytes, gotAllocs)
		if gotBytes > tc.maxBytes || gotAllocs > tc.maxAllocs {
			t.Errorf("%s: %.0f B and %.1f allocs per forward, want at most %.0f B and %.0f allocs", tc.name, gotBytes, gotAllocs, tc.maxBytes, tc.maxAllocs)
		}
	}
}
