package gateway_test

// Gateway overhead micro-benchmarks (the end-to-end figures of record come
// from the gateway_mixed workload of bash bench/run.sh):
//
//   - BenchmarkReportDirect / BenchmarkReportViaGateway: the same report
//     POSTed straight at one oakd versus through the gateway's warm path
//     (healthy owner backend, no failover). Their ratio is the forwarding
//     overhead the cluster tier costs.
//   - BenchmarkPageDirect / BenchmarkPageViaGateway: the page-serve
//     equivalents.
//   - BenchmarkReportFailover: the steady-state rerouted path — primary
//     probed dead, every request flowing to the standby — which is what
//     users pay between a node's death and its replacement.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"oak"
	"oak/internal/gateway"
	"oak/internal/origin"
)

// benchReportBody is a paper-realistic report: 48 objects spread over a
// dozen servers, one of them badly slow. Real pages carry tens of objects
// (the paper's Figure 2 medians ~50), and the ratio the benchmark gates —
// gateway vs direct — is only meaningful on the payload size the system is
// built for.
func benchReportBody(user string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"userId":%q,"page":"/index.html","entries":[`, user)
	for i := 0; i < 48; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		ms := 80 + (i*7)%120
		if i%12 == 9 {
			ms = 2500 // the under-performer
		}
		fmt.Fprintf(&sb, `{"url":"http://h%d.example/o%d.png","serverAddr":"10.0.%d.1","sizeBytes":4000,"durationMillis":%d}`,
			i%12, i, i%12, ms)
	}
	sb.WriteString("]}")
	return sb.String()
}

const benchPage = `<html><img src="http://slow.example/x.png"><img src="http://a.example/a.png"></html>`

func benchRule(b *testing.B) *oak.Rule {
	b.Helper()
	rs, err := oak.ParseRulesJSON([]byte(`[{
		"id":"swap","type":2,
		"default":"<img src=\"http://slow.example/x.png\">",
		"alternatives":["<img src=\"http://fast.example/x.png\">"],
		"scope":"*","ttlMillis":0
	}]`))
	if err != nil {
		b.Fatal(err)
	}
	return rs[0]
}

// benchNode builds one full backend stack.
func benchNode(b *testing.B) *httptest.Server {
	b.Helper()
	engine, err := oak.NewEngine([]*oak.Rule{benchRule(b)})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { engine.Close() })
	server := oak.NewServer(engine)
	server.SetPage("/index.html", benchPage)
	ts := httptest.NewServer(server)
	b.Cleanup(ts.Close)
	return ts
}

// postReports drives b.N concurrent report submissions at base — a gateway
// is a throughput tier, so the warm path is measured the way it is used:
// many clients at once — and reports reports/sec.
func postReports(b *testing.B, base string) {
	b.Helper()
	var uid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		user := fmt.Sprintf("bench-user-%d", uid.Add(1))
		body := benchReportBody(user)
		client := &http.Client{}
		for pb.Next() {
			req, err := http.NewRequest(http.MethodPost, base+origin.ReportPathV1, strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			req.AddCookie(&http.Cookie{Name: oak.CookieName, Value: user})
			resp, err := client.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reports/sec")
}

// getPages drives b.N concurrent page fetches at base and reports
// pages/sec.
func getPages(b *testing.B, base string) {
	b.Helper()
	var uid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		user := fmt.Sprintf("bench-user-%d", uid.Add(1))
		client := &http.Client{}
		for pb.Next() {
			req, err := http.NewRequest(http.MethodGet, base+"/index.html", nil)
			if err != nil {
				b.Fatal(err)
			}
			req.AddCookie(&http.Cookie{Name: oak.CookieName, Value: user})
			resp, err := client.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pages/sec")
}

// postBatches drives b.N NDJSON batch submissions (batchLines reports per
// POST, one user per line) and reports reports/sec — the high-throughput
// submission path, where the gateway's per-request hop amortises across the
// whole batch.
const batchLines = 16

func postBatches(b *testing.B, base string) {
	b.Helper()
	var uid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		seq := uid.Add(1)
		lines := make([]string, batchLines)
		for i := range lines {
			lines[i] = benchReportBody(fmt.Sprintf("bench-batch-%d-%d", seq, i))
		}
		body := strings.Join(lines, "\n")
		client := &http.Client{}
		for pb.Next() {
			req, err := http.NewRequest(http.MethodPost, base+origin.ReportPathV1, strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/x-ndjson")
			resp, err := client.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N*batchLines)/b.Elapsed().Seconds(), "reports/sec")
}

func BenchmarkReportDirect(b *testing.B) {
	node := benchNode(b)
	postReports(b, node.URL)
}

func BenchmarkBatchDirect(b *testing.B) {
	node := benchNode(b)
	postBatches(b, node.URL)
}

func BenchmarkBatchViaGateway(b *testing.B) {
	node := benchNode(b)
	gw, err := gateway.NewGateway(gateway.Config{Backends: []string{node.URL}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(gw.Close)
	gwts := httptest.NewServer(gw)
	b.Cleanup(gwts.Close)
	postBatches(b, gwts.URL)
}

func BenchmarkReportViaGateway(b *testing.B) {
	node := benchNode(b)
	gw, err := gateway.NewGateway(gateway.Config{Backends: []string{node.URL}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(gw.Close)
	gwts := httptest.NewServer(gw)
	b.Cleanup(gwts.Close)
	postReports(b, gwts.URL)
}

func BenchmarkPageDirect(b *testing.B) {
	node := benchNode(b)
	getPages(b, node.URL)
}

func BenchmarkPageViaGateway(b *testing.B) {
	node := benchNode(b)
	gw, err := gateway.NewGateway(gateway.Config{Backends: []string{node.URL}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(gw.Close)
	gwts := httptest.NewServer(gw)
	b.Cleanup(gwts.Close)
	getPages(b, gwts.URL)
}

func BenchmarkReportFailover(b *testing.B) {
	// The range owner is dead (probed past DeadThreshold); every report
	// reroutes to the standby.
	deadTS := httptest.NewServer(http.NotFoundHandler())
	deadTS.Close()
	standby := benchNode(b)
	gw, err := gateway.NewGateway(gateway.Config{
		Backends: []string{deadTS.URL},
		Standby:  standby.URL,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(gw.Close)
	for i := 0; i < gateway.DefaultDeadThreshold; i++ {
		gw.ProbeOnce()
	}
	if st := gw.BackendStates(); st[0] != gateway.StateDead {
		b.Fatalf("backend state = %v, want dead", st[0])
	}
	gwts := httptest.NewServer(gw)
	b.Cleanup(gwts.Close)
	postReports(b, gwts.URL)
}
