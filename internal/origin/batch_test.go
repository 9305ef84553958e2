package origin

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"oak/internal/core"
	"oak/internal/rules"
)

// batchLine renders one NDJSON report line for a user with a clear violator.
func batchLine(user string) string {
	return fmt.Sprintf(`{"userId":%q,"page":"/","entries":[`+
		`{"url":"http://slow.example/x.png","serverAddr":"9.9.9.9","sizeBytes":1000,"durationMillis":3000},`+
		`{"url":"http://a.example/a.png","serverAddr":"1.1.1.1","sizeBytes":1000,"durationMillis":100},`+
		`{"url":"http://b.example/b.png","serverAddr":"2.2.2.2","sizeBytes":1000,"durationMillis":110},`+
		`{"url":"http://c.example/c.png","serverAddr":"3.3.3.3","sizeBytes":1000,"durationMillis":95}]}`, user)
}

func postBatch(t *testing.T, tsURL, contentType, body string) (*http.Response, core.BatchResult) {
	t.Helper()
	resp, err := http.Post(tsURL+ReportPathV1, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var res core.BatchResult
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatalf("decode batch response: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, res
}

func TestBatchEndpointIngestsNDJSON(t *testing.T) {
	s := newTestServer(t, []*rules.Rule{swapRule()})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var b strings.Builder
	for i := 0; i < 25; i++ {
		b.WriteString(batchLine(fmt.Sprintf("batch-u%d", i)))
		b.WriteString("\n")
		if i%5 == 0 {
			b.WriteString("\n") // blank lines are allowed
		}
	}
	resp, res := postBatch(t, ts.URL, BatchContentType, b.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, want 200", resp.StatusCode)
	}
	if res.Submitted != 25 || res.Processed != 25 || res.Failed != 0 {
		t.Fatalf("batch result = %+v", res)
	}
	if got := s.Engine().Users(); got != 25 {
		t.Errorf("engine users = %d, want 25", got)
	}
	// Every user activated the swap rule.
	if a, err := s.Engine().Audit(); err != nil || len(a.Rules) != 1 || a.Rules[0].Users != 25 {
		t.Errorf("audit = %+v, %v; want swap across 25 users", a, err)
	}
}

func TestBatchEndpointAlternateContentTypes(t *testing.T) {
	for _, ct := range []string{"application/ndjson", "application/jsonl", "application/x-ndjson; charset=utf-8"} {
		s := newTestServer(t, nil)
		ts := httptest.NewServer(s)
		resp, res := postBatch(t, ts.URL, ct, batchLine("u1")+"\n")
		if resp.StatusCode != http.StatusOK || res.Processed != 1 {
			t.Errorf("%s: status=%d result=%+v", ct, resp.StatusCode, res)
		}
		ts.Close()
	}
}

func TestBatchEndpointPartialFailure(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := batchLine("good-1") + "\n" +
		"{not json}\n" +
		`{"userId":"","page":"/"}` + "\n" + // fails validation
		batchLine("good-2") + "\n"
	resp, res := postBatch(t, ts.URL, BatchContentType, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, want 200 (batches are not transactional)", resp.StatusCode)
	}
	if res.Submitted != 4 || res.Processed != 2 || res.Failed != 2 {
		t.Fatalf("batch result = %+v", res)
	}
	if len(res.Errors) == 0 {
		t.Error("no error samples in partial-failure response")
	}
	if got := s.Engine().Users(); got != 2 {
		t.Errorf("engine users = %d, want 2", got)
	}
}

func TestBatchEndpointEmptyBody(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, _ := postBatch(t, ts.URL, BatchContentType, "\n\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", resp.StatusCode)
	}
}

func TestBatchEndpointLineTooLarge(t *testing.T) {
	engine, err := core.NewEngine(nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(engine, WithMaxBodyBytes(256))
	ts := httptest.NewServer(s)
	defer ts.Close()

	long := `{"userId":"u","page":"/","entries":[{"url":"http://x/` + strings.Repeat("a", 400) + `"}]}`
	resp, _ := postBatch(t, ts.URL, BatchContentType, long+"\n")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized line status = %d, want 413", resp.StatusCode)
	}
}

func TestBatchEndpointCookieStampsIdentity(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Two lines claiming different users, but the cookie owns both.
	body := batchLine("impostor-1") + "\n" + batchLine("impostor-2") + "\n"
	req, _ := http.NewRequest(http.MethodPost, ts.URL+ReportPathV1, strings.NewReader(body))
	req.Header.Set("Content-Type", BatchContentType)
	req.AddCookie(&http.Cookie{Name: CookieName, Value: "real-user"})
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	if got := s.Engine().Users(); got != 1 {
		t.Errorf("engine users = %d, want 1 (cookie is authoritative)", got)
	}
	if _, ok := s.Engine().Snapshot("real-user"); !ok {
		t.Error("cookie identity did not receive the reports")
	}
	if _, ok := s.Engine().Snapshot("impostor-1"); ok {
		t.Error("body-declared identity bypassed the cookie")
	}
}

// TestBatchEndpointWithPipeline exercises the full HTTP → admission bound →
// shard path: a batch wider than the bound waits its turn, none is lost.
func TestBatchEndpointWithPipeline(t *testing.T) {
	engine, err := core.NewEngine([]*rules.Rule{swapRule()},
		core.WithShards(8),
		core.WithAdmission(core.Admission{MaxInFlight: 16, MaxWait: -1}))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	s := NewServer(engine)
	ts := httptest.NewServer(s)
	defer ts.Close()

	var b strings.Builder
	for i := 0; i < 60; i++ {
		b.WriteString(batchLine(fmt.Sprintf("pipe-u%d", i)))
		b.WriteString("\n")
	}
	resp, res := postBatch(t, ts.URL, BatchContentType, b.String())
	if resp.StatusCode != http.StatusOK || res.Processed != 60 || res.Failed != 0 {
		t.Fatalf("status=%d result=%+v", resp.StatusCode, res)
	}
	if got := engine.Users(); got != 60 {
		t.Errorf("engine users = %d, want 60", got)
	}

	// The metrics endpoint reports the (idle) bound.
	var m MetricsResponse
	getJSON(t, ts.URL+MetricsPathV1, &m)
	if m.IngestQueue == nil || m.IngestQueue.Capacity != 16 {
		t.Errorf("ingest_queue = %+v, want capacity 16", m.IngestQueue)
	}
	if m.Shards != 8 {
		t.Errorf("shards = %d, want 8", m.Shards)
	}
	if len(m.IngestShards) == 0 {
		t.Error("no per-shard ingest summaries")
	}
}
