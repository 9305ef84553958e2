package origin

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"oak/internal/core"
	"oak/internal/report"
	"oak/internal/rules"
)

// Binary wire-format endpoint tests: the origin negotiates OAKRPT1 bodies by
// Content-Type — application/x-oak-report for one report, -batch for
// concatenated length-prefixed frames — and must land every report in the
// exact same engine state the JSON path produces.

// binaryReport builds the binary-wire twin of batchLine(user): same page,
// same entries, same clear violator.
func binaryReport(user string) *report.Report {
	return &report.Report{
		UserID: user,
		Page:   "/",
		Entries: []report.Entry{
			{URL: "http://slow.example/x.png", ServerAddr: "9.9.9.9", SizeBytes: 1000, DurationMillis: 3000},
			{URL: "http://a.example/a.png", ServerAddr: "1.1.1.1", SizeBytes: 1000, DurationMillis: 100},
			{URL: "http://b.example/b.png", ServerAddr: "2.2.2.2", SizeBytes: 1000, DurationMillis: 110},
			{URL: "http://c.example/c.png", ServerAddr: "3.3.3.3", SizeBytes: 1000, DurationMillis: 95},
		},
	}
}

func TestBinaryEndpointSingleReport(t *testing.T) {
	s := newTestServer(t, []*rules.Rule{swapRule()})
	ts := httptest.NewServer(s)
	defer ts.Close()

	body, err := binaryReport("bin-u1").MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+ReportPathV1, report.ContentTypeBinary, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("binary report status = %d, want 204", resp.StatusCode)
	}
	if _, ok := s.Engine().Snapshot("bin-u1"); !ok {
		t.Error("binary report did not reach the engine")
	}
}

func TestBinaryEndpointRejectsGarbage(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, body := range [][]byte{
		[]byte("not a binary report"),
		[]byte("OAKRPT1"),                     // magic, then truncation
		[]byte("OAKRPT1\xff\xff\xff\xff\xff"), // hostile length prefix
	} {
		resp, err := http.Post(ts.URL+ReportPathV1, report.ContentTypeBinary, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("garbage %q status = %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestBinaryBatchEndpoint(t *testing.T) {
	s := newTestServer(t, []*rules.Rule{swapRule()})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var body, scratch []byte
	for i := 0; i < 25; i++ {
		body, scratch = report.AppendBinaryFrame(body, scratch, binaryReport(fmt.Sprintf("binbatch-u%d", i)))
	}
	resp, res := postBatch(t, ts.URL, report.ContentTypeBinaryBatch, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary batch status = %d, want 200", resp.StatusCode)
	}
	if res.Submitted != 25 || res.Processed != 25 || res.Failed != 0 {
		t.Fatalf("binary batch result = %+v", res)
	}
	if got := s.Engine().Users(); got != 25 {
		t.Errorf("engine users = %d, want 25", got)
	}
	if a, err := s.Engine().Audit(); err != nil || len(a.Rules) != 1 || a.Rules[0].Users != 25 {
		t.Errorf("audit = %+v, %v; want swap across 25 users", a, err)
	}
}

// TestBinaryBatchFramingError pins the partial-failure semantics: a frame
// whose payload will not decode fails alone, while a framing error (the
// stream cannot resync) fails once and ends the batch — reports sliced off
// before it still land.
func TestBinaryBatchFramingError(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	var body, scratch []byte
	body, scratch = report.AppendBinaryFrame(body, scratch, binaryReport("frame-good"))
	// A well-framed payload that is not a report: fails alone.
	body = append(body, 3)
	body = append(body, "junk"[:3]...)
	body, _ = report.AppendBinaryFrame(body, scratch, binaryReport("frame-good-2"))
	// Trailing garbage the framer cannot slice: one terminal failure.
	body = append(body, 0xff, 0xff)

	resp, res := postBatch(t, ts.URL, report.ContentTypeBinaryBatch, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (batches are not transactional)", resp.StatusCode)
	}
	if res.Submitted != 4 || res.Processed != 2 || res.Failed != 2 {
		t.Fatalf("result = %+v, want 4 submitted / 2 processed / 2 failed", res)
	}
	if got := s.Engine().Users(); got != 2 {
		t.Errorf("engine users = %d, want 2", got)
	}
}

// TestBinaryBatchBadLengthPrefix pins what a batch ending in a bad length
// prefix gets: 200, the frames before it ingested, and the prefix counted as
// one failed report under its OAKRPT1 error — truncated for a prefix cut
// short, corrupt for a non-minimal one. The gateway splits with the same
// framer and folds the error in the same way.
func TestBinaryBatchBadLengthPrefix(t *testing.T) {
	for _, tc := range []struct {
		name   string
		prefix []byte
		want   error
	}{
		{"cut short", []byte{0x80}, report.ErrBinaryTruncated},
		{"non-minimal", []byte{0x81, 0x00, 'x'}, report.ErrBinaryCorrupt},
	} {
		s := newTestServer(t, nil)
		ts := httptest.NewServer(s)
		body, _ := report.AppendBinaryFrame(nil, nil, binaryReport("frame-good"))
		resp, res := postBatch(t, ts.URL, report.ContentTypeBinaryBatch, string(append(body, tc.prefix...)))
		ts.Close()
		if resp.StatusCode != http.StatusOK || res.Submitted != 2 || res.Processed != 1 || res.Failed != 1 ||
			len(res.Errors) != 1 || res.Errors[0] != tc.want.Error() {
			t.Errorf("%s: status %d, result %+v; want 200, 1 processed, 1 failed with %q",
				tc.name, resp.StatusCode, res, tc.want)
		}
	}
}

func TestBinaryBatchCookieStampsIdentity(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	var body, scratch []byte
	body, scratch = report.AppendBinaryFrame(body, scratch, binaryReport("impostor-1"))
	body, _ = report.AppendBinaryFrame(body, scratch, binaryReport("impostor-2"))
	req, _ := http.NewRequest(http.MethodPost, ts.URL+ReportPathV1, bytes.NewReader(body))
	req.Header.Set("Content-Type", report.ContentTypeBinaryBatch)
	req.AddCookie(&http.Cookie{Name: CookieName, Value: "real-user"})
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	if got := s.Engine().Users(); got != 1 {
		t.Errorf("engine users = %d, want 1 (cookie is authoritative)", got)
	}
	if _, ok := s.Engine().Snapshot("impostor-1"); ok {
		t.Error("body-declared identity bypassed the cookie")
	}
}

// TestBatchResolvesIdentityOncePerRequest: a batch's reports all belong to
// the request's one identity, so the user-ID function runs once per batch
// request, not once per report, in either batch format.
func TestBatchResolvesIdentityOncePerRequest(t *testing.T) {
	calls := 0
	engine, err := core.NewEngine(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	s := NewServer(engine, WithUserIDFunc(func(*http.Request) string { calls++; return "fn-user" }))

	var ndjson, frames, scratch []byte
	for i := range 16 {
		line, err := binaryReport(fmt.Sprintf("impostor-%d", i)).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		ndjson = append(append(ndjson, line...), '\n')
		frames, scratch = report.AppendBinaryFrame(frames, scratch, binaryReport(fmt.Sprintf("impostor-%d", i)))
	}
	for _, tc := range []struct {
		name, contentType string
		body              []byte
	}{
		{"NDJSON", BatchContentType, ndjson},
		{"OAKRPT1 batch", report.ContentTypeBinaryBatch, frames},
	} {
		calls = 0
		req, err := http.NewRequest(http.MethodPost, ReportPathV1, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", tc.contentType)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"processed": 16`)) {
			t.Fatalf("%s: status %d: %s", tc.name, rec.Code, rec.Body)
		}
		if calls != 1 {
			t.Errorf("%s: the user-ID function ran %d times for a 16-report batch, want once", tc.name, calls)
		}
		if got := engine.Users(); got != 1 {
			t.Errorf("%s: engine users = %d, want 1 (the function's identity is authoritative)", tc.name, got)
		}
	}
}

// TestWireFormatsYieldIdenticalState is the acceptance pin: the same logical
// report stream, submitted once as JSON and once as OAKRPT1, leaves two
// engines with byte-identical exported state.
func TestWireFormatsYieldIdenticalState(t *testing.T) {
	fixed := time.Unix(1700000000, 0)
	build := func() (*core.Engine, *httptest.Server) {
		engine, err := core.NewEngine([]*rules.Rule{swapRule()}, core.WithClock(func() time.Time { return fixed }))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { engine.Close() })
		ts := httptest.NewServer(NewServer(engine))
		t.Cleanup(ts.Close)
		return engine, ts
	}
	jsonEngine, jsonTS := build()
	binEngine, binTS := build()

	for i := 0; i < 5; i++ {
		rep := binaryReport(fmt.Sprintf("wire-u%d", i))
		jsonBody, err := rep.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		binBody, err := rep.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for _, post := range []struct {
			ts   *httptest.Server
			ct   string
			body []byte
		}{
			{jsonTS, report.ContentTypeJSON, jsonBody},
			{binTS, report.ContentTypeBinary, binBody},
		} {
			resp, err := http.Post(post.ts.URL+ReportPathV1, post.ct, bytes.NewReader(post.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("%s status = %d, want 204", post.ct, resp.StatusCode)
			}
		}
	}

	jsonState, err := jsonEngine.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	binState, err := binEngine.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonState, binState) {
		t.Errorf("engine exports differ by wire format:\njson: %s\nbinary: %s", jsonState, binState)
	}
}
