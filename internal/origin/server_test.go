package origin

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"oak/internal/core"
	"oak/internal/report"
	"oak/internal/rules"
)

func newTestServer(t *testing.T, rs []*rules.Rule) *Server {
	t.Helper()
	engine, err := core.NewEngine(rs)
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(engine)
}

func TestServeUnknownPage404(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/missing.html")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

func TestServeIssuesCookie(t *testing.T) {
	s := newTestServer(t, nil)
	s.SetPage("/index.html", "<html>hello</html>")
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var found bool
	for _, c := range resp.Cookies() {
		if c.Name == CookieName && c.Value != "" {
			found = true
		}
	}
	if !found {
		t.Error("no oak cookie issued to fresh client")
	}
}

func TestServeKeepsExistingCookie(t *testing.T) {
	s := newTestServer(t, nil)
	s.SetPage("/", "<html></html>")
	ts := httptest.NewServer(s)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/", nil)
	req.AddCookie(&http.Cookie{Name: CookieName, Value: "existing-user"})
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	for _, c := range resp.Cookies() {
		if c.Name == CookieName {
			t.Errorf("server re-issued cookie %q over existing one", c.Value)
		}
	}
}

func TestReportEndpointValidation(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// GET not allowed.
	resp, err := http.Get(ts.URL + ReportPathV1)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET report status = %d, want 405", resp.StatusCode)
	}

	// Bad JSON rejected.
	resp, err = http.Post(ts.URL+ReportPathV1, "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status = %d, want 400", resp.StatusCode)
	}

	// Valid report accepted.
	rep := &report.Report{UserID: "u1", Page: "/", Entries: []report.Entry{
		{URL: "http://x.example/a", ServerAddr: "1.2.3.4", SizeBytes: 10, DurationMillis: 5},
	}}
	data, _ := rep.Marshal()
	resp, err = http.Post(ts.URL+ReportPathV1, "application/json", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("valid report status = %d, want 204", resp.StatusCode)
	}
	if s.Engine().Users() != 1 {
		t.Errorf("engine users = %d, want 1", s.Engine().Users())
	}
}

func TestReportCookieOverridesBodyUserID(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	rep := &report.Report{UserID: "spoofed", Page: "/", Entries: []report.Entry{
		{URL: "http://x.example/a", ServerAddr: "1.2.3.4", SizeBytes: 10, DurationMillis: 5},
	}}
	data, _ := rep.Marshal()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+ReportPathV1, strings.NewReader(string(data)))
	req.AddCookie(&http.Cookie{Name: CookieName, Value: "real-user"})
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if _, ok := s.Engine().Snapshot("real-user"); !ok {
		t.Error("report not attributed to cookie identity")
	}
	if _, ok := s.Engine().Snapshot("spoofed"); ok {
		t.Error("spoofed body user id accepted over cookie")
	}
}

func TestPageMethodRestrictions(t *testing.T) {
	s := newTestServer(t, nil)
	s.SetPage("/", "<html></html>")
	ts := httptest.NewServer(s)
	defer ts.Close()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE status = %d, want 405", resp.StatusCode)
	}
}

func TestContentServer(t *testing.T) {
	cs := NewContentServer()
	cs.AddObject("/obj.bin", 1234)
	cs.AddScript("/a.js", "console.log(1)")
	ts := httptest.NewServer(cs)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/obj.bin")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(data) != 1234 {
		t.Errorf("object size = %d, want 1234", len(data))
	}

	resp, err = http.Get(ts.URL + "/a.js")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "console.log(1)" {
		t.Errorf("script body = %q", body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "javascript") {
		t.Errorf("script content type = %q", ct)
	}

	resp, err = http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing object status = %d", resp.StatusCode)
	}
}

func TestContentServerDelay(t *testing.T) {
	cs := NewContentServer()
	cs.AddObject("/o", 10)
	if cs.Delay() != 0 {
		t.Error("fresh server has delay")
	}
	cs.SetDelay(25 * time.Millisecond)
	req := httptest.NewRequest(http.MethodGet, "/o", nil)
	rec := httptest.NewRecorder()
	start := time.Now()
	cs.ServeHTTP(rec, req)
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("delayed response took %v, want >= ~25ms", elapsed)
	}
}
