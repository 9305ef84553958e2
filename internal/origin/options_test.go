package origin

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/fstest"
)

func TestWithUserIDFunc(t *testing.T) {
	s := newTestServer(t, nil)
	engine := s.Engine()
	s2 := NewServer(engine, WithUserIDFunc(func(r *http.Request) string {
		return r.Header.Get("X-Session-User")
	}))
	s2.SetPage("/", "<html></html>")
	ts := httptest.NewServer(s2)
	defer ts.Close()

	// Identified request: no cookie is issued, and reports land on the
	// header identity even when the body claims otherwise.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/", nil)
	req.Header.Set("X-Session-User", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if len(resp.Cookies()) != 0 {
		t.Error("cookie issued despite custom identity")
	}

	req, _ = http.NewRequest(http.MethodPost, ts.URL+ReportPathV1, strings.NewReader(slowReportBody("mallory")))
	req.Header.Set("X-Session-User", "alice")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("report status = %d", resp.StatusCode)
	}
	if _, ok := engine.Snapshot("alice"); !ok {
		t.Error("report not attributed to header identity")
	}
	if _, ok := engine.Snapshot("mallory"); ok {
		t.Error("body identity overrode the custom user-ID function")
	}

	// Unidentified request falls back to the cookie mechanism.
	resp, err = http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	var issued bool
	for _, c := range resp.Cookies() {
		issued = issued || c.Name == CookieName
	}
	if !issued {
		t.Error("no cookie fallback when the user-ID function returns \"\"")
	}
}

func TestWithMaxBodyBytes(t *testing.T) {
	s := newTestServer(t, nil)
	small := NewServer(s.Engine(), WithMaxBodyBytes(64))
	ts := httptest.NewServer(small)
	defer ts.Close()

	resp, err := http.Post(ts.URL+ReportPathV1, "application/json",
		strings.NewReader(strings.Repeat("x", 100)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413 at the lowered bound", resp.StatusCode)
	}

	// Non-positive keeps the default.
	def := NewServer(s.Engine(), WithMaxBodyBytes(0))
	if def.maxBodyBytes != DefaultMaxBodyBytes {
		t.Errorf("WithMaxBodyBytes(0) left bound %d, want default %d", def.maxBodyBytes, DefaultMaxBodyBytes)
	}
}

func TestWithPagesFrom(t *testing.T) {
	fsys := fstest.MapFS{
		"index.html":      {Data: []byte("<html>root</html>")},
		"docs/index.html": {Data: []byte("<html>docs</html>")},
		"docs/guide.html": {Data: []byte("<html>guide</html>")},
		"style.css":       {Data: []byte("not a page")},
	}
	s := newTestServer(t, nil)
	s2 := NewServer(s.Engine(), WithPagesFrom(fsys))

	want := []string{"/", "/docs/", "/docs/guide.html", "/docs/index.html", "/index.html"}
	if got := s2.Pages(); !reflect.DeepEqual(got, want) {
		t.Errorf("Pages() = %v, want %v", got, want)
	}

	ts := httptest.NewServer(s2)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/docs/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "docs") {
		t.Errorf("GET /docs/ = %q", body)
	}
}

func TestRemovePageAndPages(t *testing.T) {
	s := newTestServer(t, nil)
	s.SetPage("/a.html", "<html>a</html>")
	s.SetPage("/b.html", "<html>b</html>")
	if got := s.Pages(); !reflect.DeepEqual(got, []string{"/a.html", "/b.html"}) {
		t.Fatalf("Pages() = %v", got)
	}

	s.RemovePage("/a.html")
	s.RemovePage("/never-was.html") // removing an unknown path is a no-op
	if got := s.Pages(); !reflect.DeepEqual(got, []string{"/b.html"}) {
		t.Fatalf("Pages() after remove = %v", got)
	}

	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/a.html")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("removed page status = %d, want 404", resp.StatusCode)
	}
}

func TestLoadPagesLayersBundles(t *testing.T) {
	s := newTestServer(t, nil)
	if _, err := s.LoadPages(fstest.MapFS{"index.html": {Data: []byte("v1")}}); err != nil {
		t.Fatal(err)
	}
	n, err := s.LoadPages(fstest.MapFS{
		"index.html": {Data: []byte("v2")},
		"new.html":   {Data: []byte("new")},
	})
	if err != nil || n != 2 {
		t.Fatalf("LoadPages = %d, %v", n, err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "v2" {
		t.Errorf("layered page = %q, want v2", body)
	}
}
