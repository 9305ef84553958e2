package origin

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oak/internal/core"
	"oak/internal/report"
	"oak/internal/rules"
)

func TestReportTooLargeRejected(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	huge := strings.Repeat("x", DefaultMaxBodyBytes+10)
	resp, err := http.Post(ts.URL+ReportPathV1, "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", resp.StatusCode)
	}
	if s.Engine().Users() != 0 {
		t.Error("oversized report reached the engine")
	}
}

func TestHeadRequestNoBody(t *testing.T) {
	s := newTestServer(t, nil)
	s.SetPage("/", "<html>body here</html>")
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Head(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("HEAD status = %d", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Errorf("HEAD returned %d body bytes", len(body))
	}
	if cl := resp.Header.Get("Content-Length"); cl != "22" {
		t.Errorf("Content-Length = %q, want 22", cl)
	}
}

func TestContentTypeHTML(t *testing.T) {
	s := newTestServer(t, nil)
	s.SetPage("/", "<html></html>")
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("Content-Type = %q", ct)
	}
}

func TestSetPageReplaces(t *testing.T) {
	s := newTestServer(t, nil)
	s.SetPage("/", "<html>v1</html>")
	s.SetPage("/", "<html>v2</html>")
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "v2") {
		t.Errorf("page not replaced: %q", body)
	}
}

func TestDistinctUsersGetDistinctCookies(t *testing.T) {
	s := newTestServer(t, nil)
	s.SetPage("/", "<html></html>")
	ts := httptest.NewServer(s)
	defer ts.Close()

	get := func() string {
		resp, err := http.Get(ts.URL + "/")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		for _, c := range resp.Cookies() {
			if c.Name == CookieName {
				return c.Value
			}
		}
		return ""
	}
	a, b := get(), get()
	if a == "" || b == "" || a == b {
		t.Errorf("cookies not distinct: %q vs %q", a, b)
	}
}

func TestAuditEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + AuditPathV1)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("audit status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "Oak audit") {
		t.Errorf("audit body = %q", body)
	}

	req, _ := http.NewRequest(http.MethodPost, ts.URL+AuditPathV1, nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST audit status = %d, want 405", resp2.StatusCode)
	}
}

// TestAuditEndpointFailsOnUnreadableSpill: the audit reads spilled records as
// an export does, so a record that cannot be read for an I/O reason is a 500,
// not an audit that silently leaves its user out.
func TestAuditEndpointFailsOnUnreadableSpill(t *testing.T) {
	dir := t.TempDir()
	engine, err := core.NewEngine([]*rules.Rule{swapRule()}, core.WithShards(1),
		core.WithProfileResidency(core.ResidencyConfig{Dir: dir, MaxProfiles: 1}))
	if err != nil {
		t.Fatal(err)
	}
	for _, uid := range []string{"a", "b", "c"} {
		if _, err := engine.HandleReport(binaryReport(uid)); err != nil {
			t.Fatal(err)
		}
	}
	// Close releases the segment files; the audit reopens them, which fails
	// once they are gone.
	engine.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments = %v, %v; want some", segs, err)
	}
	for _, seg := range segs {
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewServer(engine))
	defer ts.Close()
	resp, err := http.Get(ts.URL + AuditPathV1)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("audit status = %d, want 500", resp.StatusCode)
	}
}

// TestOverlongUserIDIsRefusedOnBothWires: a user ID one byte longer than
// report.MaxBinaryStringLen is a 400 on the JSON wire as on OAKRPT1. No spill
// record holds such a string: one written would take its segment, and every
// user in it, out of service at the next read. The users reported around it
// survive an export and a restart.
func TestOverlongUserIDIsRefusedOnBothWires(t *testing.T) {
	dir, state := t.TempDir(), filepath.Join(t.TempDir(), "state")
	boot := func() *core.Engine {
		e, err := core.NewEngine([]*rules.Rule{swapRule()}, core.WithShards(1),
			core.WithProfileResidency(core.ResidencyConfig{Dir: dir, MaxProfiles: 2}))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	engine := boot()
	ts := httptest.NewServer(NewServer(engine))
	defer ts.Close()
	post := func(uid string, binary bool) int {
		t.Helper()
		rep := binaryReport(uid)
		body, ctype := rep.AppendBinary(nil), report.ContentTypeBinary
		if !binary {
			var err error
			if body, err = rep.Marshal(); err != nil {
				t.Fatal(err)
			}
			ctype = "application/json"
		}
		resp, err := http.Post(ts.URL+ReportPathV1, ctype, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	long := strings.Repeat("u", report.MaxBinaryStringLen+1)
	for i, uid := range []string{"a", "b", long, long, "c", "d", "e"} {
		want := http.StatusNoContent
		if uid == long {
			want = http.StatusBadRequest
		}
		if got := post(uid, i%2 == 1); got != want {
			t.Errorf("report %d (binary %v, a %d-byte user): status %d, want %d", i, i%2 == 1, len(uid), got, want)
		}
	}
	want, err := engine.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := engine.SpillStatus(); engine.Users() != 5 || st.ProfilesSpilled == 0 || len(st.QuarantinedSegments) != 0 {
		t.Fatalf("%d users after the export, %+v; want a..e, some spilled, no segment quarantined", engine.Users(), st)
	}
	if err := engine.SaveStateFile(state); err != nil {
		t.Fatal(err)
	}
	engine.Close()
	rebooted := boot()
	defer rebooted.Close()
	if _, err := rebooted.LoadStateFile(state); err != nil {
		t.Fatal(err)
	}
	if got, err := rebooted.ExportState(); err != nil || rebooted.Users() != 5 || !bytes.Equal(stripSavedAt(got), stripSavedAt(want)) {
		t.Errorf("after the restart: %d users, %v; want the export from before it", rebooted.Users(), err)
	}
}

// stripSavedAt drops an export's savedAt line, which stamps the clock.
func stripSavedAt(export []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(export, []byte("\n")) {
		if !bytes.Contains(line, []byte(`"savedAt"`)) {
			out = append(out, line...)
		}
	}
	return out
}
