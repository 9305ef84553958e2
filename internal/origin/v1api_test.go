package origin

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"oak/internal/core"
	"oak/internal/rules"
)

// get fetches a path and returns status + body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestV1ReportPathIngests(t *testing.T) {
	s := newTestServer(t, []*rules.Rule{swapRule()})
	ts := httptest.NewServer(s)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodPost, ts.URL+ReportPathV1, strings.NewReader(slowReportBody("v1user")))
	req.AddCookie(&http.Cookie{Name: CookieName, Value: "v1user"})
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("POST %s = %d, want 204", ReportPathV1, resp.StatusCode)
	}
	if got := s.engine.Metrics().ReportsHandled; got != 1 {
		t.Errorf("ReportsHandled = %d, want 1", got)
	}
}

func TestPopulationEndpointServesStatus(t *testing.T) {
	engine, err := core.NewEngine([]*rules.Rule{swapRule()},
		core.WithSynthesis(core.SynthesisConfig{Window: time.Minute}))
	if err != nil {
		t.Fatal(err)
	}
	engine.MarkDegraded("slow.example")
	ts := httptest.NewServer(NewServer(engine))
	defer ts.Close()

	st, body := get(t, ts.URL+PopulationPathV1)
	if st != http.StatusOK {
		t.Fatalf("GET %s = %d, want 200", PopulationPathV1, st)
	}
	var ps core.PopulationStatus
	if err := json.Unmarshal(body, &ps); err != nil {
		t.Fatalf("GET %s: decode: %v", PopulationPathV1, err)
	}
	if len(ps.Degraded) != 1 || ps.Degraded[0].Provider != "slow.example" || !ps.Degraded[0].Manual {
		t.Errorf("GET %s degraded = %+v, want one manual slow.example episode", PopulationPathV1, ps.Degraded)
	}

	// The flag also surfaces on healthz, where load balancers look.
	var hz HealthzResponse
	if _, body := get(t, ts.URL+HealthzPathV1); json.Unmarshal(body, &hz) != nil {
		t.Fatal("healthz decode failed")
	}
	if len(hz.DegradedProviders) != 1 || hz.DegradedProviders[0] != "slow.example" {
		t.Errorf("healthz DegradedProviders = %v, want [slow.example]", hz.DegradedProviders)
	}
}

func TestPopulationEndpoint404WithoutSynthesis(t *testing.T) {
	s := newTestServer(t, []*rules.Rule{swapRule()}) // no WithSynthesis
	ts := httptest.NewServer(s)
	defer ts.Close()

	if st, _ := get(t, ts.URL+PopulationPathV1); st != http.StatusNotFound {
		t.Errorf("GET %s = %d, want 404 on a synthesis-less engine", PopulationPathV1, st)
	}
}
