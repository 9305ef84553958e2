package oak_test

import (
	"fmt"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"oak"
)

// world wires a complete loopback Oak deployment through the public facade
// only: an Oak origin, content servers for each provider, and a resolver.
type world struct {
	origin   *httptest.Server
	oak      *oak.Server
	content  map[string]*oak.ContentServer
	backends map[string]*httptest.Server
}

func (w *world) resolve(host string) (string, bool) {
	ts, ok := w.backends[host]
	if !ok {
		return "", false
	}
	u, err := url.Parse(ts.URL)
	if err != nil {
		return "", false
	}
	return u.Host, true
}

func (w *world) close() {
	w.origin.Close()
	for _, ts := range w.backends {
		ts.Close()
	}
}

func newWorld(t *testing.T, ruleText string, hosts ...string) *world {
	t.Helper()
	rs, err := oak.ParseRules(ruleText)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := oak.NewEngine(rs)
	if err != nil {
		t.Fatal(err)
	}
	w := &world{
		oak:      oak.NewServer(engine),
		content:  make(map[string]*oak.ContentServer),
		backends: make(map[string]*httptest.Server),
	}
	for _, h := range hosts {
		cs := oak.NewContentServer()
		cs.AddObject("/obj.bin", 4096)
		w.content[h] = cs
		w.backends[h] = httptest.NewServer(cs)
	}
	w.origin = httptest.NewServer(w.oak)
	return w
}

const facadeRules = `
rule swap-primary {
  type 2
  default "<img src=\"http://primary.example/obj.bin\">"
  alt "<img src=\"http://backup.example/obj.bin\">"
  ttl 0
  scope *
}
`

func facadePage(hosts []string) string {
	var b strings.Builder
	b.WriteString("<html><body>\n")
	for _, h := range hosts {
		fmt.Fprintf(&b, "<img src=%q>\n", "http://"+h+"/obj.bin")
	}
	b.WriteString("</body></html>")
	return b.String()
}

// TestFacadeEndToEnd drives the full public API: parse rules, build the
// engine and server, run an instrumented client, watch Oak switch a
// degraded provider.
func TestFacadeEndToEnd(t *testing.T) {
	hosts := []string{"primary.example", "h2.example", "h3.example", "h4.example", "h5.example", "backup.example"}
	w := newWorld(t, facadeRules, hosts...)
	defer w.close()
	w.oak.SetPage("/index.html", facadePage(hosts[:5]))
	w.content["primary.example"].SetDelay(120 * time.Millisecond)

	c := &oak.Client{Resolve: w.resolve}
	res, html, err := c.LoadAndReport(w.origin.URL, "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(html, "primary.example") {
		t.Fatal("first load should be the default page")
	}
	if len(res.Report.Entries) != 5 {
		t.Fatalf("report entries = %d, want 5", len(res.Report.Entries))
	}

	_, html2, err := c.LoadAndReport(w.origin.URL, "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(html2, "primary.example") || !strings.Contains(html2, "backup.example") {
		t.Errorf("second load not switched: %q", html2)
	}

	snap, ok := w.oak.Engine().Snapshot(c.UserID)
	if !ok || len(snap.ActiveRules) != 1 || snap.ActiveRules[0] != "swap-primary" {
		t.Errorf("snapshot = %+v", snap)
	}
	audit, err := w.oak.Engine().Audit()
	if err != nil || len(audit.Rules) != 1 || audit.Rules[0].RuleID != "swap-primary" {
		t.Errorf("audit = %+v, %v", audit, err)
	}
}

func TestFacadeRuleRoundTrip(t *testing.T) {
	rs, err := oak.ParseRules(facadeRules)
	if err != nil {
		t.Fatal(err)
	}
	data, err := oak.MarshalRules(rs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := oak.ParseRulesJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].ID != "swap-primary" || back[0].Type != oak.TypeReplaceSame {
		t.Errorf("round trip = %+v", back[0])
	}
}

func TestFacadeEngineOptions(t *testing.T) {
	var logged bool
	fixed := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	engine, err := oak.NewEngine(nil,
		oak.WithPolicy(oak.Policy{MADMultiplier: 3, MinViolations: 2}),
		oak.WithClock(func() time.Time { return fixed }),
		oak.WithLogf(func(string, ...any) { logged = true }),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep := &oak.Report{UserID: "u", Page: "/", Entries: []oak.Entry{
		{URL: "http://a.example/x", ServerAddr: "1.1.1.1", SizeBytes: 10, DurationMillis: 5},
	}}
	if _, err := engine.HandleReport(rep); err != nil {
		t.Fatal(err)
	}
	snap, ok := engine.Snapshot("u")
	if !ok || !snap.LastReport.Equal(fixed) {
		t.Errorf("snapshot = %+v, want clock-injected LastReport", snap)
	}
	_ = logged // logging only fires on decisions; presence compile-checked
}

func TestFacadeUnmarshalReport(t *testing.T) {
	rep := &oak.Report{UserID: "u", Page: "/", Entries: []oak.Entry{
		{URL: "http://a.example/x", SizeBytes: 10, DurationMillis: 5},
	}}
	data, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := oak.UnmarshalReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.UserID != "u" || len(back.Entries) != 1 {
		t.Errorf("round trip = %+v", back)
	}
}

// TestLoadRulesAutodetect feeds LoadRules each format it claims to
// auto-detect — the DSL, a JSON array, and a JSON object with leading
// whitespace — and expects the same compiled rule from all three.
func TestLoadRulesAutodetect(t *testing.T) {
	dsl, err := oak.ParseRules(facadeRules)
	if err != nil {
		t.Fatal(err)
	}
	asJSON, err := oak.MarshalRules(dsl)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]string{
		"dsl":        facadeRules,
		"json":       string(asJSON),
		"jsonSpaced": "\n\t  " + string(asJSON),
	}
	for name, in := range inputs {
		rs, err := oak.LoadRules(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%s: LoadRules: %v", name, err)
		}
		if len(rs.Rules) != 1 || rs.Rules[0].ID != "swap-primary" || rs.Rules[0].Type != oak.TypeReplaceSame {
			t.Errorf("%s: rules = %+v", name, rs.Rules)
		}
	}
}

func TestLoadRulesRejectsGarbage(t *testing.T) {
	for name, in := range map[string]string{
		"badJSON": `[{"id": }`,
		"badDSL":  `rule broken { type 9`,
	} {
		if _, err := oak.LoadRules(strings.NewReader(in)); err == nil {
			t.Errorf("%s: LoadRules accepted invalid input", name)
		}
	}
}

// TestRuleSetLintAndMarshal exercises the RuleSet methods around LoadRules:
// Lint surfaces the no-alternatives trap, MarshalJSON re-exports losslessly.
func TestRuleSetLintAndMarshal(t *testing.T) {
	rs, err := oak.LoadRules(strings.NewReader(facadeRules))
	if err != nil {
		t.Fatal(err)
	}
	if ws := rs.Lint(); len(ws) != 0 {
		t.Errorf("clean set linted dirty: %v", ws)
	}
	rs.Rules[0].Alternatives = nil
	found := false
	for _, w := range rs.Lint() {
		if w.Code == "no-alternatives" {
			found = true
		}
	}
	if !found {
		t.Errorf("lint missed no-alternatives: %v", rs.Lint())
	}

	rs2, err := oak.LoadRules(strings.NewReader(facadeRules))
	if err != nil {
		t.Fatal(err)
	}
	data, err := rs2.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := oak.LoadRules(strings.NewReader(string(data)))
	if err != nil {
		t.Fatalf("re-load of MarshalJSON output: %v", err)
	}
	if len(back.Rules) != 1 || back.Rules[0].ID != "swap-primary" {
		t.Errorf("marshal round trip = %+v", back.Rules)
	}
}
