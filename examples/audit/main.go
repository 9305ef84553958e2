// Fleet auditing: what a site operator sees after real traffic.
//
// Thirty users with varied conditions browse an Oak-fronted site: one
// provider is degraded for everyone, another is bad only for a couple of
// unlucky users (a path-specific problem). After the fleet has browsed,
// the example prints the engine's audit — the paper's "offline auditing
// tool" — showing the common offender, the individual problem, aggregate
// counters, and finally round-trips the learned state through
// ExportState/ImportState as a deployment restart would.
//
// Run with: go run ./examples/audit
package main

import (
	"fmt"
	"log"
	"net/http/httptest"
	"net/url"
	"time"

	"oak"
)

const ruleText = `
rule swap-ads {
  type 2
  default "<script src=\"http://ads.example/serve.js\"></script>"
  alt "<script src=\"http://ads-alt.example/serve.js\"></script>"
  ttl 0
  scope *
}

rule swap-fonts {
  type 2
  default <<<
    <link rel="stylesheet" href="http://fonts.example/face.css">
  >>>
  alt <<<
    <link rel="stylesheet" href="http://fonts-alt.example/face.css">
  >>>
  ttl 0
  scope *
}
`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	hosts := []string{"ads.example", "ads-alt.example", "fonts.example", "fonts-alt.example",
		"img.example", "cdn.example", "api.example"}
	baseDelay := map[string]time.Duration{
		"ads.example": 80 * time.Millisecond, // degraded for everyone
		"img.example": 8 * time.Millisecond,
		"cdn.example": 10 * time.Millisecond, "api.example": 12 * time.Millisecond,
		"fonts.example":   9 * time.Millisecond,
		"ads-alt.example": 10 * time.Millisecond, "fonts-alt.example": 10 * time.Millisecond,
	}
	backends := make(map[string]*httptest.Server, len(hosts))
	content := make(map[string]*oak.ContentServer, len(hosts))
	for _, h := range hosts {
		cs := oak.NewContentServer()
		for _, p := range []string{"/serve.js", "/face.css", "/a.bin", "/b.bin", "/c.bin"} {
			cs.AddObject(p, 10*1024)
		}
		cs.SetDelay(baseDelay[h])
		content[h] = cs
		ts := httptest.NewServer(cs)
		defer ts.Close()
		backends[h] = ts
	}

	rules, err := oak.ParseRules(ruleText)
	if err != nil {
		return err
	}
	// The lint pass catches configuration mistakes before deployment.
	for _, w := range oak.LintRules(rules) {
		fmt.Println("lint:", w)
	}
	engine, err := oak.NewEngine(rules)
	if err != nil {
		return err
	}
	server := oak.NewServer(engine)
	server.SetPage("/", `<html><body>
<script src="http://ads.example/serve.js"></script>
<link rel="stylesheet" href="http://fonts.example/face.css">
<img src="http://img.example/a.bin">
<img src="http://cdn.example/b.bin">
<img src="http://api.example/c.bin">
</body></html>`)
	origin := httptest.NewServer(server)
	defer origin.Close()

	resolve := func(host string) (string, bool) {
		ts, ok := backends[host]
		if !ok {
			return "", false
		}
		u, err := url.Parse(ts.URL)
		if err != nil {
			return "", false
		}
		return u.Host, true
	}

	// Thirty users browse twice each. Users 7 and 19 additionally have a
	// terrible path to the fonts provider: before their loads, the example
	// degrades it (a stand-in for a client-specific network blind-spot).
	for i := 0; i < 30; i++ {
		unlucky := i == 7 || i == 19
		if unlucky {
			content["fonts.example"].SetDelay(120 * time.Millisecond)
		}
		c := &oak.Client{Resolve: resolve}
		for load := 0; load < 2; load++ {
			if _, _, err := c.LoadAndReport(origin.URL, "/"); err != nil {
				return err
			}
		}
		if unlucky {
			content["fonts.example"].SetDelay(baseDelay["fonts.example"])
		}
	}

	audit, err := engine.Audit()
	if err != nil {
		return err
	}
	fmt.Println(audit.Render())

	// Restart survival: export, rebuild, import, confirm.
	state, err := engine.ExportState()
	if err != nil {
		return err
	}
	engine2, err := oak.NewEngine(rules)
	if err != nil {
		return err
	}
	if err := engine2.ImportState(state); err != nil {
		return err
	}
	fmt.Printf("state round-trip: %d users restored (%d bytes of state)\n",
		engine2.Users(), len(state))
	return nil
}
