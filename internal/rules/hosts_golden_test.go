package rules_test

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"oak/internal/core"
	"oak/internal/htmlscan"
	"oak/internal/rules"
	"oak/internal/webgen"
)

var updateHosts = flag.Bool("update-hosts", false, "rewrite testdata/hosts.golden")

// hostSets are the rule sets the golden covers: the demo site's rules and
// the generated catalog's, one set per site.
func hostSets(t *testing.T) map[string][]*rules.Rule {
	t.Helper()
	data, err := os.ReadFile("../../examples/site/rules.oak")
	if err != nil {
		t.Fatal(err)
	}
	site, err := rules.ParseDSL(string(data))
	if err != nil {
		t.Fatal(err)
	}
	sets := map[string][]*rules.Rule{"examples/site/rules.oak": site}
	gen := webgen.NewGenerator(webgen.Config{Seed: 7, NumSites: 12})
	for i, s := range gen.Catalog() {
		rs := webgen.BuildRules(s, []string{"na", "eu", "as"})
		for _, r := range rs {
			if err := r.Compile(); err != nil {
				t.Fatal(err)
			}
		}
		sets[fmt.Sprintf("webgen seed 7 site %02d", i)] = rs
	}
	return sets
}

// dumpHosts writes every host list a rule answers and the set's lint
// warnings, one line each.
func dumpHosts(b *strings.Builder, name string, rs []*rules.Rule) {
	fmt.Fprintf(b, "== %s\n", name)
	for _, r := range rs {
		fmt.Fprintf(b, "rule %s src %q default %q scripts %q\n", r.ID, r.SrcHosts(), r.DefaultHosts(), r.ScriptSrcs())
		for i := range r.Alternatives {
			fmt.Fprintf(b, "  alt %d src %q providers %q\n", i, r.AlternativeSrcHosts(i), r.AlternativeHosts(i))
		}
	}
	for _, w := range rules.Lint(rs) {
		fmt.Fprintf(b, "lint %s\n", w)
	}
}

// TestHostsGolden holds every rule's hosts, script srcs and lint warnings,
// compiled and not, to what the regexp scanners derived (the golden was
// written before the scanners lost their regular expressions), over the demo
// site's rules and a generated catalog's.
func TestHostsGolden(t *testing.T) {
	sets := hostSets(t)
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	slices.Sort(names)
	var b strings.Builder
	for _, name := range names {
		dumpHosts(&b, name, sets[name])
	}
	const path = "testdata/hosts.golden"
	if *updateHosts {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// An uncompiled rule scans live and answers the same.
	var live strings.Builder
	for _, name := range names {
		var rs []*rules.Rule
		for _, r := range sets[name] {
			rs = append(rs, &rules.Rule{ID: r.ID, Type: r.Type, Default: r.Default, Alternatives: r.Alternatives, TTL: r.TTL, Scope: r.Scope, SubRules: r.SubRules})
		}
		dumpHosts(&live, name, rs)
	}
	if live.String() != b.String() {
		t.Error("uncompiled rules answer otherwise than compiled ones")
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}

// TestCompiledRulesScanNothing: once Compile has scanned a rule set's texts,
// the linter, the host accessors and an engine built from the set, its guard
// table and prober targets included, scan none of them again.
func TestCompiledRulesScanNothing(t *testing.T) {
	for name, rs := range hostSets(t) {
		before := htmlscan.ScanCount()
		rules.Lint(rs)
		for _, r := range rs {
			r.SrcHosts()
			r.DefaultHosts()
			r.ScriptSrcs()
			for i := range r.Alternatives {
				r.AlternativeSrcHosts(i)
				r.AlternativeHosts(i)
			}
		}
		e, err := core.NewEngine(rs, core.WithGuard(core.GuardConfig{TripThreshold: 3}))
		if err != nil {
			t.Fatal(err)
		}
		e.AlternateProviders()
		e.Close()
		if n := htmlscan.ScanCount() - before; n != 0 {
			t.Errorf("%s: %d text scans after Compile, want none", name, n)
		}
	}
}
