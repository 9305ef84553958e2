package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"oak/internal/rules"
)

// Serve-path benchmarks: cold (a body the engine does not hold, indexed per
// call), warm (a registered page, spliced from its index), no-op (user with
// no activations — must not allocate), parallel warm serving, and the warm
// serve at 8, 32 and 128 KB.

// benchServeRules builds n Type 2/1 rules over distinct third-party blocks.
func benchServeRules(n int) []*rules.Rule {
	rs := make([]*rules.Rule, 0, n)
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			rs = append(rs, &rules.Rule{
				ID:      fmt.Sprintf("kill-%d", i),
				Type:    rules.TypeRemove,
				Default: fmt.Sprintf(`<script src="http://tracker%d.example/t.js"></script>`, i),
				Scope:   "*",
			})
			continue
		}
		rs = append(rs, &rules.Rule{
			ID:      fmt.Sprintf("swap-%d", i),
			Type:    rules.TypeReplaceSame,
			Default: fmt.Sprintf(`<script src="http://cdn%d.example/lib.js">`, i),
			Alternatives: []string{
				fmt.Sprintf(`<script src="http://alt%d.example/lib.js">`, i),
			},
			Scope: "*",
		})
	}
	return rs
}

// benchServePage builds a page where every rule matches once, padded with
// realistic filler so the scan cost is visible.
func benchServePage(rs []*rules.Rule) string {
	var b strings.Builder
	b.WriteString("<html><head><title>bench</title></head><body>\n")
	for i, r := range rs {
		fmt.Fprintf(&b, "<div class=\"sect-%d\">%s</div>\n", i, strings.Repeat("<p>copy copy copy</p>", 20))
		b.WriteString(r.Default)
		if r.Type == rules.TypeRemove {
			b.WriteString("") // Default already carries the closing tag
		} else {
			b.WriteString("</script>")
		}
		b.WriteString("\n")
	}
	b.WriteString("</body></html>\n")
	return b.String()
}

// benchServeEngine builds an engine with every rule activated for "u1".
func benchServeEngine(b *testing.B, rs []*rules.Rule, opts ...Option) *Engine {
	b.Helper()
	e, err := NewEngine(rs, opts...)
	if err != nil {
		b.Fatal(err)
	}
	now := time.Now()
	sh := e.shardFor("u1")
	sh.mu.Lock()
	prof := e.profileLocked(sh, "u1")
	for _, r := range e.rules {
		prof.activate(r, 0, 0, now, "bench-server", 10)
	}
	sh.mu.Unlock()
	return e
}

const benchServeRuleCount = 8

// BenchmarkModifyPageCold measures rewriting a body the engine does not
// hold, as a library caller of ModifyPage does: every call indexes the page
// (one scan over every rule's default) and splices the user's activations.
func BenchmarkModifyPageCold(b *testing.B) {
	rs := benchServeRules(benchServeRuleCount)
	page := benchServePage(rs)
	e := benchServeEngine(b, rs)
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, applied := e.ModifyPage("u1", "/index.html", page)
		if len(applied) == 0 || out == page {
			b.Fatal("rewrite did not apply")
		}
	}
}

// BenchmarkModifyPageWarm measures the serve path on a registered page: the
// page was indexed on its first serve, so a serve derives the view, resolves
// it on the index and derives the tag — no scan, hash or copy of the page.
func BenchmarkModifyPageWarm(b *testing.B) {
	rs := benchServeRules(benchServeRuleCount)
	benchModifyPageWarm(b, benchServeEngine(b, rs), benchServePage(rs))
}

// BenchmarkModifyPageWarmAfterTrip is BenchmarkModifyPageWarm once rollbacks
// have happened: every rule was quarantined and released, so the epoch table
// is published and each served activation, admitted after the release, pays
// one lookup in it.
func BenchmarkModifyPageWarmAfterTrip(b *testing.B) {
	rs := benchServeRules(benchServeRuleCount)
	e := benchServeEngine(b, rs, WithGuard(GuardConfig{}))
	sh := e.shardFor("u1")
	sh.mu.Lock()
	prof := e.profileLocked(sh, "u1")
	for _, r := range e.rules {
		e.QuarantineRule(r.ID)
		e.ReleaseRule(r.ID)
		prof.activate(r, 0, e.epochs.Load().at(r.ID, 0), time.Now(), "bench-server", 10)
	}
	sh.mu.Unlock()
	if e.epochs.Load() == nil {
		b.Fatal("no epoch table published")
	}
	benchModifyPageWarm(b, e, benchServePage(rs))
}

func benchModifyPageWarm(b *testing.B, e *Engine, page string) {
	e.SetPage("/index.html", page)
	p := e.Page("/index.html")
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if plan, _ := e.ServePage("u1", p, false); len(plan.Applied) == 0 || plan.ETag == "" {
			b.Fatal("rewrite did not apply")
		}
	}
}

// BenchmarkModifyPageNoOp measures serving a user with no activations; the
// acceptance bar is zero allocations per call.
func BenchmarkModifyPageNoOp(b *testing.B) {
	rs := benchServeRules(benchServeRuleCount)
	page := benchServePage(rs)
	e := benchServeEngine(b, rs)
	e.SetPage("/index.html", page)
	p := e.Page("/index.html")
	e.ServePage("visitor", p, true) // index the page
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if plan, _ := e.ServePage("visitor", p, false); plan.Applied != nil || plan.Segments[0] != page {
			b.Fatal("no-op path modified the page")
		}
	}
}

// BenchmarkModifyPageParallel serves the warm path from all CPUs at once.
func BenchmarkModifyPageParallel(b *testing.B) {
	rs := benchServeRules(benchServeRuleCount)
	page := benchServePage(rs)
	e := benchServeEngine(b, rs)
	e.SetPage("/index.html", page)
	p := e.Page("/index.html")
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if plan, _ := e.ServePage("u1", p, true); len(plan.Applied) == 0 {
				b.Fatal("rewrite did not apply")
			}
		}
	})
}

// BenchmarkServePageSizes is the warm serve at the benchmark's three page
// sizes, 8, 32 and 128 KB, every rule matching once.
func BenchmarkServePageSizes(b *testing.B) {
	rs := benchServeRules(benchServeRuleCount)
	for _, kb := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			page := benchServePageSized(rs, kb<<10)
			e := benchServeEngine(b, rs)
			e.SetPage("/index.html", page)
			p := e.Page("/index.html")
			e.ServePage("u1", p, true) // index the page
			b.SetBytes(int64(len(page)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if plan, _ := e.ServePage("u1", p, false); len(plan.Applied) != len(rs) {
					b.Fatal("rewrite did not apply")
				}
			}
		})
	}
}

// benchServePageSized is benchServePage padded with filler paragraphs to
// size bytes.
func benchServePageSized(rs []*rules.Rule, size int) string {
	page := benchServePage(rs)
	const filler = "<p>filler copy to reach the page size</p>\n"
	if pad := size - len(page); pad > 0 {
		page = strings.Replace(page, "</body>", strings.Repeat(filler, pad/len(filler)+1)+"</body>", 1)
	}
	return page
}

// BenchmarkApplySequentialReference is the pre-compilation baseline: the
// sequential Count+ReplaceAll chain the compiled applier replaces.
func BenchmarkApplySequentialReference(b *testing.B) {
	rs := benchServeRules(benchServeRuleCount)
	page := benchServePage(rs)
	e := benchServeEngine(b, rs)
	acts := e.ActiveRules("u1", "/index.html")
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, applied := rules.Apply(page, "/index.html", acts)
		if len(applied) == 0 || out == page {
			b.Fatal("rewrite did not apply")
		}
	}
}
