package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"oak/internal/rules"
)

// Serve-path benchmarks: cold (every request recomputes the rewrite), warm
// (rewrite cache hit), no-op (user with no activations — must not
// allocate), and parallel warm serving.

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
		prof.activate(r, 0, now, "bench-server", 10)
	}
	sh.mu.Unlock()
	return e
}

const benchServeRuleCount = 8

// BenchmarkModifyPageCold measures the per-request rewrite with no rewrite
// cache: every request derives the activation set, compiles an applier and
// recomputes the page, as production does with -rewrite-cache 0.
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

// BenchmarkModifyPageWarm measures the same rewrite served from the rewrite
// cache: one content hash, one probe, zero rule work.
func BenchmarkModifyPageWarm(b *testing.B) {
	rs := benchServeRules(benchServeRuleCount)
	page := benchServePage(rs)
	e := benchServeEngine(b, rs, WithRewriteCache(1024))
	if rw := e.RewritePage("u1", "/index.html", page); len(rw.Applied) == 0 {
		b.Fatal("warming rewrite did not apply")
	}
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rw := e.RewritePage("u1", "/index.html", page)
		if !rw.CacheHit {
			b.Fatal("expected cache hit")
		}
	}
}

// BenchmarkModifyPageNoOp measures serving a user with no activations; the
// acceptance bar is zero allocations per call.
func BenchmarkModifyPageNoOp(b *testing.B) {
	rs := benchServeRules(benchServeRuleCount)
	page := benchServePage(rs)
	e := benchServeEngine(b, rs, WithRewriteCache(1024))
	e.ModifyPage("visitor", "/index.html", page) // settle any one-time state
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, applied := e.ModifyPage("visitor", "/index.html", page)
		if applied != nil || out != page {
			b.Fatal("no-op path modified the page")
		}
	}
}

// BenchmarkModifyPageParallel serves the warm path from all CPUs at once.
func BenchmarkModifyPageParallel(b *testing.B) {
	rs := benchServeRules(benchServeRuleCount)
	page := benchServePage(rs)
	e := benchServeEngine(b, rs, WithRewriteCache(1024))
	e.RewritePage("u1", "/index.html", page)
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rw := e.RewritePage("u1", "/index.html", page)
			if rw.HTML == page {
				b.Fatal("rewrite did not apply")
			}
		}
	})
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
