package core

import (
	"fmt"
	"testing"
	"time"

	"oak/internal/obs"
	"oak/internal/rules"
)

// Memory-tier benchmarks: the spill→rehydrate round trip a report drives,
// the in-place serve over a population that is 95% cold (spilled), and the
// bounded resident footprint under ingest churn. The headline numbers are
// resident bytes per user, rehydration latency percentiles, and the
// cold-population serve p99 (which must sit far inside
// origin.DefaultRewriteBudget).

func benchSpillEngine(b *testing.B, cfg ResidencyConfig) *Engine {
	b.Helper()
	cfg.Dir = b.TempDir()
	e, err := NewEngine([]*rules.Rule{jqRule(0)}, WithShards(1), WithProfileResidency(cfg))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	return e
}

// BenchmarkSpillRehydrate measures one full residency round trip: durably
// spill a profile (encode + append + fsync) and bring it back the only way
// a profile comes back — the user's next report. The engine's own rehydrate
// histogram is reported as rehydrate_p50_ms / rehydrate_p99_ms, isolating
// the read side from the report's analysis.
func BenchmarkSpillRehydrate(b *testing.B) {
	e := benchSpillEngine(b, ResidencyConfig{MaxProfiles: 1 << 20})
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		b.Fatal(err)
	}
	sh := e.shardFor("u1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.mu.Lock()
		e.spillProfilesLocked(sh, []string{"u1"}, true)
		sh.mu.Unlock()
		if _, err := e.HandleReport(healthyReport("u1")); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := e.Metrics().Rehydrations; got != uint64(b.N) {
		b.Fatalf("Rehydrations = %d over %d round trips", got, b.N)
	}
	sum := e.Latencies().Rehydrate.Summary()
	b.ReportMetric(sum.P50Ms, "rehydrate_p50_ms")
	b.ReportMetric(sum.P99Ms, "rehydrate_p99_ms")
}

// BenchmarkServeCold95 serves pages off a population sized 20x its
// residency cap — 95% of profiles are spilled — walking the users in order
// so nearly every request pays the cold serve's worst case: every user here
// holds an active rule, so the page needs their record read and decoded
// where it lies (a spilled user without one costs two map probes). Nothing
// is installed and nobody is evicted: resident_profiles ends where ingest left
// it, between the cap's low watermark and the cap. Per-request latency lands in a local
// histogram; the p50/p99 are reported alongside ns/op so the JSON can be
// checked against the delivery budget envelope.
func BenchmarkServeCold95(b *testing.B) {
	const population = 2000
	e := benchSpillEngine(b, ResidencyConfig{MaxProfiles: population / 20})
	for i := 0; i < population; i++ {
		if _, err := e.HandleReport(slowS1Report(fmt.Sprintf("u%04d", i))); err != nil {
			b.Fatal(err)
		}
	}
	st, _ := e.SpillStatus()
	if st.ProfilesSpilled == 0 {
		b.Fatal("population not cold; benchmark is vacuous")
	}
	page := `<html><script src="http://s1.com/jquery.js"></script></html>`
	var hist obs.Histogram
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		user := fmt.Sprintf("u%04d", i%population)
		start := time.Now()
		out, _ := e.ModifyPage(user, "/index.html", page)
		hist.Observe(time.Since(start))
		if out == page {
			b.Fatal("cold serve did not rewrite")
		}
	}
	b.StopTimer()
	sum := hist.Snapshot().Summary()
	b.ReportMetric(sum.P50Ms, "serve_p50_ms")
	b.ReportMetric(sum.P99Ms, "serve_p99_ms")
	fin, _ := e.SpillStatus()
	if fin.Spills != st.Spills || fin.ProfilesResident != st.ProfilesResident {
		b.Fatalf("serving moved profiles: spills %d -> %d, resident %d -> %d",
			st.Spills, fin.Spills, st.ProfilesResident, fin.ProfilesResident)
	}
	b.ReportMetric(float64(fin.ProfilesResident), "resident_profiles")
	b.ReportMetric(float64(fin.RecordViews)/float64(b.N), "record_views/op")
}

// BenchmarkIngestCapped is steady-state ingest with the residency cap
// doing its job: reports over a 10x-cap user population, every few of
// which push the shard over the watermark and spill a batch. ns/op is the
// amortised ingest cost with the spill tier on; the footprint metrics show
// the cap holding (resident bytes per user and resident profile count stay
// flat no matter how many users report).
func BenchmarkIngestCapped(b *testing.B) {
	const capProfiles = 200
	e := benchSpillEngine(b, ResidencyConfig{MaxProfiles: capProfiles})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.HandleReport(slowS1Report(fmt.Sprintf("u%04d", i%(capProfiles*10)))); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st, _ := e.SpillStatus()
	if st.ProfilesResident > 0 {
		b.ReportMetric(float64(st.ResidentBytes)/float64(st.ProfilesResident), "bytes_per_resident_user")
	}
	b.ReportMetric(float64(st.ProfilesResident), "resident_profiles")
	b.ReportMetric(float64(st.ProfilesResident)+float64(st.ProfilesSpilled), "total_profiles")
}
