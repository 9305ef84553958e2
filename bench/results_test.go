package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesTheCode keeps the driver's contract file and the
// tables in the code from drifting apart.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/: ", err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("run_seconds %d paths %v, want %d [bench]", doc.RunSeconds, doc.Paths, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if doc.Workloads[i].Name != wl.name || doc.Workloads[i].Why != wl.why {
			t.Errorf("workload %d is %+v, want %s", i, doc.Workloads[i], wl.name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, want := range endToEnd {
		if m := doc.EndToEnd[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end-to-end metric %d is %+v, want %+v", i, m, want)
		}
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics, want %d", len(doc.PerLayer), len(layerMetrics))
	}
	for i, lm := range layerMetrics {
		if m := doc.PerLayer[i]; m.Name != lm.name || m.Unit != lm.unit || m.Better != lm.better {
			t.Errorf("per-layer metric %d is %+v, want %+v", i, m, lm)
		}
	}
}

func TestCompareNamesWhatIsOutsideItsBound(t *testing.T) {
	set := func(ops, p50 float64, failed int64) *resultSet {
		rs := &resultSet{Runs: map[string]*runResult{}}
		for _, wl := range []string{"report_direct", "page_direct"} {
			r := &runResult{Workload: wl, Attempted: 10000, Metrics: map[string]estimate{}}
			for _, m := range endToEnd {
				r.Metrics[m.name] = estimate{Value: 1}
			}
			rs.Runs[wl] = r
		}
		rs.Runs["report_direct"].Metrics["ops_per_s"] = estimate{Value: ops}
		rs.Runs["page_direct"].Metrics["page_p50_ms"] = estimate{Value: p50}
		rs.Runs["page_direct"].Failed = failed
		return rs
	}
	bound := map[string]float64{}
	for _, m := range endToEnd {
		bound[m.name] = m.bound
	}
	base := set(1000, 1.0, 0)
	if bad := compareSets(io.Discard, base, set(1000*(1-bound["ops_per_s"]/2), 1.0+bound["page_p50_ms"]/2, 0)); len(bad) != 0 {
		t.Errorf("within bounds, yet named: %v", bad)
	}
	// Better is never a regression.
	if bad := compareSets(io.Discard, base, set(5000, 0.2, 0)); len(bad) != 0 {
		t.Errorf("improvements named as regressions: %v", bad)
	}
	bad := compareSets(io.Discard, base, set(1000*(1-2*bound["ops_per_s"]), 1.0+2*bound["page_p50_ms"], 20))
	sort.Strings(bad)
	want := []string{"failed_frac@page_direct", "ops_per_s@report_direct", "page_p50_ms@page_direct"}
	if !reflect.DeepEqual(bad, want) {
		t.Errorf("named %v, want %v", bad, want)
	}
}
