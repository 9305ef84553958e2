package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileMedianIQR(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if !near(quantile(xs, 0.5), 3) || !near(quantile(xs, 0), 1) || !near(quantile(xs, 1), 5) || !near(quantile(xs, 0.25), 2) {
		t.Fatalf("quantiles of 1..5 wrong: %v %v %v %v", quantile(xs, 0.5), quantile(xs, 0), quantile(xs, 1), quantile(xs, 0.25))
	}
	if !near(quantile([]float64{10, 20}, 0.5), 15) || quantile(nil, 0.5) != 0 {
		t.Fatal("interpolation or empty case wrong")
	}
	if !near(median([]float64{9, 1, 5}), 5) {
		t.Fatal("median must sort a copy")
	}
	// Quartiles of 1..5 are 2 and 4 around a median of 3.
	if !near(iqrOverMedian([]float64{5, 4, 3, 2, 1}), 2.0/3) {
		t.Fatalf("iqrOverMedian = %v", iqrOverMedian([]float64{5, 4, 3, 2, 1}))
	}
}

// TestWindowEstimateIgnoresADisturbedSecond is the noise policy in small:
// one window ten times slower moves the pooled median, not the estimate.
func TestWindowEstimateIgnoresADisturbedSecond(t *testing.T) {
	var samples []sample
	for w := 0; w < 5; w++ {
		for i := 0; i < 20; i++ {
			lat := time.Duration(100+i) * time.Microsecond
			if w == 2 {
				lat *= 10
			}
			samples = append(samples, sample{kind: opReport, ok: true, at: time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond, lat: lat})
		}
	}
	// Failed and other-kind samples never count.
	samples = append(samples, sample{kind: opReport, ok: false, at: 0, lat: time.Hour})
	samples = append(samples, sample{kind: opPage, ok: true, at: 0, lat: time.Hour})
	e := latencyEstimate(samples, opReport, 0.5, nil)
	if e.Windows != 5 || e.Samples != 100 {
		t.Fatalf("windows %d samples %d, want 5 and 100", e.Windows, e.Samples)
	}
	if !near(e.Value, 0.1095) {
		t.Fatalf("estimate %v ms, want the undisturbed windows' median 0.1095", e.Value)
	}
	if e.Pooled <= e.Value || e.WindowIQR != 0 {
		t.Fatalf("pooled %v should sit above the estimate; window IQR %v should be 0 with four equal windows", e.Pooled, e.WindowIQR)
	}
	// A window with too few samples is left out.
	sparse := append([]sample(nil), samples...)
	sparse = append(sparse, sample{kind: opReport, ok: true, at: 9 * time.Second, lat: time.Second})
	if got := latencyEstimate(sparse, opReport, 0.5, nil); got.Windows != 5 {
		t.Fatalf("sparse window counted: %d windows", got.Windows)
	}
	// Each window's quantile is brought to the reference speed of its window:
	// a machine at half speed in the disturbed window and a tenth faster in
	// the others. Samples past the last factor's window do not count.
	scaled := latencyEstimate(sparse, opReport, 0.5, []float64{1.1, 1.1, 0.5, 1.1, 1.1})
	if scaled.Windows != 5 || scaled.Samples != 100 || !near(scaled.Value, 0.1095*1.1) || !near(scaled.Pooled, e.Pooled) {
		t.Fatalf("scaled estimate %+v, want 5 windows, 100 samples, value %v and the raw pooled figure", scaled, 0.1095*1.1)
	}
}

func TestPerWindowCountsAndLateness(t *testing.T) {
	samples := []sample{
		{ok: true, at: 100 * time.Millisecond},
		{ok: true, at: 900 * time.Millisecond, late: 2 * time.Millisecond},
		{ok: false, at: 950 * time.Millisecond},
		{ok: true, at: 1500 * time.Millisecond},
		{ok: true, at: 5 * time.Second}, // beyond the windows asked for
	}
	c := perWindowCounts(samples, 2)
	if len(c) != 2 || c[0] != 2 || c[1] != 1 {
		t.Fatalf("per-window counts %v, want [2 1]", c)
	}
	frac, _ := lateness(samples)
	if !near(frac, 0.2) {
		t.Fatalf("late fraction %v, want 0.2", frac)
	}
}
