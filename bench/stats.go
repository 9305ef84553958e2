package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := q * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// iqrOverMedian is the spread the benchmark's noise policy speaks of: the
// distance between the quartiles as a share of the median.
func iqrOverMedian(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := quantile(s, 0.5)
	if m == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / m
}

// estimate is one timed statistic as the benchmark reports it: computed in
// each one-second window, then the median over the windows, so that one
// disturbed second moves it little. The pooled figure over all samples and
// the spread between windows are kept beside it so a disturbed run shows.
type estimate struct {
	Value     float64 `json:"value"`
	Windows   int     `json:"windows"`
	WindowIQR float64 `json:"window_iqr_over_median"`
	Pooled    float64 `json:"pooled"`
	Samples   int     `json:"samples"`
}

// minWindowSamples is how many samples a window needs for its statistic to
// count; sparser windows are left out (and, if all are sparse, the pooled
// figure stands in).
const minWindowSamples = 5

// latencyEstimate is the q-quantile of the latency (ms) of the successful
// samples of one kind, per window of `at`. With scale, each window's
// quantile is multiplied by that window's factor, and samples beyond the
// last factor's window are left out.
func latencyEstimate(samples []sample, kind opKind, q float64, scale []float64) estimate {
	byWindow := map[int][]float64{}
	var pooled []float64
	for i := range samples {
		s := &samples[i]
		w := int(s.at / time.Second)
		if !s.ok || s.kind != kind || (scale != nil && w >= len(scale)) {
			continue
		}
		ms := float64(s.lat) / float64(time.Millisecond)
		byWindow[w] = append(byWindow[w], ms)
		pooled = append(pooled, ms)
	}
	var perWindow []float64
	for w, xs := range byWindow {
		if len(xs) >= minWindowSamples {
			sort.Float64s(xs)
			v := quantile(xs, q)
			if scale != nil {
				v *= scale[w]
			}
			perWindow = append(perWindow, v)
		}
	}
	sort.Float64s(pooled)
	e := estimate{Windows: len(perWindow), Pooled: quantile(pooled, q), Samples: len(pooled)}
	if len(perWindow) == 0 {
		e.Value = e.Pooled
		return e
	}
	e.Value, e.WindowIQR = median(perWindow), iqrOverMedian(perWindow)
	return e
}

// perWindowCounts counts the successful samples completed in each of the
// first n whole windows.
func perWindowCounts(samples []sample, n int) []float64 {
	counts := make([]float64, n)
	for i := range samples {
		if w := int(samples[i].at / time.Second); samples[i].ok && w < n {
			counts[w]++
		}
	}
	return counts
}

// estimateOf wraps per-window values computed elsewhere.
func estimateOf(perWindow []float64, pooled float64, n int) estimate {
	return estimate{Value: median(perWindow), Windows: len(perWindow), WindowIQR: iqrOverMedian(perWindow), Pooled: pooled, Samples: n}
}
