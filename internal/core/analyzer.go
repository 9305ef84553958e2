// Package core implements the Oak engine (Section 4 of the paper): violator
// detection over client-reported performance, connection-dependency rule
// matching, per-user rule activation with history, and page modification.
package core

import (
	"fmt"
	"sync"

	"oak/internal/report"
	"oak/internal/stats"
)

// MetricKind identifies which performance signal flagged a server.
type MetricKind int

const (
	// MetricSmallTime flags mean small-object (<50 KB) download time:
	// longer is worse.
	MetricSmallTime MetricKind = iota + 1
	// MetricLargeTput flags mean large-object throughput: lower is worse.
	MetricLargeTput
)

// String names the metric.
func (m MetricKind) String() string {
	switch m {
	case MetricSmallTime:
		return "small-time"
	case MetricLargeTput:
		return "large-throughput"
	default:
		return fmt.Sprintf("metric-%d", int(m))
	}
}

// Violation is one server flagged as under-performing relative to the other
// servers the same client contacted during the same load.
type Violation struct {
	// Server is the flagged server's per-load summary.
	Server *report.ServerPerf
	// Metric says which signal crossed the MAD criterion.
	Metric MetricKind
	// Value is the server's metric value (ms or B/s).
	Value float64
	// Median and MAD describe the population the server was judged against.
	Median float64
	MAD    float64
	// Distance is how far beyond the median, in the "worse" direction, the
	// server sits. It feeds the rule-history mechanism (Section 4.2.3).
	Distance float64
}

// DetectViolators applies the paper's MAD criterion (Section 4.2.1) to one
// report's per-server summaries: a server is a violator if its mean
// small-object time exceeds median + k*MAD of the small-object times, or its
// mean large-object throughput falls below median - k*MAD of the
// throughputs. A server with both object classes violates if either signal
// does; it is reported once, with the first violating metric.
//
// The criterion is relative by construction: a client whose every path is
// slow produces a high median and flags nothing, so Oak "need not waste its
// time with such cases".
//
// The subset slices and the sort buffers the MAD needs come from a pooled
// ingest scratch: the only allocation left is the violations slice itself,
// and only when there are violations.
func DetectViolators(servers []*report.ServerPerf, k float64) []Violation {
	sc := ingestPool.Get().(*ingestScratch)
	out := sc.detect.detect(servers, k)
	ingestPool.Put(sc)
	return out
}

// ingestScratch is one report's working memory in process: the grouping,
// the MAD detection buffers and the flattened script-URL list. Nothing in
// it outlives the call; the violations process returns are copied out.
type ingestScratch struct {
	group   report.GroupScratch
	detect  detectScratch
	scripts []string
}

var ingestPool = sync.Pool{New: func() any { return new(ingestScratch) }}

// detectScratch is the reusable working memory of one DetectViolators run:
// the parallel server/value subsets for the metric under evaluation, and the
// sort buffer MedianMADInto consumes.
type detectScratch struct {
	srvs []*report.ServerPerf
	vals []float64
	sort []float64
}

func (sc *detectScratch) detect(servers []*report.ServerPerf, k float64) []Violation {
	out := sc.pass(nil, servers, k, MetricSmallTime)
	// The small pass is complete, so its subsets are recycled for the large
	// pass; servers already flagged are found in out itself.
	return sc.pass(out, servers, k, MetricLargeTput)
}

// pass judges the servers that have the metric's object class against the
// median and MAD of that class, appending each outlier to out; the large
// pass skips a server the small pass already flagged.
func (sc *detectScratch) pass(out []Violation, servers []*report.ServerPerf, k float64, m MetricKind) []Violation {
	sc.srvs, sc.vals = sc.srvs[:0], sc.vals[:0]
	for _, s := range servers {
		if m == MetricSmallTime && s.SmallCount > 0 {
			sc.srvs, sc.vals = append(sc.srvs, s), append(sc.vals, s.SmallMeanTimeMs)
		} else if m == MetricLargeTput && s.LargeCount > 0 {
			sc.srvs, sc.vals = append(sc.srvs, s), append(sc.vals, s.LargeMeanTputBps)
		}
	}
	med, mad, buf, err := stats.MedianMADInto(sc.vals, sc.sort)
	sc.sort = buf
	if err != nil {
		return out
	}
	th := stats.OutlierThreshold{Median: med, MAD: mad, K: k, Side: stats.UpperOutlier}
	if m == MetricLargeTput {
		th.Side = stats.LowerOutlier
	}
	for i, s := range sc.srvs {
		if m == MetricLargeTput && violatesAlready(out, s.Addr) {
			continue
		}
		if th.IsOutlier(sc.vals[i]) {
			out = append(out, Violation{
				Server: s, Metric: m, Value: sc.vals[i],
				Median: th.Median, MAD: th.MAD, Distance: th.Distance(sc.vals[i]),
			})
		}
	}
	return out
}

// violatesAlready reports whether addr is already flagged in out. Violations
// per report are few, so a linear scan beats allocating a set.
func violatesAlready(out []Violation, addr string) bool {
	for i := range out {
		if out[i].Server.Addr == addr {
			return true
		}
	}
	return false
}

// AbsoluteThresholds is the naive alternative Oak's design rejects
// (Section 6): fixed cutoffs instead of per-load relative ones. It exists
// for the ablation benchmarks that quantify the difference.
type AbsoluteThresholds struct {
	// MaxSmallTimeMs flags servers whose mean small-object time exceeds
	// this many milliseconds. Zero disables the check.
	MaxSmallTimeMs float64
	// MinLargeTputBps flags servers whose mean large-object throughput
	// falls below this many bytes/second. Zero disables the check.
	MinLargeTputBps float64
}

// DetectViolatorsAbsolute flags servers against fixed thresholds.
func DetectViolatorsAbsolute(servers []*report.ServerPerf, th AbsoluteThresholds) []Violation {
	var out []Violation
	for _, s := range servers {
		switch {
		case th.MaxSmallTimeMs > 0 && s.SmallCount > 0 && s.SmallMeanTimeMs > th.MaxSmallTimeMs:
			out = append(out, Violation{
				Server:   s,
				Metric:   MetricSmallTime,
				Value:    s.SmallMeanTimeMs,
				Median:   th.MaxSmallTimeMs,
				Distance: s.SmallMeanTimeMs - th.MaxSmallTimeMs,
			})
		case th.MinLargeTputBps > 0 && s.LargeCount > 0 && s.LargeMeanTputBps < th.MinLargeTputBps:
			out = append(out, Violation{
				Server:   s,
				Metric:   MetricLargeTput,
				Value:    s.LargeMeanTputBps,
				Median:   th.MinLargeTputBps,
				Distance: th.MinLargeTputBps - s.LargeMeanTputBps,
			})
		}
	}
	return out
}
