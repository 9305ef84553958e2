package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket geometry: durations are recorded in nanoseconds into
// log-scaled buckets. Each power-of-two octave is split into 2^subBits
// sub-buckets, bounding the relative error of any reconstructed quantile to
// 1/2^subBits (12.5 %). The smallest 2^subBits buckets are exact.
const (
	subBits    = 3
	subBuckets = 1 << subBits
	// numBuckets covers every representable int64 nanosecond duration:
	// octaves 3..62 each contribute subBuckets buckets on top of the
	// subBuckets exact low buckets.
	numBuckets = (63-subBits)*subBuckets + subBuckets
)

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(ns uint64) int {
	if ns < subBuckets {
		return int(ns)
	}
	e := bits.Len64(ns) - 1 // position of the most significant bit, >= subBits
	// Top subBits bits after the MSB select the sub-bucket.
	m := int(ns>>(uint(e)-subBits)) - subBuckets
	return (e-subBits+1)*subBuckets + m
}

// bucketLow returns the inclusive lower bound of bucket i in nanoseconds.
func bucketLow(i int) uint64 {
	if i < subBuckets {
		return uint64(i)
	}
	block := i >> subBits
	off := i & (subBuckets - 1)
	return uint64(subBuckets+off) << uint(block-1)
}

// bucketHigh returns the exclusive upper bound of bucket i in nanoseconds.
func bucketHigh(i int) uint64 {
	if i < subBuckets {
		return uint64(i) + 1
	}
	block := i >> subBits
	off := i & (subBuckets - 1)
	return uint64(subBuckets+off+1) << uint(block-1)
}

// Histogram is a lock-free latency histogram with fixed log-scaled buckets.
// The zero value is ready to use. Observe is safe from any number of
// goroutines; Snapshot may run concurrently with observations (it is weakly
// consistent: counters are monotone, so a snapshot is a valid state that
// existed at some point during the call).
//
// A Histogram must not be copied after first use.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	max     atomic.Uint64 // nanoseconds
	buckets [numBuckets]atomic.Uint64
}

// Observe records one latency. Negative durations are clamped to zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Bucket is one populated histogram bucket in a snapshot.
type Bucket struct {
	// Low and High bound the bucket: Low <= latency < High.
	Low   time.Duration `json:"low"`
	High  time.Duration `json:"high"`
	Count uint64        `json:"count"`
}

// Snapshot is a point-in-time copy of a Histogram. Only populated buckets
// are retained.
type Snapshot struct {
	Count   uint64        `json:"count"`
	Sum     time.Duration `json:"sum"`
	Max     time.Duration `json:"max"`
	Buckets []Bucket      `json:"buckets,omitempty"`
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{
		Count: h.count.Load(),
		Sum:   time.Duration(h.sum.Load()),
		Max:   time.Duration(h.max.Load()),
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		s.Buckets = append(s.Buckets, Bucket{
			Low:   time.Duration(bucketLow(i)),
			High:  time.Duration(bucketHigh(i)),
			Count: n,
		})
	}
	return s
}

// Merge folds another snapshot into this one (bucket-wise sum), for
// aggregating histograms across engines — e.g. the experiment harness
// running one engine per site.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := Snapshot{Count: s.Count + o.Count, Sum: s.Sum + o.Sum, Max: s.Max}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(o.Buckets) {
		switch {
		case j >= len(o.Buckets) || (i < len(s.Buckets) && s.Buckets[i].Low < o.Buckets[j].Low):
			out.Buckets = append(out.Buckets, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || o.Buckets[j].Low < s.Buckets[i].Low:
			out.Buckets = append(out.Buckets, o.Buckets[j])
			j++
		default: // same bucket
			b := s.Buckets[i]
			b.Count += o.Buckets[j].Count
			out.Buckets = append(out.Buckets, b)
			i++
			j++
		}
	}
	return out
}

// Mean returns the average observed latency, zero if empty.
func (s Snapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile reconstructs the q-quantile (0 <= q <= 1) from the buckets by
// midpoint interpolation; the result is within one sub-bucket (≤ 12.5 %
// relative error) of the true value. Returns zero for an empty snapshot.
func (s Snapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is 1-based: the smallest observation is rank 1.
	rank := uint64(q*float64(s.Count-1)) + 1
	var seen uint64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen >= rank {
			mid := b.Low + (b.High-b.Low)/2
			if mid > s.Max && s.Max > 0 {
				return s.Max
			}
			return mid
		}
	}
	return s.Max
}

// String summarises the snapshot as one line.
func (s Snapshot) String() string {
	if s.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d p50=%s p90=%s p99=%s max=%s",
		s.Count,
		s.Quantile(0.50).Round(time.Microsecond),
		s.Quantile(0.90).Round(time.Microsecond),
		s.Quantile(0.99).Round(time.Microsecond),
		s.Max.Round(time.Microsecond))
}

// Summary is the JSON-friendly digest of a Snapshot served by
// GET /oak/v1/metrics and printed by oakreport -metrics.
type Summary struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Summary digests the snapshot into millisecond percentiles.
func (s Snapshot) Summary() Summary {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return Summary{
		Count:  s.Count,
		MeanMs: ms(s.Mean()),
		P50Ms:  ms(s.Quantile(0.50)),
		P90Ms:  ms(s.Quantile(0.90)),
		P99Ms:  ms(s.Quantile(0.99)),
		MaxMs:  ms(s.Max),
	}
}
