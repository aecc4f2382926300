package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Log-linear bucketing (the HdrHistogram layout): each power-of-two
// octave is split into histSub linear sub-buckets, so the relative
// width of any bucket is at most 1/histSub = 6.25%. Values below
// histSub get exact unit buckets. The whole int64 range fits in
// histBuckets fixed cells, so a Histogram is one flat array — no
// allocation on Observe, trivially mergeable, and the bucket bounds are
// a pure function of the index (deterministic exposition).
const (
	histSubBits = 4
	histSub     = 1 << histSubBits // linear sub-buckets per octave
	// Octaves cover exponents histSubBits..62 (the top bit of a
	// non-negative int64 is bit 62 at most), plus the exact region.
	histBuckets = histSub + (63-histSubBits)*histSub

	histMinInit = math.MaxInt64
	histMaxInit = math.MinInt64
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // >= histSubBits
	sub := (u >> (uint(exp) - histSubBits)) - histSub
	return histSub + (exp-histSubBits)*histSub + int(sub)
}

// bucketUpper returns the inclusive upper bound of bucket i (the
// Prometheus `le` value).
func bucketUpper(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	oct := (i - histSub) / histSub
	sub := (i - histSub) % histSub
	exp := oct + histSubBits
	width := int64(1) << (uint(exp) - histSubBits)
	return int64(1)<<uint(exp) + int64(sub+1)*width - 1
}

// bucketLower returns the inclusive lower bound of bucket i.
func bucketLower(i int) int64 {
	if i == 0 {
		return 0
	}
	return bucketUpper(i-1) + 1
}

// Histogram is a mergeable log-linear distribution of int64
// observations (nanoseconds, bytes, live-variable counts). Negative
// observations clamp to zero. All updates are atomic; Observe never
// allocates; the nil Histogram is a no-op (disabled-registry contract).
type Histogram struct {
	count int64
	sum   int64
	minv  int64 // histMinInit while empty
	maxv  int64 // histMaxInit while empty
	det   int32 // 1 when marked deterministic (see SetDeterministic)
	cells [histBuckets]uint64
}

// Observe records v.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	atomic.AddInt64(&h.count, 1)
	atomic.AddInt64(&h.sum, v)
	atomicMin(&h.minv, v)
	atomicMax(&h.maxv, v)
	atomic.AddUint64(&h.cells[bucketIndex(v)], 1)
}

// SetDeterministic marks the histogram as a distribution of a
// deterministic quantity: identical serial runs produce identical
// count, sum, min, max and buckets, so a golden may pin all of them
// instead of only the observation count (TestCountersGolden pins
// MAXLIVE's sum, min and max).
func (h *Histogram) SetDeterministic() {
	if h != nil {
		atomic.StoreInt32(&h.det, 1)
	}
}

func atomicMin(p *int64, v int64) {
	for {
		cur := atomic.LoadInt64(p)
		if v >= cur {
			return
		}
		if atomic.CompareAndSwapInt64(p, cur, v) {
			return
		}
	}
}

func atomicMax(p *int64, v int64) {
	for {
		cur := atomic.LoadInt64(p)
		if v <= cur {
			return
		}
		if atomic.CompareAndSwapInt64(p, cur, v) {
			return
		}
	}
}

// snap captures the histogram into an immutable view, keeping only
// non-empty buckets.
func (h *Histogram) snap(name string, labels []Label) HistogramSnap {
	s := HistogramSnap{
		Name:          name,
		Labels:        labels,
		Count:         atomic.LoadInt64(&h.count),
		Sum:           atomic.LoadInt64(&h.sum),
		Deterministic: atomic.LoadInt32(&h.det) == 1,
	}
	if mn := atomic.LoadInt64(&h.minv); mn != histMinInit {
		s.Min = mn
	}
	if mx := atomic.LoadInt64(&h.maxv); mx != histMaxInit {
		s.Max = mx
	}
	for i := range h.cells {
		if n := atomic.LoadUint64(&h.cells[i]); n != 0 {
			s.Buckets = append(s.Buckets, Bucket{Le: bucketUpper(i), Count: n})
		}
	}
	return s
}

// HistogramSnap is the immutable view of one histogram cell.
type HistogramSnap struct {
	Name   string
	Labels []Label
	// Count and Sum total the observations; Min and Max bound them
	// exactly (both 0 when Count is 0).
	Count, Sum, Min, Max int64
	// Deterministic mirrors SetDeterministic.
	Deterministic bool
	// Buckets are the non-empty cells in ascending bound order; Le is
	// the inclusive upper bound, Count the (non-cumulative) cell count.
	Buckets []Bucket
}

// Bucket is one non-empty histogram cell.
type Bucket struct {
	Le    int64
	Count uint64
}

// quantile estimates the q-quantile (0 < q <= 1) from the buckets: the
// upper bound of the bucket containing the ceil(q*Count)-th smallest
// observation, clamped to [Min, Max]. The estimate therefore never errs
// below the true quantile's bucket lower bound nor above its upper
// bound — a relative error of at most 1/16 past the exact region.
// Returns 0 on an empty histogram.
func (s *HistogramSnap) quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for _, b := range s.Buckets {
		cum += int64(b.Count)
		if cum >= rank {
			v := b.Le
			if v > s.Max {
				v = s.Max
			}
			if v < s.Min {
				v = s.Min
			}
			return v
		}
	}
	return s.Max
}
