package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestBucketLayout checks the pure-function bucket geometry: indexes
// round-trip, buckets tile the non-negative range contiguously, and the
// relative width past the exact region is at most 1/histSub.
func TestBucketLayout(t *testing.T) {
	for i := 1; i < histBuckets; i++ {
		if got := bucketLower(i); got != bucketUpper(i-1)+1 {
			t.Fatalf("bucket %d: lower %d, want %d (upper of %d is %d)",
				i, got, bucketUpper(i-1)+1, i-1, bucketUpper(i-1))
		}
	}
	vals := []int64{0, 1, 15, 16, 17, 31, 32, 1000, 1 << 20, 1<<40 + 12345, math.MaxInt64}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		vals = append(vals, rng.Int63())
	}
	for _, v := range vals {
		i := bucketIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		lo, hi := bucketLower(i), bucketUpper(i)
		if v < lo || v > hi {
			t.Fatalf("value %d landed in bucket %d = [%d, %d]", v, i, lo, hi)
		}
		if v >= histSub {
			if width := hi - lo + 1; float64(width) > float64(lo)/histSub+1 {
				t.Fatalf("bucket %d = [%d, %d] wider than %.2f%% of its base", i, lo, hi, 100.0/histSub)
			}
		} else if lo != v || hi != v {
			t.Fatalf("exact-region value %d got bucket [%d, %d]", v, lo, hi)
		}
	}
	if got := bucketIndex(math.MaxInt64); got != histBuckets-1 {
		t.Fatalf("MaxInt64 bucket = %d, want the top bucket %d", got, histBuckets-1)
	}
	if got := bucketUpper(histBuckets - 1); got != math.MaxInt64 {
		t.Fatalf("top bucket upper = %d, want MaxInt64", got)
	}
}

func TestHistogramZeroObservations(t *testing.T) {
	var h Histogram
	h.minv, h.maxv = histMinInit, histMaxInit
	s := h.snap("laoc_empty_ns", nil)
	if s.Count != 0 || s.Sum != 0 || s.Min != 0 || s.Max != 0 || len(s.Buckets) != 0 {
		t.Fatalf("empty histogram snap = %+v, want all-zero", s)
	}
	if q := s.quantile(0.5); q != 0 {
		t.Fatalf("empty Quantile = %d, want 0", q)
	}
}

func TestHistogramSingleBucket(t *testing.T) {
	r := New()
	h := r.Histogram("laoc_one_ns")
	for i := 0; i < 9; i++ {
		h.Observe(1 << 20)
	}
	s := r.Snapshot().Histograms[0]
	if s.Count != 9 || s.Min != 1<<20 || s.Max != 1<<20 || s.Sum != 9<<20 {
		t.Fatalf("snap = %+v", s)
	}
	if len(s.Buckets) != 1 || s.Buckets[0].Count != 9 {
		t.Fatalf("want one bucket with 9 observations, got %+v", s.Buckets)
	}
	// Identical observations: every quantile is exact despite bucketing,
	// because the estimate clamps to [Min, Max].
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := s.quantile(q); got != 1<<20 {
			t.Fatalf("Quantile(%v) = %d, want %d", q, got, 1<<20)
		}
	}
}

func TestHistogramOverflowBucketAndClamp(t *testing.T) {
	r := New()
	h := r.Histogram("laoc_of_ns")
	h.Observe(math.MaxInt64)
	h.Observe(-5) // clamps to 0
	s := r.Snapshot().Histograms[0]
	if s.Count != 2 || s.Min != 0 || s.Max != math.MaxInt64 {
		t.Fatalf("snap = %+v", s)
	}
	if len(s.Buckets) != 2 || s.Buckets[0].Le != 0 || s.Buckets[1].Le != math.MaxInt64 {
		t.Fatalf("buckets = %+v, want {0, MaxInt64}", s.Buckets)
	}
}

// TestQuantileBounds is the property test for the quantile estimate:
// for random observation sets, the estimate of any quantile lies in
// [x, bucketUpper(bucketIndex(x))] where x is the true (ceil-rank)
// quantile — i.e. it never under-reports and over-reports by at most
// one bucket width (≤6.25% past the exact region).
func TestQuantileBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(400)
		obs := make([]int64, n)
		h := &Histogram{minv: histMinInit, maxv: histMaxInit}
		scale := []int64{100, 100000, 1 << 40}[trial%3]
		for i := range obs {
			obs[i] = rng.Int63n(scale)
			h.Observe(obs[i])
		}
		sort.Slice(obs, func(i, j int) bool { return obs[i] < obs[j] })
		s := h.snap("q", nil)
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1} {
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			x := obs[rank-1]
			got := s.quantile(q)
			hi := bucketUpper(bucketIndex(x))
			if hi > s.Max {
				hi = s.Max
			}
			if got < x || got > hi {
				t.Fatalf("trial %d: Quantile(%v) = %d outside [%d, %d] (n=%d)",
					trial, q, got, x, hi, n)
			}
		}
	}
}

func TestObserveAllocatesNothing(t *testing.T) {
	r := New()
	h := r.Histogram("laoc_alloc_ns")
	c := r.Counter("laoc_alloc_total")
	n := testing.AllocsPerRun(200, func() {
		h.Observe(123456789)
		c.Add(7)
	})
	if n != 0 {
		t.Fatalf("enabled Observe/Add allocated %.1f times per run, want 0", n)
	}
}
