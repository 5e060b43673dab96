package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestLatBucketRoundTrip checks the bucket mapping over the whole range:
// every value lands in a bucket whose upper edge is ≥ the value and
// within the promised relative error, and bucket indexes are monotone.
func TestLatBucketRoundTrip(t *testing.T) {
	values := []int64{0, 1, 31, 32, 63, 64, 65, 100, 1000, 12345,
		1e6, 1e9, 5e9, 1e12, math.MaxInt64 / 2, math.MaxInt64}
	for _, v := range values {
		idx := latBucket(v)
		if idx < 0 || idx >= latBuckets {
			t.Fatalf("latBucket(%d) = %d out of range", v, idx)
		}
		up := latUpper(idx)
		if up < v {
			t.Errorf("latUpper(latBucket(%d)) = %d < value", v, up)
		}
		if v >= 64 && float64(up-v) > 0.04*float64(v) {
			t.Errorf("bucket edge error for %d: upper %d is %.1f%% above", v, up, 100*float64(up-v)/float64(v))
		}
	}
	prev := -1
	for v := int64(0); v < 100000; v += 7 {
		idx := latBucket(v)
		if idx < prev {
			t.Fatalf("bucket index not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	var h LatencyHist
	// 1..1000 ms, one observation each: quantiles are known exactly.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	checks := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Millisecond},
		{0.99, 990 * time.Millisecond},
		{0.999, 999 * time.Millisecond},
	}
	for _, c := range checks {
		got := h.Quantile(c.q)
		err := math.Abs(float64(got-c.want)) / float64(c.want)
		if err > 0.05 {
			t.Errorf("Quantile(%v) = %v, want ≈%v (err %.1f%%)", c.q, got, c.want, err*100)
		}
	}
	if h.Max() != 1000*time.Millisecond {
		t.Errorf("Max = %v", h.Max())
	}
	if mean := h.Mean(); mean < 495*time.Millisecond || mean > 505*time.Millisecond {
		t.Errorf("Mean = %v", mean)
	}
}

func TestLatencyHistEmptyAndNegative(t *testing.T) {
	var h LatencyHist
	if h.Quantile(0.99) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must read zero")
	}
	h.Observe(-5 * time.Millisecond)
	if h.Count() != 1 || h.Quantile(0.5) != 0 {
		t.Fatalf("negative observation: count=%d q50=%v", h.Count(), h.Quantile(0.5))
	}
}

func TestLatencyHistConcurrent(t *testing.T) {
	var h LatencyHist
	const goroutines, per = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(i%1000) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("lost observations: %d != %d", h.Count(), goroutines*per)
	}
}

func TestLatencyHistMerge(t *testing.T) {
	var a, b LatencyHist
	a.Observe(10 * time.Millisecond)
	b.Observe(20 * time.Millisecond)
	b.Observe(30 * time.Millisecond)
	a.Merge(&b)
	if a.Count() != 3 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Max() != 30*time.Millisecond {
		t.Fatalf("merged max = %v", a.Max())
	}
}

func TestLatencySummary(t *testing.T) {
	var h LatencyHist
	for i := 0; i < 100; i++ {
		h.Observe(2 * time.Millisecond)
	}
	s := h.Summary()
	if s.Count != 100 || s.P50Ms < 1.9 || s.P50Ms > 2.2 || s.P999Ms < 1.9 {
		t.Fatalf("summary = %+v", s)
	}
}

// Merge folds other's observations into h. The merged max is exact; the
// merged quantiles are as tight as each input's buckets.
func (h *LatencyHist) Merge(other *LatencyHist) {
	for i := range other.buckets {
		if n := other.buckets[i].Load(); n > 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	for {
		cur, om := h.max.Load(), other.max.Load()
		if om <= cur || h.max.CompareAndSwap(cur, om) {
			return
		}
	}
}
