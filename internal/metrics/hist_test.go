package metrics

import (
	"sync"
	"testing"
	"time"
	"unsafe"
)

// count is the number of observations h holds, over all its buckets.
func count(h *LatencyHist) int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// TestLatencyHistEmptyAndNegative: an empty histogram exports zero in
// every bucket, and a negative duration counts as zero.
func TestLatencyHistEmptyAndNegative(t *testing.T) {
	var h LatencyHist
	for _, s := range PromHistogramSamples(&h) {
		if s.Value != 0 || s.Exemplar != nil {
			t.Fatalf("empty histogram: %s%v = %g with exemplar %+v, want 0 and none", s.Suffix, s.Labels, s.Value, s.Exemplar)
		}
	}
	h.Observe(-5 * time.Millisecond)
	if h.counts[0].Load() != 1 || count(&h) != 1 || h.Sum() != 0 {
		t.Fatalf("negative observation: %d in the first bucket, %d in all, sum %v; want 1, 1, 0",
			h.counts[0].Load(), count(&h), h.Sum())
	}
}

// TestLatencyHistConcurrent: goroutines observing at once lose no count
// and no sum, bucket by bucket.
func TestLatencyHistConcurrent(t *testing.T) {
	var h LatencyHist
	const goroutines, per = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(i%1000) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	// Each goroutine observes 0..999 µs five times: 0..500 µs are at most
	// the first bound (0.5 ms), 501..999 µs at most the second (1 ms).
	const rounds = goroutines * per / 1000
	if got, want := h.counts[0].Load(), int64(501*rounds); got != want {
		t.Errorf("le 0.0005 holds %d, want %d", got, want)
	}
	if got, want := h.counts[1].Load(), int64(499*rounds); got != want {
		t.Errorf("le 0.001 holds %d, want %d", got, want)
	}
	if count(&h) != goroutines*per {
		t.Errorf("lost observations: %d != %d", count(&h), goroutines*per)
	}
	if want := rounds * 999 * 1000 / 2 * time.Microsecond; h.Sum() != want {
		t.Errorf("sum %v, want %v", h.Sum(), want)
	}
}

// TestLatencyHistBucketCounts: over 1..1000 ms, one observation each, the
// exposition's cumulative counts are exactly the number of observations at
// most each bound, and _sum and _count are exact.
func TestLatencyHistBucketCounts(t *testing.T) {
	var h LatencyHist
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	samples := PromHistogramSamples(&h)
	for i, bound := range ExemplarBounds {
		want := min(float64(int(bound*1000)), 1000)
		if got := samples[i].Value; got != want {
			t.Errorf("le=%q holds %g, want %g", samples[i].Labels[0].Value, got, want)
		}
	}
	n := len(ExemplarBounds)
	if samples[n].Value != 1000 || samples[n+1].Value != 500.5 || samples[n+2].Value != 1000 {
		t.Errorf("+Inf %g, _sum %g, _count %g; want 1000, 500.5, 1000",
			samples[n].Value, samples[n+1].Value, samples[n+2].Value)
	}
}

// TestBoundObservationsCountInTheirBucket: an observation exactly at a
// bound and one just below it both count in that bound's bucket, and the
// exemplar the bucket shows is one of them. A histogram that exports
// counts read off finer buckets undercounts at every bound, while the
// exemplar still lands there.
func TestBoundObservationsCountInTheirBucket(t *testing.T) {
	var h LatencyHist
	h.ObserveTraced(500*time.Microsecond, traceOf(0xaa))
	h.ObserveTraced(499800*time.Nanosecond, traceOf(0xbb))
	samples := PromHistogramSamples(&h)
	b := samples[0]
	if b.Labels[0].Value != "0.0005" || b.Value != 2 {
		t.Fatalf(`first bucket le=%q holds %g, want le="0.0005" holding 2`, b.Labels[0].Value, b.Value)
	}
	if b.Exemplar == nil || (b.Exemplar.Value != 0.0005 && b.Exemplar.Value != 0.0004998) {
		t.Errorf(`le="0.0005" shows exemplar %+v, want one of the two observations it counts`, b.Exemplar)
	}
	for _, s := range samples[1 : len(ExemplarBounds)+1] {
		if s.Value != 2 || s.Exemplar != nil {
			t.Errorf("le=%q holds %g with exemplar %+v, want 2 and none", s.Labels[0].Value, s.Value, s.Exemplar)
		}
	}
}

// TestLatencyHistSize pins a histogram at no more than 1 KiB: a node holds
// one per route and per stage.
func TestLatencyHistSize(t *testing.T) {
	if got := unsafe.Sizeof(LatencyHist{}); got > 1024 {
		t.Errorf("LatencyHist is %d B; want at most 1024", got)
	}
}
