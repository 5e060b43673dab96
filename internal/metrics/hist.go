package metrics

import (
	"encoding/hex"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyHist is a fixed-bucket latency histogram at ExemplarBounds plus
// +Inf: one atomic count per bucket and an atomic sum, so a load generator
// or a route can record every response from many goroutines without
// coordination, and what an exposition exports is exactly what was
// counted.
//
// Each bucket also keeps the trace of the newest traced observation that
// landed in it, so a percentile spike on a dashboard is one hop away from
// a concrete span tree. An observation's count and its exemplar go to the
// same bucket, so a bucket never shows an exemplar it did not count.
//
// The zero value is ready to use.
type LatencyHist struct {
	counts    [len(ExemplarBounds) + 1]atomic.Int64 // the last is +Inf
	sum       atomic.Int64                          // nanoseconds
	exemplars [len(ExemplarBounds) + 1]exemplarSlot
}

// ExemplarBounds are the bucket upper bounds, in seconds, of a LatencyHist
// and of its Prometheus exposition.
var ExemplarBounds = [...]float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// exemplarSlot is the newest traced observation of one bucket; at is zero
// while there is none.
type exemplarSlot struct {
	mu    sync.Mutex
	trace [16]byte
	d     time.Duration
	at    time.Time
}

// exemplarBucket maps seconds to the bucket index (the last is +Inf): the
// first bucket whose bound is at least sec.
func exemplarBucket(sec float64) int {
	i, _ := slices.BinarySearch(ExemplarBounds[:], sec)
	return i
}

// Observe records one latency. Negative durations count as zero.
func (h *LatencyHist) Observe(d time.Duration) { h.observe(d) }

// observe counts d in its bucket and returns the bucket's index.
func (h *LatencyHist) observe(d time.Duration) int {
	d = max(d, 0)
	i := exemplarBucket(d.Seconds())
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	return i
}

// ObserveTraced is Observe, and makes trace the exemplar of the bucket d
// was counted in. A zero trace or a negative d records no exemplar, and
// neither does a writer that finds the slot busy: it skips rather than
// wait.
func (h *LatencyHist) ObserveTraced(d time.Duration, trace [16]byte) {
	sl := &h.exemplars[h.observe(d)]
	if trace == [16]byte{} || d < 0 || !sl.mu.TryLock() {
		return
	}
	sl.trace, sl.d, sl.at = trace, d, time.Now()
	sl.mu.Unlock()
}

// Exemplar returns the exemplar of bucket i (an index into ExemplarBounds,
// or len(ExemplarBounds) for +Inf); ok is false when the bucket has none.
func (h *LatencyHist) Exemplar(i int) (PromExemplar, bool) {
	if i < 0 || i >= len(h.exemplars) {
		return PromExemplar{}, false
	}
	sl := &h.exemplars[i]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.at.IsZero() {
		return PromExemplar{}, false
	}
	return PromExemplar{TraceID: hex.EncodeToString(sl.trace[:]), Value: float64(sl.d) / 1e9, At: sl.at}, true
}

// Sum returns the total of all observations.
func (h *LatencyHist) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// BucketHist is the same fixed-bucket histogram over float64 observations
// and caller-chosen bounds: one atomic counter per upper bound plus one
// for +Inf, and an atomic sum, so observing never takes a lock. It is safe
// for concurrent use.
type BucketHist struct {
	bounds []float64      // ascending upper bounds
	counts []atomic.Int64 // counts[i]: bounds[i-1] < v <= bounds[i]; the last is +Inf
	sum    atomic.Uint64  // float64 bits
}

// NewBucketHist returns an empty histogram over the ascending bounds.
func NewBucketHist(bounds ...float64) *BucketHist {
	if !slices.IsSorted(bounds) {
		panic("metrics: histogram bounds must ascend")
	}
	return &BucketHist{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *BucketHist) Observe(v float64) {
	i, _ := slices.BinarySearch(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *BucketHist) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of the observations.
func (h *BucketHist) Sum() float64 { return math.Float64frombits(h.sum.Load()) }
