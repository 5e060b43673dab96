package metrics

import (
	"encoding/hex"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyHist is an HDR-style latency histogram: fixed log-linear buckets
// over nanoseconds (32 subbuckets per power of two, ≤3.2% relative error)
// with lock-free atomic counters, so a load generator can record every
// response from many goroutines without coordination and still extract
// exact counts and tight p50/p99/p999 estimates afterwards.
//
// LatencyHist never discards an observation: tail quantiles like p999
// come from real counts, not from the luck of a sample — which is what
// coordinated-omission-safe load measurement requires.
//
// Each exposition bucket (ExemplarBounds) also keeps the trace of the
// newest traced observation that landed in it, so a percentile spike on
// a dashboard is one hop away from a concrete span tree.
//
// The zero value is ready to use.
type LatencyHist struct {
	count     atomic.Int64
	sum       atomic.Int64 // nanoseconds
	max       atomic.Int64 // nanoseconds
	buckets   [latBuckets]atomic.Int64
	exemplars [len(ExemplarBounds) + 1]exemplarSlot // the last is +Inf
}

// ExemplarBounds are the cumulative bucket upper bounds, in seconds, used
// when a LatencyHist is exposed as a Prometheus histogram.
var ExemplarBounds = [...]float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// exemplarSlot is the newest traced observation of one exposition bucket;
// at is zero while there is none.
type exemplarSlot struct {
	mu    sync.Mutex
	trace [16]byte
	d     time.Duration
	at    time.Time
}

// exemplarBucket maps seconds to the exposition bucket index (the last is
// +Inf).
func exemplarBucket(sec float64) int {
	for i, b := range ExemplarBounds {
		if sec <= b {
			return i
		}
	}
	return len(ExemplarBounds)
}

const (
	latSubBits = 5               // 32 subbuckets per octave
	latSubs    = 1 << latSubBits // values below 2×latSubs are exact
	latBuckets = 2048            // covers the full non-negative int64 range
)

// latBucket maps a non-negative nanosecond value to its bucket index.
func latBucket(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	u := uint64(ns)
	if u < 2*latSubs {
		return int(u) // exact buckets for tiny values
	}
	// u has Len64(u) = e + latSubBits + 1 significant bits; keeping the
	// top latSubBits+1 bits yields a mantissa in [latSubs, 2·latSubs).
	e := bits.Len64(u) - latSubBits - 1
	return int(uint64(e)<<latSubBits + (u >> uint(e)))
}

// latUpper returns the largest nanosecond value a bucket holds.
func latUpper(idx int) int64 {
	if idx < 2*latSubs {
		return int64(idx)
	}
	e := idx>>latSubBits - 1
	m := int64(idx) - int64(e)<<latSubBits // mantissa in [latSubs, 2·latSubs)
	return (m+1)<<uint(e) - 1
}

// Observe records one latency. Negative durations count as zero.
func (h *LatencyHist) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[latBucket(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// ObserveTraced is Observe, and makes trace the exemplar of d's exposition
// bucket. A zero trace or a negative d records no exemplar, and neither
// does a writer that finds the slot busy: it skips rather than wait.
func (h *LatencyHist) ObserveTraced(d time.Duration, trace [16]byte) {
	h.Observe(d)
	if trace == [16]byte{} || d < 0 {
		return
	}
	sl := &h.exemplars[exemplarBucket(d.Seconds())]
	if !sl.mu.TryLock() {
		return
	}
	sl.trace, sl.d, sl.at = trace, d, time.Now()
	sl.mu.Unlock()
}

// Exemplar returns the exemplar of exposition bucket i (an index into
// ExemplarBounds, or len(ExemplarBounds) for +Inf); ok is false when the
// bucket has none.
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

// Count returns the number of observations.
func (h *LatencyHist) Count() int64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *LatencyHist) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// CountLE returns the number of observations at most d, to bucket
// resolution: a bucket counts only when its whole range fits under d, so
// the answer is monotone in d and never overcounts.
func (h *LatencyHist) CountLE(d time.Duration) int64 {
	ns := int64(d)
	var n int64
	for i := 0; i < latBuckets; i++ {
		if latUpper(i) > ns {
			break
		}
		n += h.buckets[i].Load()
	}
	return n
}

// Max returns the largest observation (to within bucket resolution it is
// exact: the true maximum is tracked separately).
func (h *LatencyHist) Max() time.Duration { return time.Duration(h.max.Load()) }

// Mean returns the arithmetic mean, or 0 when empty.
func (h *LatencyHist) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) as the upper edge of the
// bucket holding the target observation, clamped to the exact tracked
// maximum (a bucket edge past the true max would report an impossible
// quantile), or 0 when empty. Concurrent Observe calls make the answer
// approximate; read after the run settles for exact bucket counts.
func (h *LatencyHist) Quantile(q float64) time.Duration {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > target {
			edge := time.Duration(latUpper(i))
			if max := h.Max(); edge > max {
				return max
			}
			return edge
		}
	}
	return h.Max()
}

// LatencySummary is the flattened extraction of a LatencyHist, in
// milliseconds, ready for JSON encoding by bench harnesses.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Summary extracts the standard latency quantiles.
func (h *LatencyHist) Summary() LatencySummary {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return LatencySummary{
		Count:  h.Count(),
		MeanMs: ms(h.Mean()),
		P50Ms:  ms(h.Quantile(0.50)),
		P90Ms:  ms(h.Quantile(0.90)),
		P99Ms:  ms(h.Quantile(0.99)),
		P999Ms: ms(h.Quantile(0.999)),
		MaxMs:  ms(h.Max()),
	}
}
