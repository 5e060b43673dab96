package metrics

import (
	"fmt"
	"sync"
	"time"
)

// TimeSeries accumulates values into fixed-width time buckets — the
// "labels per hour over the day" view operators watch. Buckets grow on
// demand as later timestamps arrive; values before the start are folded
// into the first bucket. Safe for concurrent use.
type TimeSeries struct {
	mu      sync.Mutex
	start   time.Time
	width   time.Duration
	buckets []float64
}

// NewTimeSeries returns a series starting at start with the given bucket
// width.
func NewTimeSeries(start time.Time, width time.Duration) *TimeSeries {
	if width <= 0 {
		panic("metrics: time series bucket width must be positive")
	}
	return &TimeSeries{start: start, width: width}
}

// Add accumulates v into the bucket containing at.
func (ts *TimeSeries) Add(at time.Time, v float64) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	i := 0
	if at.After(ts.start) {
		i = int(at.Sub(ts.start) / ts.width)
	}
	for len(ts.buckets) <= i {
		ts.buckets = append(ts.buckets, 0)
	}
	ts.buckets[i] += v
}

// Buckets returns a copy of the accumulated buckets.
func (ts *TimeSeries) Buckets() []float64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]float64, len(ts.buckets))
	copy(out, ts.buckets)
	return out
}

// Total returns the sum over all buckets.
func (ts *TimeSeries) Total() float64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	sum := 0.0
	for _, v := range ts.buckets {
		sum += v
	}
	return sum
}

// String renders a compact sparkline-style summary for logs.
func (ts *TimeSeries) String() string {
	b := ts.Buckets()
	return fmt.Sprintf("metrics.TimeSeries{buckets: %d, total: %.0f}", len(b), ts.Total())
}
