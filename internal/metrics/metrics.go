// Package metrics implements the evaluation metrics the GWAP literature
// uses to compare games — throughput (problem instances solved per human-
// hour), average lifetime play (ALP), and expected contribution — plus the
// general counters and histograms the dispatch service and simulator report.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"humancomp/internal/rng"
)

// Counter is a monotonically increasing event count, safe for concurrent
// use. It is a single atomic word, so incrementing on the dispatch hot
// path never takes a lock.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by delta (which must be non-negative).
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: Counter.Add with negative delta")
	}
	c.n.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// histStripes is the number of independently locked stripes a Histogram
// spreads its observations over. Writers on different stripes never
// contend; readers merge all stripes, so the aggregate statistics are
// unchanged. Kept a fixed power of two so stripe selection is a mask and
// single-threaded observation order stays deterministic across machines.
const histStripes = 8

// Histogram summarizes a stream of float64 observations: exact count, sum,
// min and max, with quantiles estimated from a fixed-size uniform reservoir
// sample so memory stays bounded on simulations with millions of rounds.
// It is safe for concurrent use; observations round-robin over independently
// locked stripes so concurrent writers do not serialize on one mutex.
type Histogram struct {
	next    atomic.Uint64 // round-robin stripe cursor
	stripes [histStripes]histStripe
}

type histStripe struct {
	mu        sync.Mutex
	count     int64
	sum       float64
	min, max  float64
	reservoir []float64
	cap       int
	src       *rng.Source

	// Pad stripes apart so adjacent mutexes do not share a cache line.
	_ [40]byte
}

// NewHistogram returns a histogram with the given total reservoir capacity.
func NewHistogram(reservoirCap int) *Histogram {
	if reservoirCap <= 0 {
		panic("metrics: histogram reservoir capacity must be positive")
	}
	h := &Histogram{}
	perStripe := (reservoirCap + histStripes - 1) / histStripes
	for i := range h.stripes {
		h.stripes[i].cap = perStripe
		h.stripes[i].src = rng.New(0x48495354 + uint64(i))
	}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	s := &h.stripes[h.next.Add(1)&(histStripes-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
	if len(s.reservoir) < s.cap {
		s.reservoir = append(s.reservoir, v)
		return
	}
	// Vitter's algorithm R: keep each of the stripe's count observations
	// with equal probability cap/count. Round-robin assignment keeps each
	// stripe a uniform subsample of the whole stream, so the merged
	// reservoir remains a uniform sample.
	if i := s.src.Intn(int(s.count)); i < s.cap {
		s.reservoir[i] = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.stripes {
		s := &h.stripes[i]
		s.mu.Lock()
		n += s.count
		s.mu.Unlock()
	}
	return n
}

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	var n int64
	var sum float64
	for i := range h.stripes {
		s := &h.stripes[i]
		s.mu.Lock()
		n += s.count
		sum += s.sum
		s.mu.Unlock()
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Min returns the smallest observation, or 0 for an empty histogram.
func (h *Histogram) Min() float64 {
	min, seen := 0.0, false
	for i := range h.stripes {
		s := &h.stripes[i]
		s.mu.Lock()
		if s.count > 0 && (!seen || s.min < min) {
			min, seen = s.min, true
		}
		s.mu.Unlock()
	}
	return min
}

// Max returns the largest observation, or 0 for an empty histogram.
func (h *Histogram) Max() float64 {
	max, seen := 0.0, false
	for i := range h.stripes {
		s := &h.stripes[i]
		s.mu.Lock()
		if s.count > 0 && (!seen || s.max > max) {
			max, seen = s.max, true
		}
		s.mu.Unlock()
	}
	return max
}

// Quantile returns the q-quantile (0 <= q <= 1) estimated from the merged
// stripe reservoirs, or 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v out of [0,1]", q))
	}
	var merged []float64
	for i := range h.stripes {
		s := &h.stripes[i]
		s.mu.Lock()
		merged = append(merged, s.reservoir...)
		s.mu.Unlock()
	}
	if len(merged) == 0 {
		return 0
	}
	sort.Float64s(merged)
	i := int(math.Ceil(q*float64(len(merged)))) - 1
	if i < 0 {
		i = 0
	}
	return merged[i]
}

// GWAP accumulates the game-with-a-purpose evaluation metrics for one game.
// Sessions contribute play time; outputs contribute solved problem
// instances. All durations are simulated time. Safe for concurrent use.
type GWAP struct {
	mu         sync.Mutex
	playByUser map[string]time.Duration
	totalPlay  time.Duration
	outputs    int64
	sessions   int64
}

// NewGWAP returns an empty metrics accumulator.
func NewGWAP() *GWAP {
	return &GWAP{playByUser: make(map[string]time.Duration)}
}

// RecordSession adds one play session of the given length for the player.
func (g *GWAP) RecordSession(playerID string, length time.Duration) {
	if length < 0 {
		panic("metrics: negative session length")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.playByUser[playerID] += length
	g.totalPlay += length
	g.sessions++
}

// RecordOutputs adds n solved problem instances (labels, boxes, facts...).
func (g *GWAP) RecordOutputs(n int) {
	if n < 0 {
		panic("metrics: negative output count")
	}
	g.mu.Lock()
	g.outputs += int64(n)
	g.mu.Unlock()
}

// Outputs returns the total number of solved problem instances.
func (g *GWAP) Outputs() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.outputs
}

// Sessions returns the number of recorded sessions.
func (g *GWAP) Sessions() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sessions
}

// Players returns the number of distinct players seen.
func (g *GWAP) Players() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.playByUser)
}

// TotalPlay returns the cumulative play time across all players.
func (g *GWAP) TotalPlay() time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.totalPlay
}

// Throughput returns solved problem instances per human-hour of play,
// the primary GWAP efficiency metric. Zero play time yields 0.
func (g *GWAP) Throughput() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	hours := g.totalPlay.Hours()
	if hours <= 0 {
		return 0
	}
	return float64(g.outputs) / hours
}

// ALP returns the average lifetime play: total play time divided by the
// number of distinct players. It measures how engaging the game is.
func (g *GWAP) ALP() time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.playByUser) == 0 {
		return 0
	}
	return g.totalPlay / time.Duration(len(g.playByUser))
}

// ExpectedContribution returns throughput × ALP: the number of problem
// instances a single average player can be expected to solve over their
// lifetime with the game.
func (g *GWAP) ExpectedContribution() float64 {
	return g.Throughput() * g.ALP().Hours()
}

// Report is a flattened snapshot of the GWAP metrics, ready for printing
// or JSON encoding by the bench harness.
type Report struct {
	Players              int     `json:"players"`
	Sessions             int64   `json:"sessions"`
	Outputs              int64   `json:"outputs"`
	TotalPlayHours       float64 `json:"total_play_hours"`
	ThroughputPerHour    float64 `json:"throughput_per_hour"`
	ALPMinutes           float64 `json:"alp_minutes"`
	ExpectedContribution float64 `json:"expected_contribution"`
}

// Report returns a snapshot of all GWAP metrics.
func (g *GWAP) Report() Report {
	return Report{
		Players:              g.Players(),
		Sessions:             g.Sessions(),
		Outputs:              g.Outputs(),
		TotalPlayHours:       g.TotalPlay().Hours(),
		ThroughputPerHour:    g.Throughput(),
		ALPMinutes:           g.ALP().Minutes(),
		ExpectedContribution: g.ExpectedContribution(),
	}
}
