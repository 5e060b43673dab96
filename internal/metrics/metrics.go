// Package metrics implements the evaluation metrics the GWAP literature
// uses to compare games — throughput (problem instances solved per human-
// hour), average lifetime play (ALP), and expected contribution — plus the
// general counters and histograms the dispatch service and simulator report.
package metrics

import (
	"fmt"
	"math"
	"slices"
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

// Histogram summarizes a stream of float64 observations: exact count, sum,
// min and max, with quantiles estimated from a fixed-size uniform reservoir
// sample so memory stays bounded on simulations with millions of rounds.
// It is safe for concurrent use.
type Histogram struct {
	mu        sync.Mutex
	count     int64
	sum       float64
	min, max  float64
	reservoir []float64
	cap       int
	src       *rng.Source
}

// NewHistogram returns a histogram with the given reservoir capacity.
func NewHistogram(reservoirCap int) *Histogram {
	if reservoirCap <= 0 {
		panic("metrics: histogram reservoir capacity must be positive")
	}
	return &Histogram{cap: reservoirCap, src: rng.New(0x48495354)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if len(h.reservoir) < h.cap {
		h.reservoir = append(h.reservoir, v)
		return
	}
	// Vitter's algorithm R: keep each of the count observations with equal
	// probability cap/count.
	if i := h.src.Intn(int(h.count)); i < h.cap {
		h.reservoir[i] = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation, or 0 for an empty histogram.
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest observation, or 0 for an empty histogram.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns the q-quantile (0 <= q <= 1) estimated from the
// reservoir, or 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v out of [0,1]", q))
	}
	h.mu.Lock()
	sorted := slices.Clone(h.reservoir)
	h.mu.Unlock()
	if len(sorted) == 0 {
		return 0
	}
	slices.Sort(sorted)
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
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
