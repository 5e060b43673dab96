// Package metrics implements the evaluation metrics the GWAP literature
// uses to compare games — throughput (problem instances solved per human-
// hour), average lifetime play (ALP), and expected contribution — plus the
// general counters and histograms the dispatch service and simulator report.
package metrics

import (
	"sync"
	"sync/atomic"
	"time"
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

// GWAP accumulates the game-with-a-purpose evaluation metrics for one game.
// Sessions contribute play time; outputs contribute solved problem
// instances. Durations are on the caller's clock: simulated time in the
// simulator, wall time in the session plane. Safe for concurrent use.
type GWAP struct {
	mu        sync.Mutex
	players   map[string]struct{}
	totalPlay time.Duration
	outputs   int64
	sessions  int64
}

// NewGWAP returns an empty metrics accumulator.
func NewGWAP() *GWAP {
	return &GWAP{players: make(map[string]struct{})}
}

// RecordSession adds one play session of the given length for the player.
func (g *GWAP) RecordSession(playerID string, length time.Duration) {
	if length < 0 {
		panic("metrics: negative session length")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.players[playerID] = struct{}{}
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

// Report returns a snapshot of all GWAP metrics, read under one hold of
// the lock so every field describes the same moment. Throughput is
// outputs per human-hour of play, the primary GWAP efficiency metric; ALP
// (average lifetime play) is total play over distinct players, a measure
// of how engaging the game is; expected contribution is throughput × ALP,
// the problem instances one average player can be expected to solve over
// their lifetime with the game. Zero play or no players yields zeros.
func (g *GWAP) Report() Report {
	g.mu.Lock()
	defer g.mu.Unlock()
	var throughput float64
	if hours := g.totalPlay.Hours(); hours > 0 {
		throughput = float64(g.outputs) / hours
	}
	var alp time.Duration
	if n := len(g.players); n > 0 {
		alp = g.totalPlay / time.Duration(n)
	}
	return Report{
		Players:              len(g.players),
		Sessions:             g.sessions,
		Outputs:              g.outputs,
		TotalPlayHours:       g.totalPlay.Hours(),
		ThroughputPerHour:    throughput,
		ALPMinutes:           alp.Minutes(),
		ExpectedContribution: throughput * alp.Hours(),
	}
}
