// Package score implements the enjoyment machinery the GWAPs wrapped
// around their mechanisms: points per agreement, timed-round bonuses,
// streaks for consecutive successes, and leaderboards. The survey's thesis
// is that people will do enormous amounts of work if the work is fun;
// points and rankings are how the deployed games manufactured that fun,
// and ALP — the engagement metric — is what they moved.
package score

import (
	"sort"
	"sync"
	"time"
)

// Rules parameterizes scoring for one game.
type Rules struct {
	// PointsPerOutput is the base award for a successful round.
	PointsPerOutput int
	// StreakBonus is added per consecutive success, capped at StreakCap.
	StreakBonus int
	StreakCap   int
	// SpeedBonusWindow grants SpeedBonus for successes faster than the
	// window (the ESP Game's "bonus round" pressure).
	SpeedBonusWindow time.Duration
	SpeedBonus       int
}

// DefaultRules mirrors ESP-style scoring.
func DefaultRules() Rules {
	return Rules{
		PointsPerOutput:  100,
		StreakBonus:      25,
		StreakCap:        8,
		SpeedBonusWindow: 30 * time.Second,
		SpeedBonus:       50,
	}
}

// Board tracks player scores and streaks. Safe for concurrent use.
type Board struct {
	mu      sync.Mutex
	rules   Rules
	points  map[string]int64
	streaks map[string]int
	rounds  map[string]int64
}

// NewBoard returns an empty board with the given rules.
func NewBoard(rules Rules) *Board {
	if rules.PointsPerOutput <= 0 {
		panic("score: PointsPerOutput must be positive")
	}
	return &Board{
		rules:   rules,
		points:  make(map[string]int64),
		streaks: make(map[string]int),
		rounds:  make(map[string]int64),
	}
}

// RecordRound scores one round for player: success earns points plus
// streak and speed bonuses; failure resets the streak. It returns the
// points awarded.
func (b *Board) RecordRound(player string, success bool, duration time.Duration) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rounds[player]++
	if !success {
		b.streaks[player] = 0
		return 0
	}
	award := b.rules.PointsPerOutput
	streak := b.streaks[player]
	if streak > b.rules.StreakCap {
		streak = b.rules.StreakCap
	}
	award += streak * b.rules.StreakBonus
	if b.rules.SpeedBonusWindow > 0 && duration > 0 && duration <= b.rules.SpeedBonusWindow {
		award += b.rules.SpeedBonus
	}
	b.streaks[player]++
	b.points[player] += int64(award)
	return award
}

// Streak returns player's current streak.
func (b *Board) Streak(player string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.streaks[player]
}

// Rounds returns how many rounds player has been scored for.
func (b *Board) Rounds(player string) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rounds[player]
}

// Entry is one leaderboard row.
type Entry struct {
	Player string
	Points int64
}

// Top returns the n highest-scoring players, ties broken by name so the
// board is stable between refreshes.
func (b *Board) Top(n int) []Entry {
	b.mu.Lock()
	entries := make([]Entry, 0, len(b.points))
	for p, pts := range b.points {
		entries = append(entries, Entry{Player: p, Points: pts})
	}
	b.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Points != entries[j].Points {
			return entries[i].Points > entries[j].Points
		}
		return entries[i].Player < entries[j].Player
	})
	if n < len(entries) {
		entries = entries[:n]
	}
	return entries
}
