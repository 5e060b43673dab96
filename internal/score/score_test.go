package score

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestBasicScoring(t *testing.T) {
	b := NewBoard(DefaultRules())
	award := b.RecordRound("p", true, time.Minute)
	if award != 100 {
		t.Fatalf("first award = %d", award)
	}
	if b.Points("p") != 100 || b.Streak("p") != 1 || b.Rounds("p") != 1 {
		t.Fatalf("state: points=%d streak=%d rounds=%d", b.Points("p"), b.Streak("p"), b.Rounds("p"))
	}
}

func TestStreakBonusAccumulatesAndCaps(t *testing.T) {
	rules := DefaultRules()
	rules.SpeedBonusWindow = 0 // isolate streak behaviour
	b := NewBoard(rules)
	var awards []int
	for i := 0; i < 12; i++ {
		awards = append(awards, b.RecordRound("p", true, time.Minute))
	}
	if awards[0] != 100 || awards[1] != 125 || awards[2] != 150 {
		t.Fatalf("early awards = %v", awards[:3])
	}
	// After the cap (8), awards stop growing.
	if awards[11] != awards[10] || awards[11] != 100+8*25 {
		t.Fatalf("capped awards = %v", awards[8:])
	}
}

func TestFailureResetsStreak(t *testing.T) {
	rules := DefaultRules()
	rules.SpeedBonusWindow = 0
	b := NewBoard(rules)
	b.RecordRound("p", true, time.Minute)
	b.RecordRound("p", true, time.Minute)
	if got := b.RecordRound("p", false, time.Minute); got != 0 {
		t.Fatalf("failure awarded %d", got)
	}
	if b.Streak("p") != 0 {
		t.Fatal("streak not reset")
	}
	if got := b.RecordRound("p", true, time.Minute); got != 100 {
		t.Fatalf("award after reset = %d", got)
	}
}

func TestSpeedBonus(t *testing.T) {
	b := NewBoard(DefaultRules())
	if got := b.RecordRound("fast", true, 10*time.Second); got != 150 {
		t.Fatalf("fast award = %d", got)
	}
	if got := b.RecordRound("slow", true, 2*time.Minute); got != 100 {
		t.Fatalf("slow award = %d", got)
	}
	// Zero duration means "unknown": no speed bonus.
	if got := b.RecordRound("unknown", true, 0); got != 100 {
		t.Fatalf("unknown-duration award = %d", got)
	}
}

func TestLeaderboard(t *testing.T) {
	rules := DefaultRules()
	rules.SpeedBonusWindow = 0
	b := NewBoard(rules)
	for i, wins := range []int{5, 2, 9} {
		p := fmt.Sprintf("p%d", i)
		for w := 0; w < wins; w++ {
			b.RecordRound(p, true, time.Minute)
		}
	}
	top := b.Top(2)
	if len(top) != 2 || top[0].Player != "p2" || top[1].Player != "p0" {
		t.Fatalf("Top = %v", top)
	}
	if b.Rank("p2") != 1 || b.Rank("p0") != 2 || b.Rank("p1") != 3 {
		t.Fatalf("ranks: %d %d %d", b.Rank("p2"), b.Rank("p0"), b.Rank("p1"))
	}
	if b.Rank("nobody") != 0 {
		t.Fatal("unknown player has a rank")
	}
	if got := b.Top(100); len(got) != 3 {
		t.Fatalf("Top(100) = %v", got)
	}
}

func TestLeaderboardTiesStable(t *testing.T) {
	rules := DefaultRules()
	rules.SpeedBonusWindow = 0
	b := NewBoard(rules)
	b.RecordRound("zeta", true, time.Minute)
	b.RecordRound("alpha", true, time.Minute)
	top := b.Top(2)
	if top[0].Player != "alpha" {
		t.Fatalf("tie order = %v", top)
	}
}

func TestConcurrentScoring(t *testing.T) {
	b := NewBoard(DefaultRules())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := fmt.Sprintf("p%d", i%2)
			for j := 0; j < 500; j++ {
				b.RecordRound(p, j%3 != 0, time.Minute)
			}
		}(i)
	}
	wg.Wait()
	if b.Rounds("p0")+b.Rounds("p1") != 4000 {
		t.Fatalf("rounds = %d + %d", b.Rounds("p0"), b.Rounds("p1"))
	}
}

func TestNewBoardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero points rule did not panic")
		}
	}()
	NewBoard(Rules{})
}

// Rank returns player's 1-based leaderboard position, or 0 for a player
// with no points.
func (b *Board) Rank(player string) int {
	if b.Points(player) == 0 {
		return 0
	}
	for i, e := range b.Top(1 << 30) {
		if e.Player == player {
			return i + 1
		}
	}
	return 0
}

// Points returns player's total points.
func (b *Board) Points(player string) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.points[player]
}
