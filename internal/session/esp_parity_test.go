package session

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"humancomp/internal/agree"
	"humancomp/internal/games"
	"humancomp/internal/match"
	"humancomp/internal/rng"
	"humancomp/internal/vocab"
)

// parityScript is one seeded ESP round: the guesses, in order, and the
// taboo state around them. Every round plays item 0.
type parityScript struct {
	replay     bool
	beats      []parityBeat // in time order; a replay round has only seat 0
	recorded   []int        // the recorded partner's transcript (replay)
	startTaboo []int        // taboo on the item before the round starts
	midAt      int          // beat before which midWord turns taboo; -1 for none
	midWord    int
}

type parityBeat struct{ seat, word int }

// newParityScript draws a script that uses every guess of both seats.
// Half the scripts draw from a small alphabet, so matches, repeats and
// taboo words are all common; the other half from a large one, so a round
// that runs out of guesses is common too.
func newParityScript(src *rng.Source, replay bool) parityScript {
	alphabet := 8
	if src.Bool(0.5) {
		alphabet = 200
	}
	word := func() int { return 1 + src.Intn(alphabet) }
	sc := parityScript{replay: replay, midAt: -1}
	for len(sc.startTaboo) < src.Intn(3) {
		if w := word(); !slices.Contains(sc.startTaboo, w) {
			sc.startTaboo = append(sc.startTaboo, w)
		}
	}
	seats := make([]int, 2*agree.MaxGuesses)
	for k := agree.MaxGuesses; k < len(seats); k++ {
		seats[k] = 1
	}
	if replay {
		seats = seats[:agree.MaxGuesses]
		for n := 1 + src.Intn(6); len(sc.recorded) < n; {
			if w := word(); !slices.Contains(sc.recorded, w) {
				sc.recorded = append(sc.recorded, w)
			}
		}
	}
	src.Shuffle(len(seats), func(i, j int) { seats[i], seats[j] = seats[j], seats[i] })
	for _, seat := range seats {
		sc.beats = append(sc.beats, parityBeat{seat, word()})
	}
	if src.Bool(0.5) {
		sc.midAt = 1 + src.Intn(len(sc.beats)-1)
		for sc.midWord = word(); slices.Contains(sc.startTaboo, sc.midWord); sc.midWord = word() {
		}
	}
	return sc
}

// TestSessionPlaysTheSimulatorsRound feeds each seeded script to the
// session plane's API and to games.ESP's driver, and requires the same
// round from both: the same transcripts, outcome and end reason. The
// scripts cover live and replay rounds, taboo words from the start and
// promoted mid-round, refused guesses and exhaustion.
func TestSessionPlaysTheSimulatorsRound(t *testing.T) {
	corpus := vocab.NewCorpus(vocab.CorpusConfig{
		Lexicon:     vocab.LexiconConfig{Size: 500, ZipfS: 1, SynonymRate: 0, Seed: 1},
		NumImages:   1,
		MeanObjects: 4,
		CanvasW:     640,
		CanvasH:     480,
		Seed:        2,
	})
	src := rng.New(36)
	seen := map[string]int{}
	for c := 0; c < 80; c++ {
		sc := newParityScript(src, c%2 == 1)
		transcript, res := playSession(t, corpus.Lexicon, sc)
		sim := playSimulated(corpus, sc)
		same := slices.Equal(transcript[0], sim.Guesses[0]) && slices.Equal(transcript[1], sim.Guesses[1])
		if !same || res.Agreed != sim.Agreed || res.Agreed && res.Word != sim.Word || res.Reason != sim.End {
			t.Fatalf("script %d %+v:\nsession: %v agreed=%v word=%d end=%s\nsimulator: %v agreed=%v word=%d end=%s",
				c, sc, transcript, res.Agreed, res.Word, res.Reason, sim.Guesses, sim.Agreed, sim.Word, sim.End)
		}
		seen[fmt.Sprintf("replay=%v %s", sc.replay, res.Reason)]++
	}
	for _, replay := range []bool{false, true} {
		for _, end := range []string{agree.EndAgreed, agree.EndExhausted} {
			if seen[fmt.Sprintf("replay=%v %s", replay, end)] == 0 {
				t.Errorf("no script ended replay=%v %s: %v", replay, end, seen)
			}
		}
	}
}

// playSession plays sc through a fresh plane's API. A mid-round promotion
// lands as a concurrent agreement's does: recorded with the taboo tracker
// and propagated into the item's open sessions.
func playSession(t *testing.T, lex *vocab.Lexicon, sc parityScript) ([2][]int, Result) {
	t.Helper()
	var (
		mu      sync.Mutex
		results = map[ID]Result{}
	)
	p := newPlane(t, func(c *Config) {
		c.Lexicon = lex
		c.MatchTimeout = time.Second // pairs meet at once
		if sc.replay {
			c.MatchTimeout = 5 * time.Millisecond // the lone player falls back
		}
		c.OnResult = func(r Result) { mu.Lock(); results[r.Session] = r; mu.Unlock() }
	})
	p.mu.Lock()
	for _, w := range sc.startTaboo {
		p.taboo.Record(0, w)
	}
	p.mu.Unlock()
	players := [2]string{"s0", "s1"}
	var id ID
	if sc.replay {
		p.replays.Record(match.ReplaySession{Item: 0, Player: "ghost", Words: sc.recorded})
		info, err := p.Join(context.Background(), players[0])
		if err != nil || info.Mode != "replay" {
			t.Fatalf("replay join: %+v err=%v", info, err)
		}
		id = info.Session
	} else {
		a, _ := joinPair(t, p, players[0], players[1])
		id = a.Session
	}
	for k, b := range sc.beats {
		if k == sc.midAt {
			p.mu.Lock()
			p.taboo.Record(0, sc.midWord)
			p.propagateTabooLocked(0, sc.midWord, 0)
			p.mu.Unlock()
		}
		res, err := p.Guess(id, players[b.seat], b.word)
		if err != nil {
			t.Fatalf("beat %d %+v: %v", k, b, err)
		}
		if res.Done {
			break
		}
	}
	p.mu.Lock()
	round := p.sess[id].round
	transcript := [2][]int{slices.Clone(round.Guesses(0)), slices.Clone(round.Guesses(1))}
	p.mu.Unlock()
	mu.Lock()
	defer mu.Unlock()
	res, ok := results[id]
	if !ok {
		t.Fatalf("round did not end after its script: %v", transcript)
	}
	return transcript, res
}

// playSimulated plays sc through games.ESP's driver.
func playSimulated(corpus *vocab.Corpus, sc parityScript) games.ESPRound {
	g := games.NewESP(corpus, games.DefaultESPConfig())
	for _, w := range sc.startTaboo {
		g.Taboo.Record(0, w)
	}
	var seats [2]*scriptedPlayer
	for i := range seats {
		seats[i] = &scriptedPlayer{sc: &sc}
	}
	for k, b := range sc.beats {
		s := seats[b.seat]
		s.beats = append(s.beats, k)
	}
	if sc.replay {
		return g.PlayRoundReplay(seats[0], match.ReplaySession{Item: 0, Player: "ghost", Words: sc.recorded})
	}
	return g.PlayRound(seats[0], seats[1], 0)
}

// scriptedPlayer is one seat of a parityScript as games.Player: its think
// times put its beats at their script positions (beat k at k+1 seconds),
// and before the script's promotion beat it lands the word on the round's
// taboo set, as a concurrent agreement's AddTaboo would.
type scriptedPlayer struct {
	sc      *parityScript
	beats   []int // script indices of this seat's beats
	played  int
	thought int
}

func (p *scriptedPlayer) ThinkTime() time.Duration {
	n := p.thought
	p.thought++
	if n >= len(p.beats) {
		return time.Hour
	}
	at := time.Duration(p.beats[n]+1) * time.Second
	if n > 0 {
		at -= time.Duration(p.beats[n-1]+1) * time.Second
	}
	return at
}

func (p *scriptedPlayer) GuessTag(_ *vocab.Lexicon, _ *vocab.Image, taboo, _ map[int]bool) int {
	if p.played >= len(p.beats) {
		return -1
	}
	k := p.beats[p.played]
	p.played++
	if k == p.sc.midAt {
		taboo[p.sc.midWord] = true
	}
	return p.sc.beats[k].word
}

var _ games.Player = (*scriptedPlayer)(nil)

// The taboo rules the session plane plays are the simulator's defaults.
func TestSessionDefaultsAreTheSimulators(t *testing.T) {
	sim := games.DefaultESPConfig()
	if sim.PromoteAfter != agree.DefaultPromoteAfter || sim.RetireAt != agree.DefaultRetireAt {
		t.Fatalf("session plane promotes after %d and retires at %d; simulator %+v", agree.DefaultPromoteAfter, agree.DefaultRetireAt, sim)
	}
}
