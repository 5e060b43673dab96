package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"humancomp/internal/rng"
	"humancomp/internal/vocab"
)

// TestSessionSoak is the CI soak job: many concurrent paired players with
// seeded disconnects, lone players falling back to replay mode, taboo
// promotions landing mid-game — all under -race. At the end the
// open-session gauge must return to zero and the replay fallback must
// have engaged.
func TestSessionSoak(t *testing.T) {
	const (
		players     = 200 // concurrent live joiners (100 potential pairs)
		loners      = 24  // late joiners who can only get replay partners
		items       = 16
		disconnects = 25 // players who vanish mid-round (seeded)
	)
	var results atomic.Int64
	cfg := Config{
		MatchTimeout: 300 * time.Millisecond,
		RoundTimeout: 2 * time.Second,
		Seed:         42,
		Lexicon:      vocab.NewLexicon(vocab.LexiconConfig{Size: 2000, ZipfS: 1, SynonymRate: 0, Seed: 2}),
		Items:        items,
		OnResult:     func(Result) { results.Add(1) },
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	src := rng.New(7)
	drop := make(map[int]bool, disconnects)
	for len(drop) < disconnects {
		drop[src.Intn(players)] = true
	}

	// play drives one player's whole session: join, long-poll events in
	// one goroutine, guess toward agreement in another. Guessing word
	// item*31+k means both seats of a pair converge within agree.MaxGuesses.
	play := func(name string, idx int, disconnect bool) error {
		ctx := context.Background()
		var info JoinInfo
		for attempt := 0; ; attempt++ {
			var err error
			info, err = p.Join(ctx, name)
			if err == nil {
				break
			}
			// Very early joiners can time out before the first transcript
			// is recorded; retrying models the real client's behavior.
			if errors.Is(err, ErrNoPartner) && attempt < 5 {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			return fmt.Errorf("%s join: %w", name, err)
		}
		pollDone := make(chan struct{})
		go func() {
			defer close(pollDone)
			after := 0
			for {
				evs, done, err := p.Events(ctx, info.Session, name, after, 500*time.Millisecond)
				if err != nil || done {
					return
				}
				if len(evs) > 0 {
					after = evs[len(evs)-1].Seq
				}
			}
		}()
		for k := 0; ; k++ {
			if disconnect && k == 2 {
				if err := p.Leave(info.Session, name); err != nil {
					return fmt.Errorf("%s leave: %w", name, err)
				}
				break
			}
			// Seat-offset sequences overlap after a few guesses, so live
			// pairs converge but not on the very first word.
			res, err := p.Guess(info.Session, name, info.Item*31+info.Seat*3+k)
			if errors.Is(err, ErrEnded) || errors.Is(err, ErrUnknown) {
				break // partner finished or left; round is over
			}
			if err != nil {
				return fmt.Errorf("%s guess: %w", name, err)
			}
			if res.Done {
				break
			}
			if !res.Accepted && res.Reason == "limit" {
				if _, err := p.Pass(info.Session, name); err != nil && !errors.Is(err, ErrUnknown) {
					return fmt.Errorf("%s pass: %w", name, err)
				}
				break
			}
			// A touch of jitter so pairs interleave guesses realistically.
			if k%3 == idx%3 {
				time.Sleep(time.Millisecond)
			}
		}
		<-pollDone
		return nil
	}

	var wg sync.WaitGroup
	errc := make(chan error, players+loners)
	for i := 0; i < players; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := play(fmt.Sprintf("p%03d", i), i, drop[i]); err != nil {
				errc <- err
			}
		}(i)
	}
	wg.Wait()

	// Lone stragglers arrive one at a time — nobody to pair with, so every
	// one of them must ride a recorded transcript from the live phase.
	for i := 0; i < loners; i++ {
		if err := play(fmt.Sprintf("lone%02d", i), i, false); err != nil {
			errc <- err
		}
	}
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Every round must close on its own — no waiting for RoundTimeout
	// here would hide leaks, so poll briefly for the gauge to settle.
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Open != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	st := p.Stats()
	if st.Open != 0 {
		t.Fatalf("open-session gauge stuck at %d: %+v", st.Open, st)
	}
	if st.Replay == 0 {
		t.Fatalf("replay fallback never engaged: %+v", st)
	}
	if st.Replay < int64(loners) {
		t.Errorf("only %d replay sessions for %d loners: %+v", st.Replay, loners, st)
	}
	if st.Agreements == 0 {
		t.Fatalf("no agreements in the whole soak: %+v", st)
	}
	if st.Abandons == 0 {
		t.Errorf("seeded disconnects produced no abandons: %+v", st)
	}
	if got := results.Load(); got != st.Live+st.Replay {
		t.Errorf("OnResult fired %d times for %d sessions", got, st.Live+st.Replay)
	}
	// A round's play is counted before OnResult hears of it.
	if g, visits := p.GWAP(), 2*st.Live+st.Replay+st.NoPartner; g.Outputs != st.Agreements || g.Sessions != visits {
		t.Errorf("GWAP %+v: want %d outputs (the agreements) and %d visits", g, st.Agreements, visits)
	}
	if matchWaits(p) == 0 {
		t.Error("match-wait histogram empty")
	}
	t.Logf("soak: %+v", st)
}
