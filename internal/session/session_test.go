package session

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"humancomp/internal/agree"
	"humancomp/internal/match"
	"humancomp/internal/vocab"
)

func testLexicon(t testing.TB) *vocab.Lexicon {
	t.Helper()
	// SynonymRate 0 keeps Exact matching fully deterministic.
	return vocab.NewLexicon(vocab.LexiconConfig{Size: 500, ZipfS: 1, SynonymRate: 0, Seed: 1})
}

// newPlane builds a plane with fast test timings; mutate defaults via fn.
func newPlane(t testing.TB, fn func(*Config)) *Plane {
	t.Helper()
	cfg := Config{
		MatchTimeout: 200 * time.Millisecond,
		RoundTimeout: time.Minute,
		EndLinger:    time.Minute,
		SweepEvery:   5 * time.Millisecond,
		Lexicon:      testLexicon(t),
		Items:        1,
		Seed:         1,
	}
	if fn != nil {
		fn(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// joinPair runs two concurrent Joins and returns both JoinInfos.
func joinPair(t *testing.T, p *Plane, a, b string) (JoinInfo, JoinInfo) {
	t.Helper()
	var infoA JoinInfo
	var errA error
	done := make(chan struct{})
	go func() {
		infoA, errA = p.Join(context.Background(), a)
		close(done)
	}()
	// Let a reach the waiter pool first so seats are deterministic.
	deadline := time.Now().Add(2 * time.Second)
	for p.mm.Waiting() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	infoB, errB := p.Join(context.Background(), b)
	<-done
	if errA != nil || errB != nil {
		t.Fatalf("join errors: %v / %v", errA, errB)
	}
	return infoA, infoB
}

func TestLivePairingAndAgreement(t *testing.T) {
	var results []Result
	var mu sync.Mutex
	p := newPlane(t, func(c *Config) {
		c.OnResult = func(r Result) { mu.Lock(); results = append(results, r); mu.Unlock() }
	})
	infoA, infoB := joinPair(t, p, "alice", "bob")
	if infoA.Session != infoB.Session {
		t.Fatalf("players landed in different sessions: %d vs %d", infoA.Session, infoB.Session)
	}
	if infoA.Seat == infoB.Seat {
		t.Fatalf("both players got seat %d", infoA.Seat)
	}
	if infoA.Mode != "live" || infoB.Mode != "live" {
		t.Fatalf("modes = %q / %q", infoA.Mode, infoB.Mode)
	}
	if infoA.Item != 0 || infoB.Item != 0 {
		t.Fatalf("items = %d / %d", infoA.Item, infoB.Item)
	}
	id := infoA.Session

	// Alice guesses 10 and 11; Bob answers 11: agreement.
	for _, w := range []int{10, 11} {
		res, err := p.Guess(id, "alice", w)
		if err != nil || !res.Accepted {
			t.Fatalf("alice guess %d: %+v err=%v", w, res, err)
		}
	}
	res, err := p.Guess(id, "bob", 11)
	if err != nil || !res.Matched || res.Word != 11 || !res.Done {
		t.Fatalf("bob's matching guess: %+v err=%v", res, err)
	}

	evs, done, err := p.Events(context.Background(), id, "alice", 0, 0)
	if err != nil || !done {
		t.Fatalf("Events: done=%v err=%v", done, err)
	}
	var types []string
	for _, ev := range evs {
		types = append(types, ev.Type)
		if ev.Type == EvPartnerGuess && ev.Word != 0 {
			t.Fatalf("partner_guess leaked the word: %+v", ev)
		}
		if ev.Type == EvAgreed && ev.Word != 11 {
			t.Fatalf("agreed event word = %d", ev.Word)
		}
	}
	want := []string{EvStart, EvPartnerGuess, EvPartnerGuess, EvPartnerGuess, EvAgreed, EvEnd}
	if len(types) != len(want) {
		t.Fatalf("event types = %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("event[%d] = %q, want %q (%v)", i, types[i], want[i], types)
		}
	}
	for i, ev := range evs {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(results) != 1 {
		t.Fatalf("OnResult fired %d times", len(results))
	}
	r := results[0]
	if !r.Agreed || r.Word != 11 || r.Mode != Live || r.Reason != agree.EndAgreed {
		t.Fatalf("result = %+v", r)
	}
	st := p.Stats()
	if st.Open != 0 || st.Agreements != 1 || st.Live != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Both transcripts were recorded for future replay partners.
	if st.ReplayStored != 2 {
		t.Fatalf("replay store holds %d transcripts, want 2", st.ReplayStored)
	}
}

func TestReplayFallback(t *testing.T) {
	p := newPlane(t, func(c *Config) { c.MatchTimeout = 20 * time.Millisecond })
	// Empty store: a lone player has nobody at all.
	if _, err := p.Join(context.Background(), "carol"); !errors.Is(err, ErrNoPartner) {
		t.Fatalf("join with empty replay store: %v", err)
	}
	if p.Stats().NoPartner != 1 {
		t.Fatalf("NoPartner = %d", p.Stats().NoPartner)
	}
	p.replays.Record(match.ReplaySession{Item: 3, Player: "ghost", Words: []int{40, 41}})
	info, err := p.Join(context.Background(), "carol")
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode != "replay" || info.Item != 3 || info.Seat != 0 {
		t.Fatalf("replay join info = %+v", info)
	}
	// The recording plays one word before each of carol's guesses; her
	// second guess matches the second word, played after her first.
	if res, err := p.Guess(info.Session, "carol", 99); err != nil || !res.Accepted || res.Matched {
		t.Fatalf("first guess: %+v err=%v", res, err)
	}
	res, err := p.Guess(info.Session, "carol", 41)
	if err != nil || !res.Matched || res.Word != 41 {
		t.Fatalf("matching guess: %+v err=%v", res, err)
	}
	st := p.Stats()
	if st.Replay != 1 || st.Agreements != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ReplayRatio != 1.0 {
		t.Fatalf("ReplayRatio = %v", st.ReplayRatio)
	}
}

func TestReplayPartnerLosesRefusedWords(t *testing.T) {
	p := newPlane(t, func(c *Config) { c.MatchTimeout = 20 * time.Millisecond })
	// The recording opens with a word that has since become taboo. The
	// partner types it before dave's first guess and the round refuses
	// it; it is lost, not retried, so the recording's 51 comes a beat
	// later, after dave's first guess, and is the one partner guess
	// announced. Dave never says 51, so the round runs out of guesses.
	p.replays.Record(match.ReplaySession{Item: 0, Player: "ghost", Words: []int{50, 51}})
	p.mu.Lock()
	p.taboo.Record(0, 50)
	p.mu.Unlock()
	info, err := p.Join(context.Background(), "dave")
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	opened := slices.Clone(p.sess[info.Session].round.Guesses(1))
	p.mu.Unlock()
	if len(opened) != 0 {
		t.Fatalf("recorded seat entered %v before dave's first guess", opened)
	}
	for k := 0; k < agree.MaxGuesses; k++ {
		res, err := p.Guess(info.Session, "dave", 60+k)
		if err != nil || !res.Accepted || res.Matched || res.Done != (k == agree.MaxGuesses-1) {
			t.Fatalf("guess %d = %+v err=%v", k, res, err)
		}
	}
	evs, _, err := p.Events(context.Background(), info.Session, "dave", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if last := evs[len(evs)-1]; last.Reason != agree.EndExhausted {
		t.Fatalf("round ended %q, want exhausted", last.Reason)
	}
	announced := 0
	for _, ev := range evs {
		if ev.Type == EvPartnerGuess && ev.Seat == 1 {
			announced++
		}
	}
	if announced != 1 {
		t.Fatalf("%d recorded words announced, want 1 (the refused one is not): %v", announced, evs)
	}
}

// TestRecordedSeatTakesNoInput pins that a replay round's recorded seat
// is driven by the round alone: a caller naming it cannot guess (forging
// an agreement the recording never typed), pass, leave or read events.
func TestRecordedSeatTakesNoInput(t *testing.T) {
	var results []Result
	var mu sync.Mutex
	p := newPlane(t, func(c *Config) {
		c.MatchTimeout = 20 * time.Millisecond
		c.OnResult = func(r Result) { mu.Lock(); results = append(results, r); mu.Unlock() }
	})
	p.replays.Record(match.ReplaySession{Item: 0, Player: "ghost", Words: []int{40, 41, 42}})
	info, err := p.Join(context.Background(), "carol")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := p.Guess(info.Session, "carol", 7); err != nil || res.Matched {
		t.Fatalf("carol's guess: %+v err=%v", res, err)
	}
	if res, err := p.Guess(info.Session, "replay:ghost", 7); !errors.Is(err, ErrNotPlayer) {
		t.Fatalf("guess as the recorded seat: %+v err=%v", res, err)
	}
	if _, err := p.Pass(info.Session, "replay:ghost"); !errors.Is(err, ErrNotPlayer) {
		t.Fatalf("pass as the recorded seat: %v", err)
	}
	if err := p.Leave(info.Session, "replay:ghost"); !errors.Is(err, ErrNotPlayer) {
		t.Fatalf("leave as the recorded seat: %v", err)
	}
	if _, _, err := p.Events(context.Background(), info.Session, "replay:ghost", 0, 0); !errors.Is(err, ErrNotPlayer) {
		t.Fatalf("events as the recorded seat: %v", err)
	}
	if st := p.Stats(); st.Open != 1 || st.Agreements != 0 {
		t.Fatalf("stats = %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(results) != 0 {
		t.Fatalf("round reported: %+v", results)
	}
}

func TestReplayPartnerExhaustion(t *testing.T) {
	p := newPlane(t, func(c *Config) { c.MatchTimeout = 20 * time.Millisecond })
	p.replays.Record(match.ReplaySession{Item: 3, Player: "ghost", Words: []int{60}})
	info, err := p.Join(context.Background(), "erin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Guess(info.Session, "erin", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Guess(info.Session, "erin", 2); err != nil {
		t.Fatal(err)
	}
	evs, _, err := p.Events(context.Background(), info.Session, "erin", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sawDone := false
	for _, ev := range evs {
		if ev.Type == EvPartnerDone {
			sawDone = true
		}
	}
	if !sawDone {
		t.Fatalf("no partner_done after exhausting the transcript: %v", evs)
	}
	// The lone player's pass ends a replay round.
	done, err := p.Pass(info.Session, "erin")
	if err != nil || !done {
		t.Fatalf("pass: done=%v err=%v", done, err)
	}
	if st := p.Stats(); st.Passes != 1 || st.Open != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTabooPropagatesAcrossSessions(t *testing.T) {
	p := newPlane(t, nil)
	infoA, _ := joinPair(t, p, "a1", "a2")
	infoB, _ := joinPair(t, p, "b1", "b2")
	if infoA.Session == infoB.Session {
		t.Fatal("pairs shared a session")
	}
	// Session A agrees on 20; the first agreement promotes it.
	if _, err := p.Guess(infoA.Session, "a1", 20); err != nil {
		t.Fatal(err)
	}
	if res, _ := p.Guess(infoA.Session, "a2", 20); !res.Matched {
		t.Fatal("session A did not agree")
	}
	// Session B, same item, mid-round: 20 is now taboo there.
	res, err := p.Guess(infoB.Session, "b1", 20)
	if err != nil || res.Accepted || res.Reason != "taboo" {
		t.Fatalf("promoted word accepted in concurrent session: %+v err=%v", res, err)
	}
	evs, _, err := p.Events(context.Background(), infoB.Session, "b1", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sawTaboo := false
	for _, ev := range evs {
		if ev.Type == EvTaboo && len(ev.Words) == 1 && ev.Words[0] == 20 {
			sawTaboo = true
		}
	}
	if !sawTaboo {
		t.Fatalf("no taboo event reached the concurrent session: %v", evs)
	}
	if p.Stats().TabooPromotions != 1 {
		t.Fatalf("TabooPromotions = %d", p.Stats().TabooPromotions)
	}
	// A fresh session on the item starts with the word already taboo.
	infoC, _ := joinPair(t, p, "c1", "c2")
	if len(infoC.Taboo) != 1 || infoC.Taboo[0] != 20 {
		t.Fatalf("new session taboo list = %v", infoC.Taboo)
	}
}

// TestJoinWhileTabooPropagates is a -race regression: a session is visible
// to taboo propagation from the moment it is created, so building its
// JoinInfo (which lists the round's taboo words) has to read them under
// mu. Players join on one item while every agreement
// promotes a fresh word into all of that item's open sessions.
func TestJoinWhileTabooPropagates(t *testing.T) {
	p := newPlane(t, func(c *Config) {
		c.Items = 4 // each retires at its sixth taboo word
		c.MatchTimeout = 50 * time.Millisecond
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				player := fmt.Sprintf("p%d-%d", g, i)
				info, err := p.Join(context.Background(), player)
				if err != nil {
					continue // the odd one out, or every item retired
				}
				// Both seats derive the same word from the session, so most
				// rounds agree; a round whose word was promoted meanwhile
				// stays open and keeps receiving promotions.
				_, _ = p.Guess(info.Session, player, 10+int(info.Session)%400)
			}
		}(g)
	}
	wg.Wait()
	if st := p.Stats(); st.TabooPromotions < 10 {
		t.Fatalf("only %d taboo promotions ran beside the joins", st.TabooPromotions)
	}
}

// TestTabooPromotionDuringSessionStart forces a promotion on the item
// while a new session on it is being started — from the clock hook that
// runs after the session's taboo set is read and before it is published.
// The new session must still learn the word: the promotion either lands in
// its initial taboo set or reaches it as an EvTaboo.
func TestTabooPromotionDuringSessionStart(t *testing.T) {
	var (
		armed    atomic.Bool
		plane    *Plane
		a        JoinInfo
		promoted = make(chan struct{})
	)
	p := newPlane(t, func(c *Config) {
		c.Now = func() time.Time {
			if armed.Load() && calledFrom("startSession", "appendEventLocked") && armed.CompareAndSwap(true, false) {
				// Session A agrees on 20 concurrently; wait for it unless
				// it is blocked behind the session being started.
				go func() {
					defer close(promoted)
					_, _ = plane.Guess(a.Session, "a1", 20)
					_, _ = plane.Guess(a.Session, "a2", 20)
				}()
				select {
				case <-promoted:
				case <-time.After(200 * time.Millisecond):
				}
			}
			return time.Now()
		}
	})
	plane = p
	a, _ = joinPair(t, p, "a1", "a2")
	armed.Store(true)
	b, _ := joinPair(t, p, "b1", "b2")
	<-promoted
	if p.Stats().TabooPromotions != 1 {
		t.Fatalf("TabooPromotions = %d, want 1", p.Stats().TabooPromotions)
	}
	res, err := p.Guess(b.Session, "b1", 20)
	if err != nil || res.Accepted || res.Reason != "taboo" {
		t.Fatalf("word promoted during session start accepted: %+v err=%v", res, err)
	}
	evs, _, err := p.Events(context.Background(), b.Session, "b1", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	told := slices.Contains(b.Taboo, 20)
	for _, ev := range evs {
		told = told || (ev.Type == EvTaboo && slices.Contains(ev.Words, 20))
	}
	if !told {
		t.Fatalf("session started during the promotion never heard of it: taboo %v, events %v", b.Taboo, evs)
	}
}

// calledFrom reports whether the calling goroutine's stack holds, caller
// first, functions whose names end in each of names.
func calledFrom(names ...string) bool {
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	want := len(names) - 1
	for want >= 0 {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "."+names[want]) {
			want--
		}
		if !more {
			break
		}
	}
	return want < 0
}

func TestRoundTimeoutAndLingerExpiry(t *testing.T) {
	p := newPlane(t, func(c *Config) {
		c.RoundTimeout = 30 * time.Millisecond
		c.EndLinger = 30 * time.Millisecond
	})
	info, _ := joinPair(t, p, "t1", "t2")
	// Long-poll across the deadline: the sweeper must end the round.
	evs, done, err := p.Events(context.Background(), info.Session, "t1", 1, time.Second)
	if err != nil || !done {
		t.Fatalf("Events: done=%v err=%v", done, err)
	}
	last := evs[len(evs)-1]
	if last.Type != EvEnd || last.Reason != EndTimeout {
		t.Fatalf("last event = %+v", last)
	}
	if st := p.Stats(); st.Open != 0 || st.Timeouts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// After the linger, the session is swept out entirely.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, _, err = p.Events(context.Background(), info.Session, "t1", 0, 0)
		if errors.Is(err, ErrUnknown) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finished session never swept out")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := p.Stats(); st.Resident != 0 {
		t.Fatalf("Resident = %d after linger", st.Resident)
	}
}

func TestPassAndLeave(t *testing.T) {
	p := newPlane(t, nil)
	info, _ := joinPair(t, p, "p1", "p2")
	if done, err := p.Pass(info.Session, "p1"); err != nil || done {
		t.Fatalf("single pass ended the round: done=%v err=%v", done, err)
	}
	if done, err := p.Pass(info.Session, "p2"); err != nil || !done {
		t.Fatalf("double pass: done=%v err=%v", done, err)
	}
	// Leave path on a second pair.
	info2, _ := joinPair(t, p, "q1", "q2")
	if err := p.Leave(info2.Session, "q1"); err != nil {
		t.Fatal(err)
	}
	evs, done, err := p.Events(context.Background(), info2.Session, "q2", 0, 0)
	if err != nil || !done {
		t.Fatalf("partner events: done=%v err=%v", done, err)
	}
	if last := evs[len(evs)-1]; last.Reason != EndLeft {
		t.Fatalf("end reason = %q", last.Reason)
	}
	if st := p.Stats(); st.Passes != 1 || st.Abandons != 1 || st.Open != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGuessValidation(t *testing.T) {
	p := newPlane(t, nil)
	info, _ := joinPair(t, p, "v1", "v2")
	id := info.Session
	if _, err := p.Guess(ID(999), "v1", 1); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown session: %v", err)
	}
	if _, err := p.Guess(id, "stranger", 1); !errors.Is(err, ErrNotPlayer) {
		t.Fatalf("stranger guess: %v", err)
	}
	// Out-of-lexicon words are rejected before they can index the
	// lexicon (they arrive unchecked off the wire).
	if _, err := p.Guess(id, "v1", -1); !errors.Is(err, ErrBadWord) {
		t.Fatalf("negative word: %v", err)
	}
	if _, err := p.Guess(id, "v1", 1<<30); !errors.Is(err, ErrBadWord) {
		t.Fatalf("huge word: %v", err)
	}
	if res, err := p.Guess(id, "v1", 1); err != nil || !res.Accepted {
		t.Fatalf("guess 1: %+v err=%v", res, err)
	}
	// A refused guess uses one of the seat's guesses.
	if res, err := p.Guess(id, "v1", 1); err != nil || res.Accepted || res.Reason != "repeat" || res.Guesses != 2 {
		t.Fatalf("repeat guess: %+v err=%v", res, err)
	}
	for w := 100; w < 100+agree.MaxGuesses-2; w++ {
		if res, err := p.Guess(id, "v1", w); err != nil || !res.Accepted {
			t.Fatalf("guess %d: %+v err=%v", w, res, err)
		}
	}
	if res, err := p.Guess(id, "v1", 2); err != nil || res.Accepted || res.Reason != "limit" || res.Guesses != agree.MaxGuesses {
		t.Fatalf("guess past agree.MaxGuesses: %+v err=%v", res, err)
	}
	// Partner exhausts too without matching: round ends "exhausted".
	for w := 200; w < 200+agree.MaxGuesses-1; w++ {
		if _, err := p.Guess(id, "v2", w); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Guess(id, "v2", 5)
	if err != nil || !res.Done {
		t.Fatalf("exhausting guess: %+v err=%v", res, err)
	}
	if _, err := p.Guess(id, "v2", 6); !errors.Is(err, ErrEnded) {
		t.Fatalf("guess after end: %v", err)
	}
	if st := p.Stats(); st.Exhausted != 1 || st.Open != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEventsLongPollWakesOnGuess(t *testing.T) {
	p := newPlane(t, nil)
	info, _ := joinPair(t, p, "l1", "l2")
	go func() {
		time.Sleep(30 * time.Millisecond)
		_, _ = p.Guess(info.Session, "l2", 12)
	}()
	start := time.Now()
	// Cursor 1 skips the start event, so this must block until the guess.
	evs, _, err := p.Events(context.Background(), info.Session, "l1", 1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Type != EvPartnerGuess || evs[0].Seat != info.Seat^1 {
		t.Fatalf("long-poll events = %+v", evs)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("long-poll returned before the guess was made")
	}
	// An expired wait with no events returns promptly and empty.
	evs, done, err := p.Events(context.Background(), info.Session, "l1", evs[0].Seq+1, 20*time.Millisecond)
	if err != nil || done || len(evs) != 0 {
		t.Fatalf("empty poll: evs=%v done=%v err=%v", evs, done, err)
	}
}

// TestEventsUnblockOnClose pins that Close wakes parked long-polls: HTTP
// shutdown waits for in-flight handlers, so a stranded poll would stall
// the drain for its full wait.
func TestEventsUnblockOnClose(t *testing.T) {
	p := newPlane(t, nil)
	info, _ := joinPair(t, p, "u1", "u2")
	errCh := make(chan error, 1)
	go func() {
		_, _, err := p.Events(context.Background(), info.Session, "u1", 1, time.Minute)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	p.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("poll after close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("long-poll did not unblock on Close")
	}
}

func TestJoinContextCancel(t *testing.T) {
	p := newPlane(t, func(c *Config) { c.MatchTimeout = 10 * time.Second })
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, err := p.Join(ctx, "zoe"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled join: %v", err)
	}
	if p.mm.Waiting() != 0 {
		t.Fatalf("cancelled player still pooled: Waiting = %d", p.mm.Waiting())
	}
	// Double enqueue while waiting is refused.
	go func() { _, _ = p.Join(context.Background(), "dup") }()
	deadline := time.Now().Add(2 * time.Second)
	for p.mm.Waiting() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := p.Join(context.Background(), "dup"); !errors.Is(err, match.ErrAlreadyWaiting) {
		t.Fatalf("double join: %v", err)
	}
}

func TestJoinValidation(t *testing.T) {
	p := newPlane(t, nil)
	if _, err := p.Join(context.Background(), ""); !errors.Is(err, ErrNoPlayer) {
		t.Fatalf("empty player: %v", err)
	}
	p.Close()
	if _, err := p.Join(context.Background(), "late"); !errors.Is(err, ErrClosed) {
		t.Fatalf("join after close: %v", err)
	}
}
