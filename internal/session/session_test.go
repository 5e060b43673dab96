package session

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"humancomp/internal/agree"
	"humancomp/internal/match"
	"humancomp/internal/metrics"
	"humancomp/internal/rng"
	"humancomp/internal/vocab"
)

// The tests here drive Plane, the wall-clock shell: parking, waking and
// the lock. What the core decides, on any clock, is tested in
// core_test.go on a fake one.

func testLexicon(t testing.TB) *vocab.Lexicon {
	t.Helper()
	// SynonymRate 0 keeps Exact matching fully deterministic.
	return vocab.NewLexicon(vocab.LexiconConfig{Size: 500, ZipfS: 1, SynonymRate: 0, Seed: 1})
}

// newPlane builds a plane with test timings; mutate defaults via fn.
func newPlane(t testing.TB, fn func(*Config)) *Plane {
	t.Helper()
	cfg := Config{
		MatchTimeout: 10 * time.Second,
		RoundTimeout: time.Minute,
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

// until yields until cond holds under the plane's lock, or fails the test
// once gone closes first.
func until(t *testing.T, p *Plane, gone <-chan struct{}, cond func() bool) {
	t.Helper()
	for {
		p.mu.Lock()
		ok := cond()
		p.mu.Unlock()
		if ok {
			return
		}
		select {
		case <-gone:
			t.Fatal("the call returned before it parked")
		default:
			runtime.Gosched()
		}
	}
}

// joinPair pairs a and b: a joins and parks, then b arrives.
func joinPair(t *testing.T, p *Plane, a, b string) (JoinInfo, JoinInfo) {
	t.Helper()
	var infoA JoinInfo
	var errA error
	done := make(chan struct{})
	go func() {
		infoA, errA = p.Join(context.Background(), a)
		close(done)
	}()
	until(t, p, done, func() bool { return p.waiters[a] != nil })
	infoB, errB := p.Join(context.Background(), b)
	<-done
	if errA != nil || errB != nil {
		t.Fatalf("join errors: %v / %v", errA, errB)
	}
	return infoA, infoB
}

// TestJoinDrawsNoItem: the items K live pairings play are K successive
// Pick draws from a fresh item stream on the plane's seed, whatever joins
// come between them. On the second run a lone player joins before each
// pairing and falls back — to ErrNoPartner first, to a replay round after.
func TestJoinDrawsNoItem(t *testing.T) {
	const items, pairings = 1000, 6
	var want []int
	src := rng.New(1 + 1).Split() // New's item stream for Seed 1
	tracker := agree.NewTabooTracker(testLexicon(t), agree.DefaultPromoteAfter, agree.DefaultRetireAt)
	for k := 0; k < pairings; k++ {
		item, _ := tracker.Pick(src, items)
		want = append(want, item)
	}
	for _, lone := range []bool{false, true} {
		p := newPlane(t, func(c *Config) {
			c.Items = items
			c.MatchTimeout = 50 * time.Millisecond
		})
		var got []int
		for k := 0; k < pairings; k++ {
			if lone {
				_, err := p.Join(context.Background(), fmt.Sprintf("lone%d", k))
				if k == 0 && !errors.Is(err, ErrNoPartner) || k > 0 && err != nil {
					t.Fatalf("lone join %d: %v", k, err)
				}
			}
			a, b := fmt.Sprintf("a%d", k), fmt.Sprintf("b%d", k)
			info, _ := joinPair(t, p, a, b)
			got = append(got, info.Item)
			// The pair agrees on a word of its own, so its transcripts
			// feed the replay rounds and no item retires.
			_, _ = p.Guess(info.Session, a, 10+k)
			if res, err := p.Guess(info.Session, b, 10+k); err != nil || !res.Matched {
				t.Fatalf("pair %d did not agree: %+v err=%v", k, res, err)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("lone joins %v: pairings played %v, want the stream's %v", lone, got, want)
		}
	}
}

// TestTimerEndsRounds: the shell's timer fires the core's round clock on
// the wall clock, a parked long-poll hears the round end, and OnResult
// gets the round once the timer's firing releases the lock.
func TestTimerEndsRounds(t *testing.T) {
	results := make(chan Result, 1)
	p := newPlane(t, func(c *Config) {
		c.RoundTimeout = 30 * time.Millisecond
		c.OnResult = func(r Result) { results <- r }
	})
	info, _ := joinPair(t, p, "t1", "t2")
	evs, done, err := p.Events(context.Background(), info.Session, "t1", 1, 5*time.Second)
	if err != nil || !done {
		t.Fatalf("Events: done=%v err=%v", done, err)
	}
	if last := evs[len(evs)-1]; last.Type != EvEnd || last.Reason != EndTimeout {
		t.Fatalf("last event = %+v", last)
	}
	if r := <-results; r.Session != info.Session || r.Reason != EndTimeout {
		t.Fatalf("OnResult saw %+v", r)
	}
	if st := p.Stats(); st.Open != 0 || st.Timeouts != 1 || st.Resident != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestReplayFallbackOnTheWallClock: a lone Join parks until the timer
// fires its match timeout, then returns ErrNoPartner or a replay seat.
func TestReplayFallbackOnTheWallClock(t *testing.T) {
	p := newPlane(t, func(c *Config) { c.MatchTimeout = 20 * time.Millisecond })
	if _, err := p.Join(context.Background(), "carol"); !errors.Is(err, ErrNoPartner) {
		t.Fatalf("join with empty replay store: %v", err)
	}
	p.mu.Lock()
	p.core.replays.Record(match.ReplaySession{Item: 0, Player: "ghost", Words: []int{40, 41}})
	p.mu.Unlock()
	info, err := p.Join(context.Background(), "carol")
	if err != nil || info.Mode != "replay" || info.Wait < 20*time.Millisecond {
		t.Fatalf("replay join: %+v err=%v", info, err)
	}
	if st := p.Stats(); st.NoPartner != 1 || st.Replay != 1 || matchWaits(p) != 1 {
		t.Fatalf("stats = %+v, %g match waits", st, matchWaits(p))
	}
}

// matchWaits is how many joins the plane's match-wait histogram counted:
// its _count sample.
func matchWaits(p *Plane) float64 {
	samples := metrics.PromHistogramSamples(p.MatchWaitHist())
	return samples[len(samples)-1].Value
}

// TestPlaneCountsVisits: the plane's GWAP metrics count visits. An agreed
// live round charges each seat its wait plus the round and is one output;
// a join that finds no partner, or whose caller gives up, is charged its
// wait alone.
func TestPlaneCountsVisits(t *testing.T) {
	results := make(chan Result, 1)
	p := newPlane(t, func(c *Config) { c.OnResult = func(r Result) { results <- r } })
	a, b := joinPair(t, p, "alice", "bob")
	_, _ = p.Guess(a.Session, "alice", 11)
	if res, err := p.Guess(a.Session, "bob", 11); err != nil || !res.Matched {
		t.Fatalf("the pair did not agree: %+v err=%v", res, err)
	}
	r := <-results
	if r.Wait != [2]time.Duration{a.Wait, b.Wait} || b.Wait != 0 {
		t.Fatalf("result waits %v, want the seats' %v and %v", r.Wait, a.Wait, b.Wait)
	}
	g := p.GWAP()
	if g.Sessions != 2 || g.Outputs != 1 || g.Players != 2 {
		t.Fatalf("after one agreed round: %+v, want 2 sessions, 1 output, 2 players", g)
	}
	if want := r.Wait[0] + r.Wait[1] + 2*r.Duration; g.TotalPlayHours < want.Hours() {
		t.Fatalf("total play %vh, want at least %v", g.TotalPlayHours, want)
	}

	const match = 20 * time.Millisecond
	lone := newPlane(t, func(c *Config) { c.MatchTimeout = match })
	if _, err := lone.Join(context.Background(), "carol"); !errors.Is(err, ErrNoPartner) {
		t.Fatalf("lone join: %v", err)
	}
	if g := lone.GWAP(); g.Sessions != 1 || g.Outputs != 0 || g.Players != 1 || g.TotalPlayHours < match.Hours() {
		t.Fatalf("after a join with no partner: %+v, want 1 session of at least %v and no output", g, match)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Join(ctx, "dave"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled join: %v", err)
	}
	if g := p.GWAP(); g.Sessions != 3 || g.Outputs != 1 || g.Players != 3 {
		t.Fatalf("after a cancelled join: %+v, want 3 sessions, 1 output, 3 players", g)
	}
}

// TestTabooPromotionDuringSessionStart: a promotion on an item races the
// start of a new session on it. Starting a session — reading the item's
// taboo set and publishing the session — is one step of the core under
// the plane's lock, so the promotion lands either in the new session's
// initial taboo set or, after it, as an EvTaboo. The new session must
// learn the word either way.
func TestTabooPromotionDuringSessionStart(t *testing.T) {
	for k := 0; k < 20; k++ {
		p := newPlane(t, nil)
		a, _ := joinPair(t, p, "a1", "a2")
		promoted := make(chan struct{})
		go func() {
			defer close(promoted)
			_, _ = p.Guess(a.Session, "a1", 20)
			_, _ = p.Guess(a.Session, "a2", 20)
		}()
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
}

// TestNegativeWordIsBad: over the wire a word is a lexicon ID; a negative
// one is refused, not played as an empty beat.
func TestNegativeWordIsBad(t *testing.T) {
	p := newPlane(t, nil)
	info, _ := joinPair(t, p, "v1", "v2")
	if _, err := p.Guess(info.Session, "v1", -1); !errors.Is(err, ErrBadWord) {
		t.Fatalf("negative word: %v", err)
	}
	if res, err := p.Guess(info.Session, "v1", 1); err != nil || res.Guesses != 1 {
		t.Fatalf("the refused word used a guess: %+v err=%v", res, err)
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

func TestEventsLongPollWakesOnGuess(t *testing.T) {
	p := newPlane(t, nil)
	info, _ := joinPair(t, p, "l1", "l2")
	type poll struct {
		evs []Event
		err error
	}
	polled := make(chan poll, 1)
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		// Cursor 1 skips the start event, so this must park until the guess.
		evs, _, err := p.Events(context.Background(), info.Session, "l1", 1, time.Minute)
		polled <- poll{evs, err}
	}()
	until(t, p, gone, func() bool { return p.polls[info.Session] != nil })
	_, _ = p.Guess(info.Session, "l2", 12)
	got := <-polled
	if got.err != nil || len(got.evs) != 1 || got.evs[0].Type != EvPartnerGuess || got.evs[0].Seat != 1 {
		t.Fatalf("long-poll events = %+v err=%v", got.evs, got.err)
	}
	// An expired wait with no events returns empty, woken by the timer.
	start := time.Now()
	evs, done, err := p.Events(context.Background(), info.Session, "l1", got.evs[0].Seq, 20*time.Millisecond)
	if err != nil || done || len(evs) != 0 || time.Since(start) < 20*time.Millisecond {
		t.Fatalf("empty poll: evs=%v done=%v err=%v after %v", evs, done, err, time.Since(start))
	}
}

// TestEventsUnblockOnClose pins that Close wakes parked long-polls: HTTP
// shutdown waits for in-flight handlers, so a stranded poll would stall
// the drain for its full wait.
func TestEventsUnblockOnClose(t *testing.T) {
	p := newPlane(t, nil)
	info, _ := joinPair(t, p, "u1", "u2")
	errCh := make(chan error, 1)
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		_, _, err := p.Events(context.Background(), info.Session, "u1", 1, time.Minute)
		errCh <- err
	}()
	until(t, p, gone, func() bool { return p.polls[info.Session] != nil })
	p.Close()
	if err := <-errCh; !errors.Is(err, ErrClosed) {
		t.Fatalf("poll after close: %v", err)
	}
}

func TestJoinContextCancel(t *testing.T) {
	p := newPlane(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		_, err := p.Join(ctx, "zoe")
		errCh <- err
	}()
	until(t, p, gone, func() bool { return p.waiters["zoe"] != nil })
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled join: %v", err)
	}
	if st := p.Stats(); st.Waiting != 0 {
		t.Fatalf("cancelled player still pooled: Waiting = %d", st.Waiting)
	}
	// Double enqueue while waiting is refused.
	dup := make(chan struct{})
	go func() {
		defer close(dup)
		_, _ = p.Join(context.Background(), "dup")
	}()
	until(t, p, dup, func() bool { return p.waiters["dup"] != nil })
	if _, err := p.Join(context.Background(), "dup"); !errors.Is(err, match.ErrAlreadyWaiting) {
		t.Fatalf("double join: %v", err)
	}
	// Close releases the parked join.
	p.Close()
	<-dup
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
