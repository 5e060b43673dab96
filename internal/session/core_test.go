package session

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"humancomp/internal/agree"
	"humancomp/internal/match"
	"humancomp/internal/rng"
)

// t0 is the fake clock's origin.
var t0 = time.Unix(1_000_000, 0)

// newCore returns a core with the plane's clock rules — a 2s match
// timeout, a 1m round clock and the plane's linger — on items items.
func newCore(t testing.TB, items int) *Core {
	t.Helper()
	c := NewCore(testLexicon(t), items, agree.Exact, agree.DefaultPromoteAfter, agree.DefaultRetireAt, rng.New(1), rng.New(2))
	c.matchTimeout, c.roundTimeout, c.linger = 2*time.Second, time.Minute, endLinger
	return c
}

// pair seats a then b at now: a waits, b arrives and they pair.
func pair(t *testing.T, c *Core, now time.Time, a, b string) (JoinInfo, JoinInfo) {
	t.Helper()
	if starts, err := c.Join(now, a); err != nil || starts != nil {
		t.Fatalf("%s joined an empty pool: %+v err=%v", a, starts, err)
	}
	starts, err := c.Join(now, b)
	if err != nil || len(starts) != 2 || starts[0].Player != a || starts[1].Player != b {
		t.Fatalf("%s did not pair with %s: %+v err=%v", b, a, starts, err)
	}
	return starts[0].Info, starts[1].Info
}

// guessAs is Guess for the seat player holds in session id, as Plane
// plays it.
func (c *Core) guessAs(now time.Time, id ID, player string, word int) (GuessResult, *Result, error) {
	_, seat, err := c.seat(id, player)
	if err != nil {
		return GuessResult{}, nil, err
	}
	return c.Guess(now, id, seat, word)
}

// guess plays one guess at now and fails the test on an error.
func guess(t *testing.T, c *Core, now time.Time, id ID, player string, word int) (GuessResult, *Result) {
	t.Helper()
	res, end, err := c.guessAs(now, id, player, word)
	if err != nil {
		t.Fatalf("%s guess %d: %v", player, word, err)
	}
	return res, end
}

// types lists the event types of evs.
func types(evs []Event) []string {
	var out []string
	for _, ev := range evs {
		out = append(out, ev.Type)
	}
	return out
}

// TestCoreOnFakeClock steps one core through every deadline it keeps:
// a match wait that pairs, a match timeout that finds no recorded partner
// and one that falls back to a replay round, a round that times out, and
// the linger that frees finished sessions. Nothing sleeps.
func TestCoreOnFakeClock(t *testing.T) {
	c := newCore(t, 1)
	if len(c.deadlines) != 0 {
		t.Fatal("a fresh core has a deadline")
	}

	// A lone player's wait falls due at MatchTimeout, not before; with
	// the replay store empty there is nobody at all.
	if starts, err := c.Join(t0, "carol"); err != nil || starts != nil {
		t.Fatalf("carol's join: %+v err=%v", starts, err)
	}
	if next := c.deadlines[0].at; !next.Equal(t0.Add(2 * time.Second)) {
		t.Fatalf("next deadline %v, want the match timeout", next)
	}
	if starts, ended := c.Advance(t0.Add(2*time.Second - 1)); starts != nil || ended != nil {
		t.Fatalf("advance before the match timeout fired %+v %+v", starts, ended)
	}
	starts, _ := c.Advance(t0.Add(2 * time.Second))
	if len(starts) != 1 || starts[0].Player != "carol" || !errors.Is(starts[0].Err, ErrNoPartner) {
		t.Fatalf("match timeout with an empty replay store: %+v", starts)
	}

	// A live round to agreement: alice waits a second for bob.
	now := t0.Add(10 * time.Second)
	if starts, _ := c.Join(now, "alice"); starts != nil {
		t.Fatalf("alice paired on arrival: %+v", starts)
	}
	now = now.Add(time.Second)
	starts, err := c.Join(now, "bob")
	if err != nil || len(starts) != 2 {
		t.Fatalf("bob's join: %+v err=%v", starts, err)
	}
	a, b := starts[0].Info, starts[1].Info
	if a.Session != b.Session || a.Seat != 0 || b.Seat != 1 || a.Mode != "live" || a.Wait != time.Second || b.Wait != 0 || a.Deadline != time.Minute {
		t.Fatalf("pairing: %+v / %+v", a, b)
	}
	live := a.Session
	guess(t, c, now.Add(time.Second), live, "alice", 11)
	res, end := guess(t, c, now.Add(2*time.Second), live, "bob", 11)
	if !res.Matched || !res.Done || end == nil || !end.Agreed || end.Word != 11 || end.Reason != agree.EndAgreed || end.Duration != 2*time.Second {
		t.Fatalf("agreeing guess: %+v, result %+v", res, end)
	}
	evs, done, err := c.Events(live, "alice", 0)
	if want := []string{EvStart, EvPartnerGuess, EvPartnerGuess, EvAgreed, EvEnd}; err != nil || !done || !slices.Equal(types(evs), want) {
		t.Fatalf("events %v done=%v err=%v, want %v", types(evs), done, err, want)
	}
	if at := evs[len(evs)-1].AtMs; at != 2000 {
		t.Fatalf("end event at %dms, want 2000", at)
	}

	// The agreement recorded both transcripts: the next lone player falls
	// back to a replay round once the match timeout passes.
	if starts, _ := c.Join(t0.Add(14*time.Second), "dave"); starts != nil {
		t.Fatalf("dave paired on arrival: %+v", starts)
	}
	starts, _ = c.Advance(t0.Add(16 * time.Second))
	if len(starts) != 1 || starts[0].Err != nil || starts[0].Info.Mode != "replay" || starts[0].Info.Wait != 2*time.Second {
		t.Fatalf("match timeout with a recorded partner: %+v", starts)
	}
	replay := starts[0].Info.Session

	// The finished live session stays readable for its linger, then is
	// freed.
	freed := t0.Add(13*time.Second + endLinger)
	c.Advance(freed.Add(-1))
	if _, _, err := c.Events(live, "alice", 0); err != nil {
		t.Fatalf("live session within its linger: %v", err)
	}
	c.Advance(freed)
	if _, _, err := c.Events(live, "alice", 0); !errors.Is(err, ErrUnknown) {
		t.Fatalf("live session after its linger: %v", err)
	}

	// The replay round runs out its clock.
	if _, ended := c.Advance(t0.Add(76*time.Second - 1)); ended != nil {
		t.Fatalf("round ended before its clock: %+v", ended)
	}
	_, ended := c.Advance(t0.Add(76 * time.Second))
	if len(ended) != 1 || ended[0].Session != replay || ended[0].Reason != EndTimeout || ended[0].Duration != time.Minute {
		t.Fatalf("round clock: %+v", ended)
	}
	if evs, done, _ := c.Events(replay, "dave", 0); !done || evs[len(evs)-1].Reason != EndTimeout {
		t.Fatalf("timed-out round's events: %+v done=%v", evs, done)
	}
	if st := c.Stats(t0.Add(76 * time.Second)); st.Resident != 1 || st.Open != 0 || st.Timeouts != 1 || st.Agreements != 1 || st.NoPartner != 1 {
		t.Fatalf("stats after the timeout: %+v", st)
	}
	c.Advance(t0.Add(76*time.Second + endLinger))
	if st := c.Stats(t0); st.Resident != 0 {
		t.Fatalf("Resident = %d after every linger", st.Resident)
	}
	if len(c.deadlines) != 0 {
		t.Fatalf("deadlines left after everything fired: %v", c.deadlines)
	}
}

// TestJoinedAgainKeepsItsOwnDeadline: a player who withdraws and joins
// again waits a full MatchTimeout from the second join; the first join's
// TestResultCarriesSeatWaits: a round's Result carries each seat's
// matchmaking wait beside its duration. The partner who waited has its
// wait, the seat whose arrival paired them has none, and a replay round's
// recorded seat has none.
func TestResultCarriesSeatWaits(t *testing.T) {
	c := newCore(t, 1)
	a, _ := pair(t, c, t0, "bob", "carol")
	guess(t, c, t0.Add(time.Second), a.Session, "bob", 11)
	_, end := guess(t, c, t0.Add(3*time.Second), a.Session, "carol", 11)
	if end == nil || !end.Agreed || end.Wait != [2]time.Duration{} || end.Duration != 3*time.Second {
		t.Fatalf("a pair that met at once: %+v", end)
	}

	// alice waits 1.5s for dave.
	if starts, _ := c.Join(t0.Add(4*time.Second), "alice"); starts != nil {
		t.Fatalf("alice paired on arrival: %+v", starts)
	}
	starts, err := c.Join(t0.Add(5500*time.Millisecond), "dave")
	if err != nil || len(starts) != 2 || starts[0].Player != "alice" {
		t.Fatalf("dave's join: %+v err=%v", starts, err)
	}
	live := starts[0].Info.Session
	guess(t, c, t0.Add(6*time.Second), live, "alice", 12)
	_, end = guess(t, c, t0.Add(7500*time.Millisecond), live, "dave", 12)
	if end == nil || end.Wait != [2]time.Duration{1500 * time.Millisecond, 0} || end.Duration != 2*time.Second {
		t.Fatalf("alice's round: %+v, want waits [1.5s 0] and a 2s round", end)
	}

	// erin falls back to a recorded partner after the match timeout.
	if starts, _ := c.Join(t0.Add(10*time.Second), "erin"); starts != nil {
		t.Fatalf("erin paired on arrival: %+v", starts)
	}
	starts, _ = c.Advance(t0.Add(12 * time.Second))
	if len(starts) != 1 || starts[0].Err != nil || starts[0].Info.Mode != "replay" {
		t.Fatalf("erin's fallback: %+v", starts)
	}
	_, end, err = c.Pass(t0.Add(13*time.Second), starts[0].Info.Session, "erin")
	if err != nil || end == nil || end.Mode != Replay || end.Wait != [2]time.Duration{2 * time.Second, 0} || end.Duration != time.Second {
		t.Fatalf("erin's replay round: %+v err=%v, want waits [2s 0] and a 1s round", end, err)
	}
}

// deadline fires nothing.
func TestJoinedAgainKeepsItsOwnDeadline(t *testing.T) {
	c := newCore(t, 1)
	_, _ = c.Join(t0, "erin")
	c.Withdraw("erin")
	if st := c.Stats(t0); st.Waiting != 0 {
		t.Fatalf("Waiting = %d after Withdraw", st.Waiting)
	}
	_, _ = c.Join(t0.Add(time.Second), "erin")
	if starts, _ := c.Advance(t0.Add(2 * time.Second)); starts != nil {
		t.Fatalf("the withdrawn join's deadline fired: %+v", starts)
	}
	if st := c.Stats(t0.Add(2 * time.Second)); st.Waiting != 1 || st.OldestWaitMs != 1000 {
		t.Fatalf("stats while waiting: %+v", st)
	}
	if starts, _ := c.Advance(t0.Add(3 * time.Second)); len(starts) != 1 {
		t.Fatalf("the second join's deadline: %+v", starts)
	}
	if st := c.Stats(t0.Add(3 * time.Second)); st.Waiting != 0 || st.OldestWaitMs != 0 {
		t.Fatalf("stats after the fallback: %+v", st)
	}
}

func TestLivePairingAndAgreement(t *testing.T) {
	c := newCore(t, 1)
	infoA, infoB := pair(t, c, t0, "alice", "bob")
	if infoA.Session != infoB.Session || infoA.Seat == infoB.Seat || infoA.Mode != "live" || infoB.Mode != "live" {
		t.Fatalf("pairing: %+v / %+v", infoA, infoB)
	}
	if infoA.Item != 0 || infoB.Item != 0 {
		t.Fatalf("items = %d / %d", infoA.Item, infoB.Item)
	}
	id := infoA.Session

	// Alice guesses 10 and 11; Bob answers 11: agreement.
	for _, w := range []int{10, 11} {
		if res, _ := guess(t, c, t0, id, "alice", w); !res.Accepted {
			t.Fatalf("alice guess %d: %+v", w, res)
		}
	}
	res, end := guess(t, c, t0, id, "bob", 11)
	if !res.Matched || res.Word != 11 || !res.Done {
		t.Fatalf("bob's matching guess: %+v", res)
	}
	if end == nil || !end.Agreed || end.Word != 11 || end.Mode != Live || end.Reason != agree.EndAgreed {
		t.Fatalf("result = %+v", end)
	}

	evs, done, err := c.Events(id, "alice", 0)
	if err != nil || !done {
		t.Fatalf("Events: done=%v err=%v", done, err)
	}
	for i, ev := range evs {
		if ev.Type == EvPartnerGuess && ev.Word != 0 {
			t.Fatalf("partner_guess leaked the word: %+v", ev)
		}
		if ev.Type == EvAgreed && ev.Word != 11 {
			t.Fatalf("agreed event word = %d", ev.Word)
		}
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if want := []string{EvStart, EvPartnerGuess, EvPartnerGuess, EvPartnerGuess, EvAgreed, EvEnd}; !slices.Equal(types(evs), want) {
		t.Fatalf("event types = %v, want %v", types(evs), want)
	}
	st := c.Stats(t0)
	if st.Open != 0 || st.Agreements != 1 || st.Live != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Both transcripts were recorded for future replay partners.
	if st.ReplayStored != 2 {
		t.Fatalf("replay store holds %d transcripts, want 2", st.ReplayStored)
	}
}

// replayJoin seats player against the store's recording at now, through
// a match timeout.
func replayJoin(t *testing.T, c *Core, now time.Time, player string) JoinInfo {
	t.Helper()
	_, _ = c.Join(now, player)
	starts, _ := c.Advance(now.Add(c.matchTimeout))
	if len(starts) != 1 || starts[0].Err != nil {
		t.Fatalf("%s's fallback: %+v", player, starts)
	}
	return starts[0].Info
}

func TestReplayFallback(t *testing.T) {
	c := newCore(t, 1)
	c.replays.Record(match.ReplaySession{Item: 3, Player: "ghost", Words: []int{40, 41}})
	info := replayJoin(t, c, t0, "carol")
	if info.Mode != "replay" || info.Item != 3 || info.Seat != 0 {
		t.Fatalf("replay join info = %+v", info)
	}
	// The recording plays one word before each of carol's guesses; her
	// second guess matches the second word, played after her first.
	if res, _ := guess(t, c, t0, info.Session, "carol", 99); !res.Accepted || res.Matched {
		t.Fatalf("first guess: %+v", res)
	}
	if res, _ := guess(t, c, t0, info.Session, "carol", 41); !res.Matched || res.Word != 41 {
		t.Fatalf("matching guess: %+v", res)
	}
	st := c.Stats(t0)
	if st.Replay != 1 || st.Agreements != 1 || st.ReplayRatio != 1.0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReplayPartnerLosesRefusedWords(t *testing.T) {
	c := newCore(t, 1)
	// The recording opens with a word that has since become taboo. The
	// partner types it before dave's first guess and the round refuses
	// it; it is lost, not retried, so the recording's 51 comes a beat
	// later, after dave's first guess, and is the one partner guess
	// announced. Dave never says 51, so the round runs out of guesses.
	c.replays.Record(match.ReplaySession{Item: 0, Player: "ghost", Words: []int{50, 51}})
	c.Taboo().Record(0, 50)
	info := replayJoin(t, c, t0, "dave")
	if opened := c.sess[info.Session].round.Guesses(1); len(opened) != 0 {
		t.Fatalf("recorded seat entered %v before dave's first guess", opened)
	}
	for k := 0; k < agree.MaxGuesses; k++ {
		if res, _ := guess(t, c, t0, info.Session, "dave", 60+k); !res.Accepted || res.Matched || res.Done != (k == agree.MaxGuesses-1) {
			t.Fatalf("guess %d = %+v", k, res)
		}
	}
	evs, _, _ := c.Events(info.Session, "dave", 0)
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
	c := newCore(t, 1)
	c.replays.Record(match.ReplaySession{Item: 0, Player: "ghost", Words: []int{40, 41, 42}})
	info := replayJoin(t, c, t0, "carol")
	if res, _ := guess(t, c, t0, info.Session, "carol", 7); res.Matched {
		t.Fatalf("carol's guess: %+v", res)
	}
	if res, _, err := c.guessAs(t0, info.Session, "replay:ghost", 7); !errors.Is(err, ErrNotPlayer) {
		t.Fatalf("guess as the recorded seat: %+v err=%v", res, err)
	}
	if _, _, err := c.Pass(t0, info.Session, "replay:ghost"); !errors.Is(err, ErrNotPlayer) {
		t.Fatalf("pass as the recorded seat: %v", err)
	}
	if _, err := c.Leave(t0, info.Session, "replay:ghost"); !errors.Is(err, ErrNotPlayer) {
		t.Fatalf("leave as the recorded seat: %v", err)
	}
	if _, _, err := c.Events(info.Session, "replay:ghost", 0); !errors.Is(err, ErrNotPlayer) {
		t.Fatalf("events as the recorded seat: %v", err)
	}
	if st := c.Stats(t0); st.Open != 1 || st.Agreements != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReplayPartnerExhaustion(t *testing.T) {
	c := newCore(t, 1)
	c.replays.Record(match.ReplaySession{Item: 3, Player: "ghost", Words: []int{60}})
	info := replayJoin(t, c, t0, "erin")
	guess(t, c, t0, info.Session, "erin", 1)
	guess(t, c, t0, info.Session, "erin", 2)
	evs, _, _ := c.Events(info.Session, "erin", 0)
	if !slices.Contains(types(evs), EvPartnerDone) {
		t.Fatalf("no partner_done after exhausting the transcript: %v", evs)
	}
	// The lone player's pass ends a replay round.
	if done, end, err := c.Pass(t0, info.Session, "erin"); err != nil || !done || end == nil || end.Reason != agree.EndPassed {
		t.Fatalf("pass: done=%v result=%+v err=%v", done, end, err)
	}
	if st := c.Stats(t0); st.Passes != 1 || st.Open != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTabooPropagatesAcrossSessions(t *testing.T) {
	c := newCore(t, 1)
	infoA, _ := pair(t, c, t0, "a1", "a2")
	infoB, _ := pair(t, c, t0, "b1", "b2")
	if infoA.Session == infoB.Session {
		t.Fatal("pairs shared a session")
	}
	// Session A agrees on 20; the first agreement promotes it.
	guess(t, c, t0, infoA.Session, "a1", 20)
	if res, _ := guess(t, c, t0, infoA.Session, "a2", 20); !res.Matched {
		t.Fatal("session A did not agree")
	}
	// Session B, same item, mid-round: 20 is now taboo there.
	if res, _ := guess(t, c, t0, infoB.Session, "b1", 20); res.Accepted || res.Reason != "taboo" {
		t.Fatalf("promoted word accepted in concurrent session: %+v", res)
	}
	evs, _, _ := c.Events(infoB.Session, "b1", 0)
	sawTaboo := false
	for _, ev := range evs {
		sawTaboo = sawTaboo || ev.Type == EvTaboo && slices.Equal(ev.Words, []int{20})
	}
	if !sawTaboo {
		t.Fatalf("no taboo event reached the concurrent session: %v", evs)
	}
	if st := c.Stats(t0); st.TabooPromotions != 1 {
		t.Fatalf("TabooPromotions = %d", st.TabooPromotions)
	}
	// A fresh session on the item starts with the word already taboo.
	if infoC, _ := pair(t, c, t0, "c1", "c2"); !slices.Equal(infoC.Taboo, []int{20}) {
		t.Fatalf("new session taboo list = %v", infoC.Taboo)
	}
}

func TestPassAndLeave(t *testing.T) {
	c := newCore(t, 1)
	info, _ := pair(t, c, t0, "p1", "p2")
	if done, _, err := c.Pass(t0, info.Session, "p1"); err != nil || done {
		t.Fatalf("single pass ended the round: done=%v err=%v", done, err)
	}
	if done, _, err := c.Pass(t0, info.Session, "p2"); err != nil || !done {
		t.Fatalf("double pass: done=%v err=%v", done, err)
	}
	// Leave path on a second pair.
	info2, _ := pair(t, c, t0, "q1", "q2")
	if end, err := c.Leave(t0, info2.Session, "q1"); err != nil || end == nil || end.Reason != EndLeft {
		t.Fatalf("leave: %+v err=%v", end, err)
	}
	if end, err := c.Leave(t0, info2.Session, "q2"); err != nil || end != nil {
		t.Fatalf("leaving a finished session: %+v err=%v", end, err)
	}
	evs, done, err := c.Events(info2.Session, "q2", 0)
	if err != nil || !done {
		t.Fatalf("partner events: done=%v err=%v", done, err)
	}
	if last := evs[len(evs)-1]; last.Reason != EndLeft {
		t.Fatalf("end reason = %q", last.Reason)
	}
	if st := c.Stats(t0); st.Passes != 1 || st.Abandons != 1 || st.Open != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGuessValidation(t *testing.T) {
	c := newCore(t, 1)
	info, _ := pair(t, c, t0, "v1", "v2")
	id := info.Session
	if _, _, err := c.guessAs(t0, ID(999), "v1", 1); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown session: %v", err)
	}
	if _, _, err := c.guessAs(t0, id, "stranger", 1); !errors.Is(err, ErrNotPlayer) {
		t.Fatalf("stranger guess: %v", err)
	}
	// A word past the lexicon is refused before it can index it.
	if _, _, err := c.guessAs(t0, id, "v1", 1<<30); !errors.Is(err, ErrBadWord) {
		t.Fatalf("huge word: %v", err)
	}
	if res, _ := guess(t, c, t0, id, "v1", 1); !res.Accepted {
		t.Fatalf("guess 1: %+v", res)
	}
	// A refused guess uses one of the seat's guesses; so does an empty
	// beat, a negative word.
	if res, _ := guess(t, c, t0, id, "v1", 1); res.Accepted || res.Reason != "repeat" || res.Guesses != 2 {
		t.Fatalf("repeat guess: %+v", res)
	}
	if res, _ := guess(t, c, t0, id, "v1", -1); res.Accepted || res.Reason != "empty" || res.Guesses != 3 {
		t.Fatalf("empty beat: %+v", res)
	}
	for w := 100; w < 100+agree.MaxGuesses-3; w++ {
		if res, _ := guess(t, c, t0, id, "v1", w); !res.Accepted {
			t.Fatalf("guess %d: %+v", w, res)
		}
	}
	if res, _ := guess(t, c, t0, id, "v1", 2); res.Accepted || res.Reason != "limit" || res.Guesses != agree.MaxGuesses {
		t.Fatalf("guess past agree.MaxGuesses: %+v", res)
	}
	// Partner exhausts too without matching: round ends "exhausted".
	for w := 200; w < 200+agree.MaxGuesses-1; w++ {
		guess(t, c, t0, id, "v2", w)
	}
	if res, end := guess(t, c, t0, id, "v2", 5); !res.Done || end == nil || end.Reason != agree.EndExhausted {
		t.Fatalf("exhausting guess: %+v result %+v", res, end)
	}
	if _, _, err := c.guessAs(t0, id, "v2", 6); !errors.Is(err, ErrEnded) {
		t.Fatalf("guess after end: %v", err)
	}
	if st := c.Stats(t0); st.Exhausted != 1 || st.Open != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestJoinRetired: once every item has retired, joining is refused.
func TestJoinRetired(t *testing.T) {
	c := newCore(t, 1)
	for w := 1; w <= agree.DefaultRetireAt; w++ {
		for k := 0; k < agree.DefaultPromoteAfter; k++ {
			c.Taboo().Record(0, w)
		}
	}
	if _, err := c.Join(t0, "late"); !errors.Is(err, ErrRetired) {
		t.Fatalf("join with every item retired: %v", err)
	}
}

// BenchmarkAdvanceNothingDue is the lock hold of the timer's wake-up with
// 10 000 resident sessions and nothing due: one look at the heap's top.
func BenchmarkAdvanceNothingDue(b *testing.B) {
	c := newCore(b, 100)
	for k := 0; k < 5000; k++ {
		_, _ = c.Join(t0, fmt.Sprintf("a%d", k))
		_, _ = c.Join(t0, fmt.Sprintf("b%d", k))
	}
	for k := 0; k < 5000; k++ {
		id, _ := c.Open(t0, k%100, [2]string{"x", "y"}, nil)
		_, _ = c.Leave(t0, id, "x")
	}
	if st := c.Stats(t0); st.Resident != 10000 {
		b.Fatalf("Resident = %d", st.Resident)
	}
	now := t0.Add(time.Second)
	for b.Loop() {
		c.Advance(now)
	}
}
