// Package session is the live session plane for paired GWAPs: it turns
// the two-player machinery (match.Matchmaker, match.ReplayStore,
// agree.OutputRound, agree.TabooTracker) into a server-side real-time
// service the dispatch layer exposes over HTTP.
//
// The life of a session:
//
//	join ──► matchmaker ──paired──► live session (two strangers)
//	            │
//	            └─no partner within MatchTimeout──► replay session
//	               (pre-recorded partner from the replay store, per the
//	                paper; ErrNoPartner when no transcript exists yet)
//
// A session is one ESP output-agreement round, agree.OutputRound: players
// submit guesses, the round matches them server-side, taboo promotions
// from concurrent games on the same item land mid-round, and the round
// ends on agreement, double pass, guess exhaustion, a player leaving, or
// the round clock. The rule set is the deployed game's, which no Config
// field changes: agree.MaxGuesses guesses a seat, a word taboo at
// agree.DefaultPromoteAfter agreements on its item, an item retired at
// agree.DefaultRetireAt taboo words. Completed live games are recorded
// into the replay store (feeding future lone players), every game's play
// is counted in the plane's GWAP metrics (Plane.GWAP), and every game is
// reported through Config.OnResult, which the dispatch bridge records as
// one done task per agreement on the task plane.
//
// The plane is two layers. Core holds every session, the taboo tracker,
// the replay store, the item stream and matchmaking, and is given the
// time: it reads no clock, and one min-heap of deadlines (match fallback,
// round clock, linger, long-poll wake-up) is fired by Advance(now). So a
// test steps it on a fake clock, and games.ESP plays its simulated rounds
// through the same code. Plane is the shell that owns the wall clock: the
// only session code that reads time.Now, it serializes Core behind one
// mutex, parks Join and the event long-polls and wakes them, and keeps
// one time.Timer armed at the heap's next deadline. The lock order is
// Plane.mu, then the replay store's and the matchmaker's own locks;
// OnResult runs after mu is released.
//
// Partner events are delivered by long-polling Events with a cursor. In
// the ESP tradition a partner's guess content is hidden — the event says
// a guess happened, not what it was — so the event stream cannot be used
// to copy the partner; only the agreed word is revealed.
package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"humancomp/internal/agree"
	"humancomp/internal/metrics"
	"humancomp/internal/rng"
	"humancomp/internal/vocab"
)

// Errors returned by plane operations.
var (
	ErrClosed    = errors.New("session: plane closed")
	ErrUnknown   = errors.New("session: unknown session")
	ErrNotPlayer = errors.New("session: player not part of this session")
	ErrEnded     = errors.New("session: round already ended")
	ErrNoPartner = errors.New("session: no partner arrived and no replay transcript is available")
	ErrNoPlayer  = errors.New("session: player id required")
	ErrBadWord   = errors.New("session: word outside the lexicon")
	ErrRetired   = errors.New("session: every item is fully labeled")
)

// ID identifies one session.
type ID uint64

// Mode distinguishes live two-player sessions from replayed ones.
type Mode int

const (
	// Live pairs two concurrent strangers.
	Live Mode = iota
	// Replay pairs a lone player with a pre-recorded transcript.
	Replay
)

// String returns "live" or "replay".
func (m Mode) String() string {
	if m == Replay {
		return "replay"
	}
	return "live"
}

// Event types delivered on the per-session stream.
const (
	// EvStart opens every stream: the session exists and the round runs.
	EvStart = "start"
	// EvPartnerGuess says the seat entered a guess the round accepted. The
	// word is deliberately omitted: ESP partners cannot see each other's
	// guesses.
	EvPartnerGuess = "partner_guess"
	// EvAgreed reveals the agreed word; the round is over.
	EvAgreed = "agreed"
	// EvTaboo carries words promoted to taboo mid-round by concurrent
	// agreements on the same item.
	EvTaboo = "taboo"
	// EvPass says the seat gave up on the round.
	EvPass = "pass"
	// EvPartnerDone says a replayed partner's transcript is exhausted.
	EvPartnerDone = "partner_done"
	// EvEnd closes every stream, with the reason the round ended.
	EvEnd = "end"
)

// Round-end reasons carried by EvEnd and Result.Reason: the round's own
// (agree.EndAgreed, agree.EndPassed, agree.EndExhausted), and the two the
// plane adds.
const (
	EndTimeout = "timeout"
	EndLeft    = "partner_left"
)

// Event is one entry on a session's ordered stream. Seq starts at 1 and
// is dense; a client resumes with the last Seq it saw as the cursor.
type Event struct {
	Seq    int    `json:"seq"`
	Type   string `json:"type"`
	Seat   int    `json:"seat"` // acting seat; -1 for system events
	Word   int    `json:"word,omitempty"`
	Words  []int  `json:"words,omitempty"`
	Reason string `json:"reason,omitempty"`
	AtMs   int64  `json:"at_ms"` // milliseconds since session start
}

// Result is one finished session, delivered to Config.OnResult outside
// all plane locks.
type Result struct {
	Session  ID
	Item     int
	Mode     Mode
	Players  [2]string // seat 1 is "replay:<name>" in replay mode
	Agreed   bool
	Word     int // the agreed word; -1 when !Agreed
	Reason   string
	Wait     [2]time.Duration // each seat's matchmaking wait; 0 for a recorded seat
	Duration time.Duration
}

// JoinInfo is what a player learns when their session starts.
type JoinInfo struct {
	Session  ID            `json:"session"`
	Seat     int           `json:"seat"`
	Mode     string        `json:"mode"`
	Item     int           `json:"item"`
	Taboo    []int         `json:"taboo,omitempty"`
	Deadline time.Duration `json:"deadline"` // time left on the round clock
	Wait     time.Duration `json:"wait"`     // time spent matchmaking
}

// GuessResult is the outcome of one guess submission.
type GuessResult struct {
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"` // "taboo" | "repeat" | "limit"
	Matched  bool   `json:"matched"`
	Word     int    `json:"word,omitempty"` // agreed word when Matched
	Guesses  int    `json:"guesses"`        // caller's guesses used so far, refused ones included
	Done     bool   `json:"done"`
}

// Config parameterizes a Plane. The zero value of every field except
// Lexicon and Items is usable.
type Config struct {
	// MatchTimeout is how long Join waits for a live partner before
	// falling back to replay mode. Default 2s.
	MatchTimeout time.Duration
	// RoundTimeout is the round clock; deadlines are monotonic (Go's
	// time.Time carries a monotonic reading). Default 60s.
	RoundTimeout time.Duration
	// Seed fixes the matchmaker, replay-store and item randomness.
	Seed uint64
	// Lexicon canonicalizes words for matching and taboo. Required.
	Lexicon *vocab.Lexicon
	// Items is how many items, 0..Items-1, live pairings play on; each
	// pairing gets an unretired one drawn from the seeded source. Required.
	Items int
	// OnResult receives every finished session, outside all plane locks.
	// Optional.
	OnResult func(Result)
}

// endLinger keeps a finished session readable, so both players can
// collect its last events before it is freed.
const endLinger = 10 * time.Second

// Plane is the live session service: Core on the wall clock. Safe for
// concurrent use.
//
// The plane counts play in one metrics.GWAP, by visit: one Join, from the
// join to the end of the round it led to. Each live seat of a finished
// round is charged its matchmaking wait plus the round's duration (a
// replay round's recorded seat is no one's play), and an agreement is one
// output. A Join that ends without a round — ErrNoPartner, a cancelled
// context, Close — is charged its wait and counts no output.
type Plane struct {
	onResult func(Result)
	gwap     *metrics.GWAP

	mu      sync.Mutex // guards core and everything below
	core    *Core
	waiters map[string]chan Start // players parked in Join
	polls   map[ID]chan struct{}  // closed to wake a session's parked long-polls
	timer   *time.Timer           // fires at the heap's next deadline
	closed  bool
	stop    chan struct{}  // closed by Close, releasing every parked call
	firing  sync.WaitGroup // a timer firing still reporting its rounds
}

// New returns a Plane; callers must Close it.
func New(cfg Config) (*Plane, error) {
	if cfg.Lexicon == nil {
		return nil, errors.New("session: Config.Lexicon is required")
	}
	if cfg.Items <= 0 {
		return nil, errors.New("session: Config.Items is required")
	}
	if cfg.MatchTimeout <= 0 {
		cfg.MatchTimeout = 2 * time.Second
	}
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = 60 * time.Second
	}
	src := rng.New(cfg.Seed + 1)
	c := NewCore(cfg.Lexicon, cfg.Items, agree.Exact, agree.DefaultPromoteAfter, agree.DefaultRetireAt, src.Split(), src)
	c.matchTimeout, c.roundTimeout, c.linger = cfg.MatchTimeout, cfg.RoundTimeout, endLinger
	p := &Plane{
		onResult: cfg.OnResult,
		gwap:     metrics.NewGWAP(),
		core:     c,
		waiters:  make(map[string]chan Start),
		polls:    make(map[ID]chan struct{}),
		stop:     make(chan struct{}),
	}
	c.wake = p.wakeLocked
	p.timer = time.AfterFunc(time.Hour, p.fire)
	p.timer.Stop()
	return p, nil
}

// Close stops the timer, releases every parked Join and long-poll with
// ErrClosed, and returns once a timer firing under way has reported its
// rounds. Open sessions stay readable but no longer time out; the
// dispatch server closes its listener first, so nothing arrives after
// Close in practice.
func (p *Plane) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		p.timer.Stop()
		close(p.stop)
	}
	p.mu.Unlock()
	p.firing.Wait()
}

// fire runs when the timer does: it advances the core to now, seats the
// players whose match fell back, and reports the rounds that timed out.
func (p *Plane) fire() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	starts, ended := p.core.Advance(time.Now())
	p.seatLocked(starts)
	p.armLocked()
	p.firing.Add(1) // under mu, so a Close that follows waits for it
	p.mu.Unlock()
	defer p.firing.Done()
	for i := range ended {
		p.report(&ended[i])
	}
}

// armLocked points the timer at the heap's next deadline. Caller holds
// mu; every call that can add a deadline ends with it.
func (p *Plane) armLocked() {
	if h := p.core.deadlines; len(h) > 0 && !p.closed {
		p.timer.Reset(time.Until(h[0].at))
	}
}

// wakeLocked releases the long-polls parked on session id. Caller holds
// mu; the core calls it.
func (p *Plane) wakeLocked(id ID) {
	if ch := p.polls[id]; ch != nil {
		close(ch)
		delete(p.polls, id)
	}
}

// seatLocked hands each start to the player parked in Join for it.
// Caller holds mu.
func (p *Plane) seatLocked(starts []Start) {
	for _, st := range starts {
		if ch := p.waiters[st.Player]; ch != nil {
			delete(p.waiters, st.Player)
			ch <- st
		}
	}
}

// report counts a finished round's play and delivers it to OnResult; nil
// is a round that has not ended. Called without mu.
func (p *Plane) report(r *Result) {
	if r == nil {
		return
	}
	live := 2
	if r.Mode == Replay {
		live = 1
	}
	for seat := range live {
		p.gwap.RecordSession(r.Players[seat], r.Wait[seat]+r.Duration)
	}
	if r.Agreed {
		p.gwap.RecordOutputs(1)
	}
	if p.onResult != nil {
		p.onResult(*r)
	}
}

// seated returns the start handed to a parked Join; one that found no
// partner ends the visit there, charged its wait.
func (p *Plane) seated(st Start, joined time.Time) (JoinInfo, error) {
	if st.Err != nil {
		p.gwap.RecordSession(st.Player, time.Since(joined))
	}
	return st.Info, st.Err
}

// Join enters player into the matchmaker and blocks until a session
// starts: paired with a live stranger, or — when no partner arrives
// within MatchTimeout — against a replayed transcript. ErrNoPartner means
// the deadline passed and no transcript qualifies; the caller should
// retry later. ErrRetired means every item is fully labeled. Cancelling
// ctx withdraws the player cleanly.
func (p *Plane) Join(ctx context.Context, player string) (JoinInfo, error) {
	if player == "" {
		return JoinInfo{}, ErrNoPlayer
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return JoinInfo{}, ErrClosed
	}
	joined := time.Now()
	starts, err := p.core.Join(joined, player)
	if err != nil {
		p.mu.Unlock()
		return JoinInfo{}, err
	}
	if len(starts) > 0 {
		// Paired on arrival with a partner parked here.
		p.seatLocked(starts[:1])
		p.armLocked()
		p.mu.Unlock()
		return starts[1].Info, nil
	}
	seated := make(chan Start, 1)
	p.waiters[player] = seated
	p.armLocked()
	p.mu.Unlock()
	select {
	case st := <-seated:
		return p.seated(st, joined)
	case <-ctx.Done():
	case <-p.stop:
	}
	p.mu.Lock()
	if _, waiting := p.waiters[player]; !waiting {
		// A start won the race and is already buffered.
		p.mu.Unlock()
		return p.seated(<-seated, joined)
	}
	delete(p.waiters, player)
	p.core.Withdraw(player)
	p.mu.Unlock()
	p.gwap.RecordSession(player, time.Since(joined))
	if err := ctx.Err(); err != nil {
		return JoinInfo{}, err
	}
	return JoinInfo{}, ErrClosed
}

// Guess submits one guess for player; see Core.Guess. Non-players are
// refused with ErrNotPlayer. A negative word is
// refused with ErrBadWord: over the wire a word is a lexicon ID, not an
// empty beat.
func (p *Plane) Guess(id ID, player string, word int) (GuessResult, error) {
	if word < 0 {
		return GuessResult{}, ErrBadWord
	}
	var res GuessResult
	var end *Result
	p.mu.Lock()
	_, seat, err := p.core.seat(id, player)
	if err == nil {
		res, end, err = p.core.Guess(time.Now(), id, seat, word)
	}
	p.armLocked()
	p.mu.Unlock()
	p.report(end)
	return res, err
}

// Pass records player giving up on the round. A live round ends when both
// seats pass; a replay round ends on the lone player's pass.
func (p *Plane) Pass(id ID, player string) (bool, error) {
	p.mu.Lock()
	done, end, err := p.core.Pass(time.Now(), id, player)
	p.armLocked()
	p.mu.Unlock()
	p.report(end)
	return done, err
}

// Leave ends the session because player disconnected; the partner gets
// EvEnd with reason "partner_left". Leaving an already finished session
// is a no-op.
func (p *Plane) Leave(id ID, player string) error {
	p.mu.Lock()
	end, err := p.core.Leave(time.Now(), id, player)
	p.armLocked()
	p.mu.Unlock()
	p.report(end)
	return err
}

// Events long-polls the session's stream: it returns every event with
// Seq > after as soon as any exists, waiting up to wait otherwise. done
// reports whether the round has ended — once the caller has drained the
// stream past EvEnd, done with no events means there is nothing left.
func (p *Plane) Events(ctx context.Context, id ID, player string, after int, wait time.Duration) ([]Event, bool, error) {
	until := time.Now().Add(wait)
	for parked := false; ; parked = true {
		p.mu.Lock()
		evs, done, err := p.core.Events(id, player, after)
		if err != nil || len(evs) > 0 || done || !time.Now().Before(until) {
			p.mu.Unlock()
			return evs, done, err
		}
		if !parked {
			p.core.wakeAt(until, id)
			p.armLocked()
		}
		woken := p.polls[id]
		if woken == nil {
			woken = make(chan struct{})
			p.polls[id] = woken
		}
		p.mu.Unlock()
		select {
		case <-woken:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-p.stop:
			// Close() must not strand parked long-polls: HTTP shutdown
			// waits for in-flight handlers, and event waits run up to
			// tens of seconds.
			return nil, false, ErrClosed
		}
	}
}

// Stats is a snapshot of the plane's gauges and counters.
type Stats struct {
	Open            int64   `json:"open"`     // running rounds (the open-session gauge)
	Resident        int64   `json:"resident"` // sessions in memory incl. lingering finished ones
	Waiting         int     `json:"waiting"`  // players pooled in the matchmaker
	OldestWaitMs    int64   `json:"oldest_wait_ms"`
	Live            int64   `json:"live_total"`
	Replay          int64   `json:"replay_total"`
	ReplayRatio     float64 `json:"replay_ratio"`
	Agreements      int64   `json:"agreements"`
	Timeouts        int64   `json:"timeouts"`
	Passes          int64   `json:"passes"`
	Abandons        int64   `json:"abandons"`
	Exhausted       int64   `json:"exhausted"`
	NoPartner       int64   `json:"no_partner"`
	TabooPromotions int64   `json:"taboo_promotions"`
	ReplayStored    int     `json:"replay_stored"`
}

// Stats returns a point-in-time snapshot.
func (p *Plane) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.core.Stats(time.Now())
}

// GWAP returns the plane's play metrics: throughput, ALP and expected
// contribution over the visits counted so far.
func (p *Plane) GWAP() metrics.Report { return p.gwap.Report() }

// MatchWaitHist exposes the matchmaking-latency histogram for the admin
// metrics exposition.
func (p *Plane) MatchWaitHist() *metrics.LatencyHist { return &p.core.matchWait }

// String renders an ID in the decimal form used in URLs.
func (id ID) String() string { return fmt.Sprintf("%d", uint64(id)) }
