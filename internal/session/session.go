// Package session is the live session plane for paired GWAPs: it turns
// the in-process two-player machinery (match.Matchmaker, match.ReplayStore,
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
// A session is one timed ESP output-agreement round, agree.OutputRound,
// whose rules are the ones the simulator's games.ESP plays: players submit
// guesses, the round matches them server-side, taboo promotions from
// concurrent games on the same item land mid-round, and the round ends on
// agreement, double pass, guess exhaustion, a player leaving, or the
// monotonic round deadline. The rule set is the deployed game's, which no
// Config field changes: agree.MaxGuesses guesses a seat, a word taboo at
// agree.DefaultPromoteAfter agreements on its item, an item retired at
// agree.DefaultRetireAt taboo words. The plane adds only the wall clock, the
// event stream and the locking. Completed live games are recorded into
// the replay store (feeding future lone players) and every game is
// reported through Config.OnResult, which the dispatch bridge turns into
// answers on the quality plane.
//
// Partner events are delivered by long-polling Events with a cursor. In
// the ESP tradition a partner's guess content is hidden — the event says
// a guess happened, not what it was — so the event stream cannot be used
// to copy the partner; only the agreed word is revealed.
//
// One mutex, Plane.mu, guards the session table, the per-item index, the
// item source and the taboo tracker, so reading an item's taboo set,
// publishing a session and promoting plus propagating a word are atomic
// with respect to each other. The matchmaker has its own lock, joinMu.
// Picking a replay partner reads the taboo tracker, so it runs under mu
// and takes the replay store's lock inside it. The order is
// joinMu → mu → replay store. Work that calls out (OnResult, transcript
// recording) runs after mu is released.
package session

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"humancomp/internal/agree"
	"humancomp/internal/match"
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
	// EndLinger keeps finished sessions queryable so both players can
	// collect the final events before the sweeper frees the state.
	// Default 10s.
	EndLinger time.Duration
	// SweepEvery is the sweeper cadence for round timeouts and linger
	// expiry. Default 250ms.
	SweepEvery time.Duration
	// Seed fixes the matchmaker and replay-store randomness.
	Seed uint64
	// Lexicon canonicalizes words for matching and taboo. Required.
	Lexicon *vocab.Lexicon
	// Items is how many items, 0..Items-1, live pairings play on; each
	// pairing gets an unretired one drawn from the seeded source. Required.
	Items int
	// OnResult receives every finished session, outside all plane locks.
	// Optional.
	OnResult func(Result)
	// Now overrides the clock; tests use it. Default time.Now.
	Now func() time.Time
}

// session is one open or lingering round. All fields are guarded by
// Plane.mu; the notify channel is replaced (old one closed)
// each time events grows, which is the long-poll broadcast.
type session struct {
	id       ID
	mode     Mode
	item     int
	players  [2]string
	round    *agree.OutputRound
	start    time.Time
	deadline time.Time
	endedAt  time.Time
	events   []Event
	notify   chan struct{}
}

// seatOf returns player's seat, or -1 for anyone else. The recorded seat
// of a replay round is driven by the round alone, so naming it is -1 too.
func (s *session) seatOf(player string) int {
	switch {
	case player == s.players[0]:
		return 0
	case player == s.players[1] && s.mode == Live:
		return 1
	}
	return -1
}

func (s *session) done() bool { return s.round.Ended() != "" }

// waiter is a player blocked in Join waiting for a partner.
type waiter struct {
	ch    chan JoinInfo
	since time.Time
}

// Plane is the live session manager. Safe for concurrent use.
type Plane struct {
	cfg    Config
	nextID atomic.Uint64

	mm      *match.Matchmaker
	replays *match.ReplayStore

	mu     sync.Mutex
	sess   map[ID]*session
	byItem map[int]map[ID]struct{} // sessions per item, for taboo propagation
	taboo  *agree.TabooTracker
	items  *rng.Source // draws the item of each live pairing

	joinMu  sync.Mutex // guards mm's pool and waiters; taken before mu
	waiters map[string]*waiter

	stop    chan struct{}
	stopped sync.WaitGroup
	closed  atomic.Bool

	// Counters behind Stats and the admin /metrics families.
	open       atomic.Int64
	liveTotal  atomic.Int64
	replTotal  atomic.Int64
	agreements atomic.Int64
	timeouts   atomic.Int64
	passes     atomic.Int64
	abandons   atomic.Int64
	exhausted  atomic.Int64
	noPartner  atomic.Int64
	promotions atomic.Int64
	matchWait  metrics.LatencyHist
}

// replayPerItem bounds stored transcripts per item (reservoir sampled).
const replayPerItem = 8

// New returns a running Plane; callers must Close it to stop the sweeper.
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
	if cfg.EndLinger <= 0 {
		cfg.EndLinger = 10 * time.Second
	}
	if cfg.SweepEvery <= 0 {
		cfg.SweepEvery = 250 * time.Millisecond
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	src := rng.New(cfg.Seed + 1)
	pl := &Plane{
		cfg:     cfg,
		mm:      match.NewMatchmaker(src),
		replays: match.NewReplayStore(src, replayPerItem),
		sess:    make(map[ID]*session),
		byItem:  make(map[int]map[ID]struct{}),
		taboo:   agree.NewTabooTracker(cfg.Lexicon, agree.DefaultPromoteAfter, agree.DefaultRetireAt),
		items:   src.Split(),
		waiters: make(map[string]*waiter),
		stop:    make(chan struct{}),
	}
	pl.mm.SetNow(cfg.Now)
	pl.stopped.Add(1)
	go pl.sweep()
	return pl, nil
}

// Close stops the sweeper. Open sessions stay readable but no longer time
// out; the dispatch server closes its listener first, so nothing arrives
// after Close in practice.
func (p *Plane) Close() {
	if p.closed.CompareAndSwap(false, true) {
		close(p.stop)
		p.stopped.Wait()
	}
}

func (p *Plane) now() time.Time { return p.cfg.Now() }

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
	if p.closed.Load() {
		return JoinInfo{}, ErrClosed
	}
	p.mu.Lock()
	_, open := p.taboo.Pick(p.items, p.cfg.Items)
	p.mu.Unlock()
	if !open {
		return JoinInfo{}, ErrRetired
	}
	joinStart := p.now()
	p.joinMu.Lock()
	partner, ok, err := p.mm.Enqueue(player)
	if err != nil {
		p.joinMu.Unlock()
		return JoinInfo{}, err
	}
	if ok {
		// This player is the later arrival: start the live session and
		// hand the blocked partner their seat. The send happens before
		// the waiter entry is deleted and the channel is buffered, so
		// the timeout path below can always drain it after losing the
		// race.
		infoA, infoB := p.startLive(partner, player)
		if w := p.waiters[partner]; w != nil {
			infoA.Wait = p.now().Sub(w.since)
			p.matchWait.Observe(infoA.Wait)
			w.ch <- infoA
			delete(p.waiters, partner)
		}
		p.joinMu.Unlock()
		p.matchWait.Observe(p.now().Sub(joinStart))
		return infoB, nil
	}
	w := &waiter{ch: make(chan JoinInfo, 1), since: joinStart}
	p.waiters[player] = w
	p.joinMu.Unlock()

	timer := time.NewTimer(p.cfg.MatchTimeout)
	defer timer.Stop()
	select {
	case info := <-w.ch:
		return info, nil
	case <-timer.C:
	case <-ctx.Done():
	}
	// Timed out (or cancelled): withdraw, racing a concurrent pairing.
	p.joinMu.Lock()
	if _, stillWaiting := p.waiters[player]; !stillWaiting {
		// A pairing won the race; the JoinInfo is already buffered.
		p.joinMu.Unlock()
		return <-w.ch, nil
	}
	delete(p.waiters, player)
	p.mm.Leave(player)
	p.joinMu.Unlock()
	if err := ctx.Err(); err != nil {
		return JoinInfo{}, err
	}
	// Replay fallback: the paper's pre-recorded partner.
	p.mu.Lock()
	rs, found := p.replays.Partner(player, p.taboo.Retired)
	p.mu.Unlock()
	if !found {
		p.noPartner.Add(1)
		return JoinInfo{}, ErrNoPartner
	}
	p.matchWait.Observe(p.now().Sub(joinStart))
	info := p.startReplay(player, rs)
	info.Wait = p.now().Sub(joinStart)
	return info, nil
}

// startLive creates a live session for seats (a, b) and returns their
// JoinInfos. Called with joinMu held; session creation takes mu.
func (p *Plane) startLive(a, b string) (JoinInfo, JoinInfo) {
	p.mu.Lock()
	// Should the last item have retired since Join checked, the pair
	// plays a retired one: one more label, nothing lost.
	item, _ := p.taboo.Pick(p.items, p.cfg.Items)
	p.mu.Unlock()
	s := p.startSession(Live, item, [2]string{a, b}, nil)
	p.liveTotal.Add(1)
	return p.joinInfo(s, 0), p.joinInfo(s, 1)
}

// startReplay creates a replay session for player against transcript rs.
func (p *Plane) startReplay(player string, rs match.ReplaySession) JoinInfo {
	s := p.startSession(Replay, rs.Item, [2]string{player, "replay:" + rs.Player}, rs.Words)
	p.replTotal.Add(1)
	return p.joinInfo(s, 0)
}

// startSession publishes a session on item; recorded is seat 1's
// transcript in a replay round, nil in a live one.
func (p *Plane) startSession(mode Mode, item int, players [2]string, recorded []int) *session {
	now := p.now()
	s := &session{
		id:       ID(p.nextID.Add(1)),
		mode:     mode,
		item:     item,
		players:  players,
		start:    now,
		deadline: now.Add(p.cfg.RoundTimeout),
		notify:   make(chan struct{}),
	}
	// Reading the taboo set and publishing in byItem under one lock: a
	// promotion on this item lands either in the initial set or, via
	// propagateTabooLocked, as an EvTaboo.
	p.mu.Lock()
	s.round = agree.NewOutputRound(p.cfg.Lexicon, agree.Exact, p.taboo.TabooFor(item), recorded)
	p.sess[s.id] = s
	p.appendEventLocked(s, Event{Type: EvStart, Seat: -1})
	p.partnerEventsLocked(s, len(recorded), 0)
	set := p.byItem[item]
	if set == nil {
		set = make(map[ID]struct{})
		p.byItem[item] = set
	}
	set[s.id] = struct{}{}
	p.mu.Unlock()
	p.open.Add(1)
	return s
}

func (p *Plane) joinInfo(s *session, seat int) JoinInfo {
	// The session is already published: a promotion on its item may be
	// adding to the round's taboo set (propagateTabooLocked, under mu).
	var taboo []int
	p.mu.Lock()
	for w := range s.round.Taboo() {
		taboo = append(taboo, w)
	}
	p.mu.Unlock()
	sort.Ints(taboo)
	return JoinInfo{
		Session:  s.id,
		Seat:     seat,
		Mode:     s.mode.String(),
		Item:     s.item,
		Taboo:    taboo,
		Deadline: s.deadline.Sub(p.now()),
	}
}

// appendEventLocked stamps and appends ev, waking every long-poller.
// Caller holds mu.
func (p *Plane) appendEventLocked(s *session, ev Event) {
	ev.Seq = len(s.events) + 1
	ev.AtMs = p.now().Sub(s.start).Milliseconds()
	s.events = append(s.events, ev)
	close(s.notify)
	s.notify = make(chan struct{})
}

// finish holds the work a round end defers until after mu is released:
// the OnResult callback and transcript recording.
type finish struct {
	res         Result
	transcripts []match.ReplaySession
}

// endLocked closes a session whose round has ended and, on agreement,
// records the word with the taboo tracker, propagating a promotion to the
// item's other sessions. Caller holds mu and runs the returned finish via
// p.finalize after releasing it.
func (p *Plane) endLocked(s *session) *finish {
	reason := s.round.Ended()
	s.endedAt = p.now()
	word, agreed := s.round.Agreed()
	if agreed {
		p.appendEventLocked(s, Event{Type: EvAgreed, Seat: -1, Word: word})
		p.agreements.Add(1)
		if p.taboo.Record(s.item, word) {
			p.promotions.Add(1)
			p.propagateTabooLocked(s.item, word, s.id)
		}
	} else {
		word = -1
	}
	p.appendEventLocked(s, Event{Type: EvEnd, Seat: -1, Reason: reason})
	p.open.Add(-1)
	switch reason {
	case EndTimeout:
		p.timeouts.Add(1)
	case agree.EndPassed:
		p.passes.Add(1)
	case EndLeft:
		p.abandons.Add(1)
	case agree.EndExhausted:
		p.exhausted.Add(1)
	}
	f := &finish{res: Result{
		Session:  s.id,
		Item:     s.item,
		Mode:     s.mode,
		Players:  s.players,
		Agreed:   agreed,
		Word:     word,
		Reason:   reason,
		Duration: s.endedAt.Sub(s.start),
	}}
	for seat, words := range s.round.Transcripts() {
		f.transcripts = append(f.transcripts, match.ReplaySession{Item: s.item, Player: s.players[seat], Words: words})
	}
	return f
}

// endIfOverLocked runs endLocked when the round has just ended by its
// rules; otherwise it returns nil. Caller holds mu.
func (p *Plane) endIfOverLocked(s *session) *finish {
	if !s.done() {
		return nil
	}
	return p.endLocked(s)
}

// finalize runs a round's deferred work outside mu; nil is a round that
// has not ended.
func (p *Plane) finalize(f *finish) {
	if f == nil {
		return
	}
	for _, tr := range f.transcripts {
		p.replays.Record(tr)
	}
	if p.cfg.OnResult != nil {
		p.cfg.OnResult(f.res)
	}
}

// propagateTabooLocked pushes a freshly promoted taboo word into every
// other open session on the same item, mid-game. Caller holds mu.
func (p *Plane) propagateTabooLocked(item, word int, from ID) {
	for id := range p.byItem[item] {
		if s := p.sess[id]; id != from && !s.done() {
			s.round.AddTaboo(word)
			p.appendEventLocked(s, Event{Type: EvTaboo, Seat: -1, Words: []int{word}})
		}
	}
}

// partnerEventsLocked announces the recorded partner's play since a
// snapshot of it (left words unplayed, entered words entered): one
// EvPartnerGuess per word the round has entered since, and EvPartnerDone
// once the transcript has run out. Caller holds mu.
func (p *Plane) partnerEventsLocked(s *session, left, entered int) {
	if s.mode != Replay {
		return
	}
	for n := len(s.round.Guesses(1)); entered < n; entered++ {
		p.appendEventLocked(s, Event{Type: EvPartnerGuess, Seat: 1})
	}
	if left > 0 && s.round.Left(1) == 0 {
		p.appendEventLocked(s, Event{Type: EvPartnerDone, Seat: 1})
	}
}

// seatLocked finds session id and player's seat in it. Caller holds mu.
func (p *Plane) seatLocked(id ID, player string) (*session, int, error) {
	s := p.sess[id]
	if s == nil {
		return nil, 0, ErrUnknown
	}
	seat := s.seatOf(player)
	if seat < 0 {
		return nil, 0, ErrNotPlayer
	}
	return s, seat, nil
}

// Guess submits one guess for player. Taboo words, repeats, and guesses
// past agree.MaxGuesses are rejected in-band (Accepted=false with a
// reason), as the real game's UI would; the first two still use a guess.
// Unknown sessions, non-players, and finished rounds are errors.
func (p *Plane) Guess(id ID, player string, word int) (GuessResult, error) {
	p.mu.Lock()
	s, seat, err := p.seatLocked(id, player)
	switch {
	case err != nil:
		p.mu.Unlock()
		return GuessResult{}, err
	case s.done():
		p.mu.Unlock()
		return GuessResult{Done: true}, ErrEnded
	case word < 0 || word >= p.cfg.Lexicon.Size():
		// Guard the lexicon lookup: word IDs come straight off the wire,
		// and Canonical indexes by ID without a bounds check.
		p.mu.Unlock()
		return GuessResult{}, ErrBadWord
	}
	left, entered := s.round.Left(1), len(s.round.Guesses(1))
	err = s.round.Guess(seat, word)
	res := GuessResult{Accepted: err == nil, Guesses: agree.MaxGuesses - s.round.Left(seat)}
	var refused agree.Refusal
	switch {
	case errors.As(err, &refused):
		res.Reason = string(refused)
	case err != nil:
		p.mu.Unlock()
		return GuessResult{}, err
	default:
		p.appendEventLocked(s, Event{Type: EvPartnerGuess, Seat: seat})
	}
	p.partnerEventsLocked(s, left, entered)
	if w, ok := s.round.Agreed(); ok {
		res.Matched, res.Word = true, w
	}
	fin := p.endIfOverLocked(s)
	res.Done = s.done()
	p.mu.Unlock()
	p.finalize(fin)
	return res, nil
}

// Pass records player giving up on the round. A live round ends when both
// seats pass; a replay round ends on the lone player's pass.
func (p *Plane) Pass(id ID, player string) (bool, error) {
	p.mu.Lock()
	s, seat, err := p.seatLocked(id, player)
	if err != nil {
		p.mu.Unlock()
		return false, err
	}
	var fin *finish
	if s.round.Pass(seat) {
		p.appendEventLocked(s, Event{Type: EvPass, Seat: seat})
		fin = p.endIfOverLocked(s)
	}
	done := s.done()
	p.mu.Unlock()
	p.finalize(fin)
	return done, nil
}

// Leave ends the session because player disconnected; the partner gets
// EvEnd with reason "partner_left". Leaving an already finished session
// is a no-op.
func (p *Plane) Leave(id ID, player string) error {
	p.mu.Lock()
	s, _, err := p.seatLocked(id, player)
	if err != nil {
		p.mu.Unlock()
		return err
	}
	var fin *finish
	if !s.done() {
		s.round.Stop(EndLeft)
		fin = p.endLocked(s)
	}
	p.mu.Unlock()
	p.finalize(fin)
	return nil
}

// Events long-polls the session's stream: it returns every event with
// Seq > after as soon as any exists, waiting up to wait otherwise. done
// reports whether the round has ended — once the caller has drained the
// stream past EvEnd, done with no events means there is nothing left.
func (p *Plane) Events(ctx context.Context, id ID, player string, after int, wait time.Duration) ([]Event, bool, error) {
	deadline := time.Now().Add(wait)
	for {
		p.mu.Lock()
		s, _, err := p.seatLocked(id, player)
		if err != nil {
			p.mu.Unlock()
			return nil, false, err
		}
		if after < 0 {
			after = 0
		}
		if len(s.events) > after {
			evs := make([]Event, len(s.events)-after)
			copy(evs, s.events[after:])
			done := s.done()
			p.mu.Unlock()
			return evs, done, nil
		}
		if s.done() {
			p.mu.Unlock()
			return nil, true, nil
		}
		ch := s.notify
		p.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, false, nil
		}
		timer := time.NewTimer(remain)
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
			return nil, false, nil
		case <-ctx.Done():
			timer.Stop()
			return nil, false, ctx.Err()
		case <-p.stop:
			// Close() must not strand parked long-polls: HTTP shutdown
			// waits for in-flight handlers, and event waits run up to
			// tens of seconds.
			timer.Stop()
			return nil, false, ErrClosed
		}
	}
}

// sweep is the background timer loop: it expires round deadlines and
// frees finished sessions once their linger has passed; finalize work runs
// after mu is released.
func (p *Plane) sweep() {
	defer p.stopped.Done()
	ticker := time.NewTicker(p.cfg.SweepEvery)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
		}
		now := p.now()
		var fins []*finish
		p.mu.Lock()
		for id, s := range p.sess {
			switch {
			case !s.done() && now.After(s.deadline):
				s.round.Stop(EndTimeout)
				fins = append(fins, p.endLocked(s))
			case s.done() && now.Sub(s.endedAt) > p.cfg.EndLinger:
				delete(p.sess, id)
				set := p.byItem[s.item]
				delete(set, id)
				if len(set) == 0 {
					delete(p.byItem, s.item)
				}
			}
		}
		p.mu.Unlock()
		for _, f := range fins {
			p.finalize(f)
		}
	}
}

// Stats is a snapshot of the plane's gauges and counters.
type Stats struct {
	Open            int64                  `json:"open"`     // running rounds (the open-session gauge)
	Resident        int64                  `json:"resident"` // sessions in memory incl. lingering finished ones
	Waiting         int                    `json:"waiting"`  // players pooled in the matchmaker
	OldestWaitMs    int64                  `json:"oldest_wait_ms"`
	Live            int64                  `json:"live_total"`
	Replay          int64                  `json:"replay_total"`
	ReplayRatio     float64                `json:"replay_ratio"`
	Agreements      int64                  `json:"agreements"`
	Timeouts        int64                  `json:"timeouts"`
	Passes          int64                  `json:"passes"`
	Abandons        int64                  `json:"abandons"`
	Exhausted       int64                  `json:"exhausted"`
	NoPartner       int64                  `json:"no_partner"`
	TabooPromotions int64                  `json:"taboo_promotions"`
	ReplayStored    int                    `json:"replay_stored"`
	MatchWait       metrics.LatencySummary `json:"match_wait"`
}

// Stats returns a point-in-time snapshot; counters are atomics.
func (p *Plane) Stats() Stats {
	p.mu.Lock()
	resident := int64(len(p.sess))
	p.mu.Unlock()
	live, repl := p.liveTotal.Load(), p.replTotal.Load()
	var ratio float64
	if live+repl > 0 {
		ratio = float64(repl) / float64(live+repl)
	}
	return Stats{
		Open:            p.open.Load(),
		Resident:        resident,
		Waiting:         p.mm.Waiting(),
		OldestWaitMs:    p.mm.OldestWait().Milliseconds(),
		Live:            live,
		Replay:          repl,
		ReplayRatio:     ratio,
		Agreements:      p.agreements.Load(),
		Timeouts:        p.timeouts.Load(),
		Passes:          p.passes.Load(),
		Abandons:        p.abandons.Load(),
		Exhausted:       p.exhausted.Load(),
		NoPartner:       p.noPartner.Load(),
		TabooPromotions: p.promotions.Load(),
		ReplayStored:    p.replays.Size(),
		MatchWait:       p.matchWait.Summary(),
	}
}

// MatchWaitHist exposes the matchmaking-latency histogram for the admin
// metrics exposition.
func (p *Plane) MatchWaitHist() *metrics.LatencyHist { return &p.matchWait }

// String renders an ID in the decimal form used in URLs.
func (id ID) String() string { return fmt.Sprintf("%d", uint64(id)) }
