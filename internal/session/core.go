package session

import (
	"container/heap"
	"maps"
	"slices"
	"time"

	"humancomp/internal/agree"
	"humancomp/internal/match"
	"humancomp/internal/metrics"
	"humancomp/internal/rng"
	"humancomp/internal/vocab"
)

// Core is the session plane's state: the session table and its per-item
// index, the taboo tracker, the replay store, the item stream,
// matchmaking, and one min-heap of deadlines. It reads no clock — every
// call that can move time is given now — and starts nothing: Advance
// fires the deadlines that are due. It is not safe for concurrent use;
// Plane serializes it behind one lock and gives it the wall clock, and
// games.ESP steps it on a simulated clock.
type Core struct {
	lex     *vocab.Lexicon
	mode    agree.MatchMode
	items   int
	itemSrc *rng.Source
	taboo   *agree.TabooTracker
	replays *match.ReplayStore
	mm      *match.Matchmaker

	// The clock rules, which Plane sets. Left zero, as games.ESP leaves
	// them, a round has no clock and a finished session is freed at once.
	matchTimeout, roundTimeout, linger time.Duration
	// wake, when set, hears of every event appended to a session and of
	// every long-poll wake-up (wakeAt) that comes due.
	wake func(ID)

	nextID    ID
	sess      map[ID]*session
	byItem    map[int][]ID         // sessions per item, for taboo propagation
	joined    map[string]time.Time // waiting players, and when each joined
	deadlines deadlines
	stats     Stats // the counters; Stats fills in the gauges
	matchWait metrics.LatencyHist
}

// replayPerItem bounds stored transcripts per item (reservoir sampled).
const replayPerItem = 8

// NewCore returns a core whose rounds match words by mode, whose taboo
// tracker promotes a word after promoteAfter agreements and retires an
// item at retireAt taboo words, whose live pairings draw their items,
// 0..items-1, from itemSrc, and whose replay store and matchmaker draw
// from replaySrc.
func NewCore(lex *vocab.Lexicon, items int, mode agree.MatchMode, promoteAfter, retireAt int, itemSrc, replaySrc *rng.Source) *Core {
	return &Core{
		lex:     lex,
		mode:    mode,
		items:   items,
		itemSrc: itemSrc,
		taboo:   agree.NewTabooTracker(lex, promoteAfter, retireAt),
		replays: match.NewReplayStore(replaySrc, replayPerItem),
		mm:      match.NewMatchmaker(replaySrc),
		sess:    make(map[ID]*session),
		byItem:  make(map[int][]ID),
		joined:  make(map[string]time.Time),
	}
}

// session is one open or lingering round.
type session struct {
	id       ID
	mode     Mode
	item     int
	players  [2]string
	round    *agree.OutputRound
	start    time.Time
	wait     [2]time.Duration // each seat's matchmaking wait
	deadline time.Time        // the round clock; zero when there is none
	endedAt  time.Time
	events   []Event
}

func (s *session) done() bool { return s.round.Ended() != "" }

// Taboo is the core's taboo tracker.
func (c *Core) Taboo() *agree.TabooTracker { return c.taboo }

// PickItem draws an unretired item from the item stream; ok is false once
// every item has retired.
func (c *Core) PickItem() (int, bool) { return c.taboo.Pick(c.itemSrc, c.items) }

// Partner picks a recorded partner for player from the replay store,
// skipping the player's own transcripts and retired items.
func (c *Core) Partner(player string) (match.ReplaySession, bool) {
	return c.replays.Partner(player, c.taboo.Retired)
}

// A Start is one matchmaking outcome: the player's seat in a session that
// has started, or Err (ErrNoPartner) when the match timed out and no
// recorded partner qualified.
type Start struct {
	Player string
	Info   JoinInfo
	Err    error
}

// Join enters player into matchmaking at now. Paired with a waiting
// stranger, it starts their live session on a drawn item and returns both
// seats, the waiting partner's first; otherwise the player waits, and
// Advance falls back to a recorded partner once MatchTimeout has passed.
// ErrRetired means every item is fully labeled.
func (c *Core) Join(now time.Time, player string) ([]Start, error) {
	if c.taboo.RetiredCount() >= c.items {
		return nil, ErrRetired
	}
	partner, paired, err := c.mm.Enqueue(player)
	if err != nil {
		return nil, err
	}
	if !paired {
		c.joined[player] = now
		heap.Push(&c.deadlines, &deadline{at: now.Add(c.matchTimeout), player: player})
		return nil, nil
	}
	since := c.joined[partner]
	delete(c.joined, partner)
	item, _ := c.PickItem()
	id, _ := c.Open(now, item, [2]string{partner, player}, nil)
	return []Start{
		{Player: partner, Info: c.joinInfo(now, c.sess[id], 0, since)},
		{Player: player, Info: c.joinInfo(now, c.sess[id], 1, now)},
	}, nil
}

// Withdraw takes a waiting player out of matchmaking.
func (c *Core) Withdraw(player string) {
	delete(c.joined, player)
	c.mm.Leave(player)
}

// fallBack ends player's wait once it has lasted MatchTimeout: they play a
// recorded partner, or learn there is none. ok is false when the player
// is no longer waiting, or joined again since the deadline was set.
func (c *Core) fallBack(now time.Time, player string) (st Start, ok bool) {
	since, waiting := c.joined[player]
	if !waiting || since.Add(c.matchTimeout).After(now) {
		return Start{}, false
	}
	c.Withdraw(player)
	rs, found := c.Partner(player)
	if !found {
		c.stats.NoPartner++
		return Start{Player: player, Err: ErrNoPartner}, true
	}
	id, _ := c.Open(now, rs.Item, [2]string{player, "replay:" + rs.Player}, rs.Words)
	return Start{Player: player, Info: c.joinInfo(now, c.sess[id], 0, since)}, true
}

// Open starts a round on item at now between players — a replay round
// when recorded, seat 1's transcript, is set — and returns the session
// and its round. The round is the caller's to read; it is played through
// Guess, Pass and Leave.
func (c *Core) Open(now time.Time, item int, players [2]string, recorded []int) (ID, *agree.OutputRound) {
	c.nextID++
	s := &session{
		id:      c.nextID,
		item:    item,
		players: players,
		round:   agree.NewOutputRound(c.lex, c.mode, c.taboo.TabooFor(item), recorded),
		start:   now,
		// Room for a round that uses every guess: start, guesses, end.
		events: make([]Event, 0, 2*agree.MaxGuesses+2),
	}
	if c.roundTimeout > 0 {
		s.deadline = now.Add(c.roundTimeout)
		heap.Push(&c.deadlines, &deadline{at: s.deadline, id: s.id})
	}
	c.sess[s.id] = s
	c.byItem[item] = append(c.byItem[item], s.id)
	c.stats.Open++
	if recorded != nil {
		s.mode = Replay
		c.stats.Replay++
	} else {
		c.stats.Live++
	}
	c.appendEvent(now, s, Event{Type: EvStart, Seat: -1})
	c.partnerEvents(now, s, len(recorded), 0)
	return s.id, s.round
}

// joinInfo is what seat learns of s at now, having joined at since; s
// keeps the seat's wait for its Result.
func (c *Core) joinInfo(now time.Time, s *session, seat int, since time.Time) JoinInfo {
	wait := now.Sub(since)
	c.matchWait.Observe(wait)
	s.wait[seat] = wait
	return JoinInfo{
		Session:  s.id,
		Seat:     seat,
		Mode:     s.mode.String(),
		Item:     s.item,
		Taboo:    slices.Sorted(maps.Keys(s.round.Taboo())),
		Deadline: s.deadline.Sub(now),
		Wait:     wait,
	}
}

// appendEvent stamps and appends ev and tells wake.
func (c *Core) appendEvent(now time.Time, s *session, ev Event) {
	ev.Seq = len(s.events) + 1
	ev.AtMs = now.Sub(s.start).Milliseconds()
	s.events = append(s.events, ev)
	if c.wake != nil {
		c.wake(s.id)
	}
}

// end closes s, whose round has just ended. An agreement is recorded with
// the taboo tracker, and a promotion reaches the item's other open
// sessions mid-round; a live round's transcripts go to the replay store.
// The session then lingers for its players' last polls, or is freed at
// once when there is no linger.
func (c *Core) end(now time.Time, s *session) *Result {
	reason := s.round.Ended()
	word, agreed := s.round.Agreed()
	if agreed {
		c.appendEvent(now, s, Event{Type: EvAgreed, Seat: -1, Word: word})
		c.stats.Agreements++
		if c.taboo.Record(s.item, word) {
			c.stats.TabooPromotions++
			c.propagateTaboo(now, s.item, word, s.id)
		}
	} else {
		word = -1
	}
	c.appendEvent(now, s, Event{Type: EvEnd, Seat: -1, Reason: reason})
	c.stats.Open--
	switch reason {
	case EndTimeout:
		c.stats.Timeouts++
	case agree.EndPassed:
		c.stats.Passes++
	case EndLeft:
		c.stats.Abandons++
	case agree.EndExhausted:
		c.stats.Exhausted++
	}
	for seat, words := range s.round.Transcripts() {
		c.replays.Record(match.ReplaySession{Item: s.item, Player: s.players[seat], Words: words})
	}
	s.endedAt = now
	if c.linger > 0 {
		heap.Push(&c.deadlines, &deadline{at: now.Add(c.linger), id: s.id})
	} else {
		c.free(s)
	}
	return &Result{
		Session:  s.id,
		Item:     s.item,
		Mode:     s.mode,
		Players:  s.players,
		Agreed:   agreed,
		Word:     word,
		Reason:   reason,
		Wait:     s.wait,
		Duration: now.Sub(s.start),
	}
}

// free forgets a finished session.
func (c *Core) free(s *session) {
	delete(c.sess, s.id)
	c.byItem[s.item] = slices.DeleteFunc(c.byItem[s.item], func(id ID) bool { return id == s.id })
}

// propagateTaboo pushes a freshly promoted taboo word into every other
// open session on the same item, mid-game.
func (c *Core) propagateTaboo(now time.Time, item, word int, from ID) {
	for _, id := range c.byItem[item] {
		if s := c.sess[id]; id != from && !s.done() {
			s.round.AddTaboo(word)
			c.appendEvent(now, s, Event{Type: EvTaboo, Seat: -1, Words: []int{word}})
		}
	}
}

// partnerEvents announces the recorded partner's play since a snapshot of
// it (left words unplayed, entered words entered): one EvPartnerGuess per
// word the round has entered since, and EvPartnerDone once the transcript
// has run out.
func (c *Core) partnerEvents(now time.Time, s *session, left, entered int) {
	if s.mode != Replay {
		return
	}
	for n := len(s.round.Guesses(1)); entered < n; entered++ {
		c.appendEvent(now, s, Event{Type: EvPartnerGuess, Seat: 1})
	}
	if left > 0 && s.round.Left(1) == 0 {
		c.appendEvent(now, s, Event{Type: EvPartnerDone, Seat: 1})
	}
}

// seat finds session id and player's seat in it. The recorded seat of a
// replay round is driven by the round alone, so naming it is ErrNotPlayer.
func (c *Core) seat(id ID, player string) (*session, int, error) {
	s := c.sess[id]
	switch {
	case s == nil:
		return nil, 0, ErrUnknown
	case player == s.players[0]:
		return s, 0, nil
	case player == s.players[1] && s.mode == Live:
		return s, 1, nil
	}
	return nil, 0, ErrNotPlayer
}

// Guess submits one guess for seat at now. Taboo words, repeats, empty
// beats (a negative word) and guesses past agree.MaxGuesses are refused
// in-band (Accepted=false with a reason), as the real game's UI would,
// and still use a guess. Unknown sessions, words outside the lexicon,
// finished rounds and a replay round's recorded seat are errors. The
// Result is the round's when this guess ended it.
func (c *Core) Guess(now time.Time, id ID, seat, word int) (GuessResult, *Result, error) {
	s := c.sess[id]
	switch {
	case s == nil:
		return GuessResult{}, nil, ErrUnknown
	case s.done():
		return GuessResult{Done: true}, nil, ErrEnded
	case word >= c.lex.Size():
		// Canonical indexes by ID without a bounds check.
		return GuessResult{}, nil, ErrBadWord
	}
	left, entered := s.round.Left(1), len(s.round.Guesses(1))
	err := s.round.Guess(seat, word)
	res := GuessResult{Accepted: err == nil, Guesses: agree.MaxGuesses - s.round.Left(seat)}
	refused, isRefusal := err.(agree.Refusal) // the round returns them unwrapped
	switch {
	case isRefusal:
		res.Reason = string(refused)
	case err != nil:
		return GuessResult{}, nil, err
	default:
		c.appendEvent(now, s, Event{Type: EvPartnerGuess, Seat: seat})
	}
	c.partnerEvents(now, s, left, entered)
	if w, ok := s.round.Agreed(); ok {
		res.Matched, res.Word = true, w
	}
	if res.Done = s.done(); !res.Done {
		return res, nil, nil
	}
	return res, c.end(now, s), nil
}

// Pass records player giving up on the round at now. A live round ends
// when both seats pass; a replay round ends on the lone player's pass.
func (c *Core) Pass(now time.Time, id ID, player string) (bool, *Result, error) {
	s, seat, err := c.seat(id, player)
	if err != nil {
		return false, nil, err
	}
	if s.round.Pass(seat) {
		c.appendEvent(now, s, Event{Type: EvPass, Seat: seat})
		if s.done() {
			return true, c.end(now, s), nil
		}
	}
	return s.done(), nil, nil
}

// Leave ends the session at now because player disconnected; the partner
// gets EvEnd with reason "partner_left". Leaving a finished session is a
// no-op.
func (c *Core) Leave(now time.Time, id ID, player string) (*Result, error) {
	s, _, err := c.seat(id, player)
	if err != nil || s.done() {
		return nil, err
	}
	s.round.Stop(EndLeft)
	return c.end(now, s), nil
}

// Events returns a copy of the session's events with Seq > after, and
// whether the round has ended.
func (c *Core) Events(id ID, player string, after int) ([]Event, bool, error) {
	s, _, err := c.seat(id, player)
	if err != nil {
		return nil, false, err
	}
	var evs []Event
	if after = max(after, 0); len(s.events) > after {
		evs = slices.Clone(s.events[after:])
	}
	return evs, s.done(), nil
}

// wakeAt asks for a wake call for session id at at: a parked long-poll's
// expiry.
func (c *Core) wakeAt(at time.Time, id ID) {
	heap.Push(&c.deadlines, &deadline{at: at, id: id})
}

// Advance fires every deadline due at now: a wait that has lasted
// MatchTimeout falls back to a recorded partner (or to ErrNoPartner), a
// round past its clock ends with EndTimeout, a finished session past its
// linger is freed, and a long-poll wake-up is passed to wake. It returns
// the fallbacks and the rounds that ended.
func (c *Core) Advance(now time.Time) (starts []Start, ended []Result) {
	for c.deadlines.Len() > 0 && !c.deadlines[0].at.After(now) {
		d := heap.Pop(&c.deadlines).(*deadline)
		if d.player != "" {
			if st, ok := c.fallBack(now, d.player); ok {
				starts = append(starts, st)
			}
			continue
		}
		s := c.sess[d.id]
		switch {
		case s == nil:
		case !s.done() && !s.deadline.IsZero() && !s.deadline.After(now):
			s.round.Stop(EndTimeout)
			ended = append(ended, *c.end(now, s))
		case s.done() && !s.endedAt.Add(c.linger).After(now):
			c.free(s)
		case c.wake != nil:
			c.wake(s.id)
		}
	}
	return starts, ended
}

// Stats returns the counters and, as of now, the gauges.
func (c *Core) Stats(now time.Time) Stats {
	st := c.stats
	st.Resident = int64(len(c.sess))
	st.Waiting = len(c.joined)
	for _, since := range c.joined {
		st.OldestWaitMs = max(st.OldestWaitMs, now.Sub(since).Milliseconds())
	}
	if n := st.Live + st.Replay; n > 0 {
		st.ReplayRatio = float64(st.Replay) / float64(n)
	}
	st.ReplayStored = c.replays.Size()
	return st
}

// deadline is one entry of the core's heap: a waiting player's match
// fallback (player set), or a session's round clock, linger or long-poll
// wake-up (id set). An entry is never removed early; Advance checks it
// against the current state when it comes due.
type deadline struct {
	at     time.Time
	id     ID
	player string
}

// deadlines is a container/heap min-heap on at.
type deadlines []*deadline

func (h deadlines) Len() int           { return len(h) }
func (h deadlines) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h deadlines) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *deadlines) Push(x any)        { *h = append(*h, x.(*deadline)) }
func (h *deadlines) Pop() any {
	old := *h
	d := old[len(old)-1]
	*h = old[:len(old)-1]
	return d
}
