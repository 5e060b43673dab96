package sim

import (
	"time"

	"humancomp/internal/match"
	"humancomp/internal/metrics"
	"humancomp/internal/rng"
	"humancomp/internal/worker"
)

// PairGame is a two-player game as the crowd simulator plays it: play one
// round between a and b, returning how many problem instances it solved and
// how much simulated time it took.
type PairGame interface {
	Play(a, b *worker.Worker) (outputs int, d time.Duration)
}

// SoloGame is single-player (replayed-partner) play: one round for a, or
// ok == false when no recorded material is available.
type SoloGame interface {
	PlaySolo(a *worker.Worker) (outputs int, d time.Duration, ok bool)
}

// The crowd dynamics every run plays.
const (
	// waitTimeout is how long a player waits for a live partner before
	// falling back to solo play (when Solo is set).
	waitTimeout = 30 * time.Second
	// arrivalSpread staggers first arrivals uniformly over this span so
	// the lobby does not start with a thundering herd.
	arrivalSpread = 4 * time.Hour
	// minRoundTime guards against zero-duration rounds when worker think
	// times are zeroed in tests: such a round would schedule the next one
	// at the same virtual instant forever.
	minRoundTime = 5 * time.Second
)

// CrowdConfig parameterizes a crowd run.
type CrowdConfig struct {
	Workers []*worker.Worker
	Game    PairGame
	// Solo enables replayed single-player rounds for players the
	// matchmaker cannot pair within waitTimeout; nil disables them.
	Solo SoloGame
	// Horizon is the simulated span of the run.
	Horizon time.Duration
	// BreakMean is the mean pause before a returning player's next session.
	BreakMean time.Duration
	Seed      uint64
}

// DefaultCrowdConfig returns the crowd dynamics used by the experiments.
func DefaultCrowdConfig(workers []*worker.Worker, game PairGame) CrowdConfig {
	return CrowdConfig{
		Workers:   workers,
		Game:      game,
		Horizon:   24 * time.Hour,
		BreakMean: 6 * time.Hour,
		Seed:      1,
	}
}

// Crowd runs a population against a game and accumulates GWAP metrics.
type Crowd struct {
	cfg  CrowdConfig
	sim  *Simulator
	mm   *match.Matchmaker
	src  *rng.Source
	gwap *metrics.GWAP

	byID      map[string]*worker.Worker
	sessions  map[string]*session
	horizon   time.Time
	start     time.Time
	retention *metrics.Retention
}

type session struct {
	start time.Time
	end   time.Time
}

// NewCrowd builds a crowd run starting at start.
func NewCrowd(cfg CrowdConfig, start time.Time) *Crowd {
	if len(cfg.Workers) == 0 {
		panic("sim: crowd needs at least one worker")
	}
	if cfg.Game == nil {
		panic("sim: crowd needs a game")
	}
	if cfg.Horizon <= 0 {
		panic("sim: horizon must be positive")
	}
	src := rng.New(cfg.Seed)
	c := &Crowd{
		cfg:       cfg,
		sim:       NewSimulator(start),
		mm:        match.NewMatchmaker(src),
		src:       src,
		gwap:      metrics.NewGWAP(),
		byID:      make(map[string]*worker.Worker, len(cfg.Workers)),
		sessions:  make(map[string]*session),
		horizon:   start.Add(cfg.Horizon),
		start:     start,
		retention: metrics.NewRetention(),
	}
	for _, w := range cfg.Workers {
		c.byID[w.ID] = w
	}
	return c
}

// Retention exposes the cohort-retention tracker (visit days are counted
// in simulated days from the crowd's start).
func (c *Crowd) Retention() *metrics.Retention { return c.retention }

// Now returns the crowd's current virtual time, for observers that want to
// timestamp events (e.g. hourly output series).
func (c *Crowd) Now() time.Time { return c.sim.Now() }

// Run simulates the full horizon and returns the final metrics report.
func (c *Crowd) Run() metrics.Report {
	for _, w := range c.cfg.Workers {
		w := w
		delay := time.Duration(c.src.Float64() * float64(arrivalSpread))
		c.sim.After(delay, func() { c.arrive(w) })
	}
	c.sim.Run(c.horizon)
	// Close the books on everyone still in a session at the horizon.
	for id, s := range c.sessions {
		end := c.horizon
		if s.end.Before(end) {
			end = s.end
		}
		if end.After(s.start) {
			c.gwap.RecordSession(id, end.Sub(s.start))
		}
		delete(c.sessions, id)
	}
	return c.gwap.Report()
}

// arrive begins a session for w.
func (c *Crowd) arrive(w *worker.Worker) {
	now := c.sim.Now()
	if !now.Before(c.horizon) {
		return
	}
	if _, inSession := c.sessions[w.ID]; inSession {
		return // already playing (stale return event)
	}
	c.retention.RecordVisit(w.ID, int(now.Sub(c.start)/(24*time.Hour)))
	c.sessions[w.ID] = &session{start: now, end: now.Add(w.SessionLength())}
	c.seekPartner(w)
}

// seekPartner puts w in the lobby or starts play.
func (c *Crowd) seekPartner(w *worker.Worker) {
	now := c.sim.Now()
	s := c.sessions[w.ID]
	if s == nil {
		return
	}
	if !now.Before(s.end) || !now.Before(c.horizon) {
		c.endSession(w)
		return
	}
	partner, ok, err := c.mm.Enqueue(w.ID)
	if err != nil {
		return // already waiting; the pending timeout event will handle it
	}
	if ok {
		c.playBurst(c.byID[partner], w)
		return
	}
	// Waiting. Fall back to solo play after waitTimeout, and give up at
	// session end.
	if c.cfg.Solo != nil {
		c.sim.After(waitTimeout, func() { c.soloFallback(w) })
	}
	c.sim.Schedule(s.end, func() {
		if c.mm.Leave(w.ID) {
			c.endSession(w)
		}
	})
}

// soloFallback switches a still-waiting player to replayed rounds, played
// as a chain of scheduled events so solo players across the crowd proceed
// concurrently in virtual time.
func (c *Crowd) soloFallback(w *worker.Worker) {
	if !c.mm.Leave(w.ID) {
		return // got paired in the meantime
	}
	c.soloRound(w)
}

func (c *Crowd) soloRound(w *worker.Worker) {
	s := c.sessions[w.ID]
	if s == nil {
		return
	}
	now := c.sim.Now()
	if !now.Before(s.end) || !now.Before(c.horizon) {
		c.endSession(w)
		return
	}
	outputs, d, ok := c.cfg.Solo.PlaySolo(w)
	if !ok {
		// Nothing recorded to play against yet: rejoin the lobby.
		c.seekPartner(w)
		return
	}
	c.gwap.RecordOutputs(outputs)
	d = max(d, minRoundTime)
	// Back to the lobby after each solo round: a live partner always
	// beats a recording, so solo play only ever fills matchmaking gaps.
	c.sim.After(d, func() { c.seekPartner(w) })
}

// playBurst starts a chain of round events for a pair, ending when either
// session (or the horizon) ends. Each round's duration is honored by
// scheduling the next round that far in the future, so many pairs play
// concurrently in virtual time.
func (c *Crowd) playBurst(a, b *worker.Worker) {
	sa, sb := c.sessions[a.ID], c.sessions[b.ID]
	if sa == nil || sb == nil {
		return
	}
	end := sa.end
	if sb.end.Before(end) {
		end = sb.end
	}
	if c.horizon.Before(end) {
		end = c.horizon
	}
	c.pairRound(a, b, end)
}

func (c *Crowd) pairRound(a, b *worker.Worker, end time.Time) {
	now := c.sim.Now()
	if !now.Before(end) {
		for _, w := range [2]*worker.Worker{a, b} {
			s := c.sessions[w.ID]
			if s != nil && now.Before(s.end) && now.Before(c.horizon) {
				c.seekPartner(w)
			} else {
				c.endSession(w)
			}
		}
		return
	}
	outputs, d := c.cfg.Game.Play(a, b)
	c.gwap.RecordOutputs(outputs)
	d = max(d, minRoundTime)
	c.sim.After(d, func() { c.pairRound(a, b, end) })
}

// endSession closes w's session, records it, and schedules a possible return.
func (c *Crowd) endSession(w *worker.Worker) {
	s := c.sessions[w.ID]
	if s == nil {
		return
	}
	delete(c.sessions, w.ID)
	now := c.sim.Now()
	end := now
	if s.end.Before(end) {
		end = s.end
	}
	if end.After(s.start) {
		c.gwap.RecordSession(w.ID, end.Sub(s.start))
	}
	if w.Returns() && c.cfg.BreakMean > 0 {
		gap := time.Duration(c.src.Exp(1/c.cfg.BreakMean.Seconds()) * float64(time.Second))
		if now.Add(gap).Before(c.horizon) {
			c.sim.Schedule(now.Add(gap), func() { c.arrive(w) })
		}
	}
}
