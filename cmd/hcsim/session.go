package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"humancomp/internal/dispatch"
	"humancomp/internal/metrics"
	"humancomp/internal/session"
)

// sessionWordSpan bounds guessed word IDs so any server lexicon of at
// least this size accepts them (hcservd's default has 2000 words).
const sessionWordSpan = 256

// runSession drives a live hcservd's session plane (-sessions on the
// server) with a crowd of concurrent players. Each player joins
// matchmaking, plays an ESP round to agreement with whoever they were
// paired with — or with a replayed partner when no stranger shows up —
// and rejoins for the next round. Partner-message latency (a guess to
// the partner observing it over the event long-poll) is measured from
// seat 1 of every live pairing.
//
// The run fails when a join (other than a 503 "no partner yet") or an
// event poll errored, or when no round reached agreement.
func runSession(url string, players, rounds int, seed uint64) (*sessionTally, error) {
	client := dispatch.NewClientWith(url, nil, dispatch.ClientOptions{Trace: true})
	if !client.Healthy() {
		return nil, fmt.Errorf("no healthy service at %s (start cmd/hcservd -sessions first)", url)
	}

	tally := &sessionTally{}
	var wg sync.WaitGroup
	start := time.Now()
	for p := 0; p < players; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			name := fmt.Sprintf("sim-%d-%04d", seed, p)
			for r := 0; r < rounds; r++ {
				tally.playRound(client, name)
			}
		}(p)
	}
	wg.Wait()

	fmt.Printf("players=%d rounds=%d wall=%s\n", players, rounds, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  live rounds:     %d\n", tally.live.Load())
	fmt.Printf("  replay rounds:   %d\n", tally.replays.Load())
	fmt.Printf("  agreements:      %d\n", tally.agreed.Load())
	fmt.Printf("  errors:          %d\n", tally.errs.Load())
	if sum := tally.hist.Summary(); sum.Count > 0 {
		fmt.Printf("  partner-message latency: p50=%.2fms p99=%.2fms max=%.2fms (%d samples)\n",
			sum.P50Ms, sum.P99Ms, sum.MaxMs, sum.Count)
	}
	if st, err := client.SessionStats(); err == nil {
		fmt.Printf("  server session stats: %+v\n", st)
	}
	switch {
	case tally.errs.Load() > 0:
		return tally, fmt.Errorf("%d session calls failed", tally.errs.Load())
	case tally.agreed.Load() == 0:
		return tally, errors.New("no session round reached agreement")
	}
	return tally, nil
}

// sessionTally accumulates one runSession's outcomes across its players.
type sessionTally struct {
	agreed, live, replays, errs atomic.Int64
	// hist holds partner-message delivery latencies.
	hist   metrics.LatencyHist
	sendAt sync.Map // session.ID -> time.Time
}

// playRound runs one join-to-end round for one player. The guess
// sequence derives from the session and item, which both partners share,
// so strangers converge on the same word without coordination.
func (tl *sessionTally) playRound(client *dispatch.Client, name string) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	info, err := client.JoinSessionContext(ctx, name)
	if err != nil {
		// 503 = no partner and no transcript yet; everything else is real.
		var api *dispatch.APIError
		if !errors.As(err, &api) || api.Status != http.StatusServiceUnavailable {
			tl.errs.Add(1)
		}
		return
	}
	id := info.Session
	base := (info.Item*31 + int(uint64(id)%97)) % sessionWordSpan
	if info.Mode != "live" {
		tl.replays.Add(1)
		if res, err := client.SessionGuessContext(ctx, id, name, base); err == nil {
			if res.Matched {
				tl.agreed.Add(1)
			} else if !res.Done {
				_, _ = client.SessionPassContext(ctx, id, name)
			}
		}
		return
	}
	tl.live.Add(1)
	// Exactly one seat submits the guess that matches, so counting
	// agreements on res.Matched never double-counts a round.
	if info.Seat == 0 {
		defer tl.sendAt.Delete(id)
		tl.sendAt.Store(id, time.Now())
		if done, matched := guessUntil(ctx, client, id, name, base, true); done {
			if matched {
				tl.agreed.Add(1)
			}
			return
		}
		drainRound(ctx, client, id, name)
		return
	}
	// Seat 1: wait for the partner's first guess, stamp its delivery,
	// then converge.
	after := 1
	for {
		evs, done, err := client.SessionEventsContext(ctx, id, name, after, 10*time.Second)
		if err != nil {
			tl.errs.Add(1)
			return
		}
		seen := false
		for _, ev := range evs {
			after = ev.Seq
			if ev.Type == session.EvPartnerGuess && ev.Seat != info.Seat {
				seen = true
			}
		}
		if seen {
			if t0, ok := tl.sendAt.LoadAndDelete(id); ok {
				tl.hist.Observe(time.Since(t0.(time.Time)))
			}
			break
		}
		if done || ctx.Err() != nil {
			return
		}
	}
	if done, matched := guessUntil(ctx, client, id, name, base, false); done && matched {
		tl.agreed.Add(1)
	}
}

// guessUntil walks the shared word sequence: the first seat parks after
// one accepted guess, the second keeps going until the words match.
func guessUntil(ctx context.Context, client *dispatch.Client, id session.ID, name string, base int, first bool) (done, matched bool) {
	for k := 0; k < 2*sessionWordSpan; k++ {
		res, err := client.SessionGuessContext(ctx, id, name, (base+k)%sessionWordSpan)
		if err != nil {
			return true, false
		}
		if res.Matched {
			return true, true
		}
		if res.Done {
			return true, false
		}
		if res.Reason == "limit" {
			d, _ := client.SessionPassContext(ctx, id, name)
			return d, false
		}
		if res.Accepted && first {
			return false, false
		}
	}
	return false, false
}

// drainRound long-polls until the partner finishes the round; leaves on
// budget expiry so no session outlives its player.
func drainRound(ctx context.Context, client *dispatch.Client, id session.ID, name string) {
	after := 0
	for ctx.Err() == nil {
		evs, done, err := client.SessionEventsContext(ctx, id, name, after, 10*time.Second)
		if err != nil {
			return
		}
		for _, ev := range evs {
			after = ev.Seq
		}
		if done {
			return
		}
	}
	lctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = client.SessionLeaveContext(lctx, id, name)
}
