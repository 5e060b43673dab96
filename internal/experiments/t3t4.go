package experiments

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"time"

	"humancomp/internal/core"
	"humancomp/internal/dispatch"
	"humancomp/internal/quality"
	"humancomp/internal/rng"
	"humancomp/internal/task"
)

// T3 measures the dispatch service: end-to-end HTTP requests per second
// for the lease/answer hot path at increasing client concurrency. This is
// the "net/http dispatch service" of the repro hint; absolute numbers are
// machine-dependent, the table shows it scales with concurrency and is
// nowhere near being the bottleneck of a human-paced system.
func T3(o Options) Result {
	res := Result{
		ID:     "T3",
		Title:  "Dispatch service throughput (lease+answer round trips)",
		Header: []string{"clients", "round trips", "wall time", "req/s"},
	}
	ctx := context.Background()
	for _, clients := range []int{1, 4, 16, 64} {
		perClient := o.n(500, 50)
		sys := core.New(core.DefaultConfig())
		srv := httptest.NewServer(dispatch.NewServer(sys))
		cl := dispatch.NewClient(srv.URL, srv.Client())

		total := clients * perClient
		for i := 0; i < total; i++ {
			if _, err := cl.SubmitContext(ctx, task.Label, task.Payload{ImageID: i}, 1, 0); err != nil {
				srv.Close()
				res.AddNote("submit failed: %v", err)
				return res
			}
		}
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				id := fmt.Sprintf("w%d", c)
				for {
					_, lease, err := cl.NextContext(ctx, id)
					if errors.Is(err, dispatch.ErrNoTask) {
						return
					}
					if err != nil {
						return
					}
					if err := cl.AnswerContext(ctx, lease, task.Answer{Words: []int{1}}); err != nil {
						return
					}
				}
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)
		srv.Close()
		// Each round trip is two HTTP requests (next + answer).
		reqs := float64(2*total) / elapsed.Seconds()
		res.AddRow(d(clients), d(total), elapsed.Round(time.Millisecond).String(), f1(reqs))
	}
	res.AddNote("wall-clock measurement; shape (scaling with concurrency), not absolute req/s, is the claim")
	return res
}

// T4 reproduces the aggregation-ladder table: labeling accuracy of
// majority vote, gold-calibrated weighted vote, and Dawid–Skene EM as the
// crowd's mean reliability falls. EM and weighted voting must dominate
// majority at low reliability and converge with it at high reliability.
func T4(o Options) Result {
	res := Result{
		ID:     "T4",
		Title:  "Aggregation accuracy vs worker reliability (binary tasks, 9 workers, 5 votes/task)",
		Header: []string{"mean reliability", "majority", "weighted (gold)", "EM (one-coin)", "DS (confusion)"},
	}
	nTasks := o.n(600, 150)
	const nWorkers, votesPerTask, goldProbes = 9, 5, 25

	for i, mean := range []float64{0.55, 0.65, 0.75, 0.85, 0.95} {
		src := rng.New(o.Seed + uint64(700+i))
		// Heterogeneous crowd around the mean, with one strong worker —
		// the regime where learned weights matter.
		accs := make([]float64, nWorkers)
		for w := range accs {
			a := src.Norm(mean, 0.1)
			if a < 0.5 {
				a = 0.5
			}
			if a > 0.99 {
				a = 0.99
			}
			accs[w] = a
		}
		accs[0] = min(0.97, mean+0.2)

		// Gold calibration.
		rep := quality.NewReputation(0.7, 4)
		for w := 0; w < nWorkers; w++ {
			id := fmt.Sprintf("w%d", w)
			for g := 0; g < goldProbes; g++ {
				rep.Record(id, src.Bool(accs[w]))
			}
		}

		votes := make(map[string][]quality.Vote, nTasks)
		truth := make(map[string]int, nTasks)
		for t := 0; t < nTasks; t++ {
			id := fmt.Sprintf("t%d", t)
			truth[id] = src.Intn(2)
			for _, w := range src.Perm(nWorkers)[:votesPerTask] {
				c := truth[id]
				if !src.Bool(accs[w]) {
					c = 1 - c
				}
				votes[id] = append(votes[id], quality.Vote{Worker: fmt.Sprintf("w%d", w), Class: c})
			}
		}

		score := func(label func(id string) int) float64 {
			right := 0
			for id, want := range truth {
				if label(id) == want {
					right++
				}
			}
			return float64(right) / float64(len(truth))
		}
		maj := score(func(id string) int {
			c, _, _, _ := quality.Majority(votes[id])
			return c
		})
		wtd := score(func(id string) int {
			c, _, _ := quality.Weighted(votes[id], rep.Weight)
			return c
		})
		em := quality.EM(votes, 2)
		emAcc := score(func(id string) int { return em.Labels[id] })
		ds := quality.DawidSkene(votes, 2)
		dsAcc := score(func(id string) int { return ds.Labels[id] })

		res.AddRow(f2c(mean), pct(maj), pct(wtd), pct(emAcc), pct(dsAcc))
	}
	res.AddNote("published shape: EM dominates majority at low reliability (gold-weighted voting tracks EM once reliabilities separate); all converge near the top")
	return res
}
