// Command hcsim drives a live hcservd with simulated crowds.
//
// HTTP mode (the default) submits image-labeling tasks, has modeled
// humans answer them over the wire, and scores the aggregated results
// against ground truth:
//
//	hcsim -mode http -url http://localhost:8080 -tasks 200 -workers 8
//
// Session mode plays paired ESP rounds against a server started with
// -sessions:
//
//	hcsim -mode session -url http://localhost:8080 -players 40 -rounds 3
//
// Both modes exit 1 on the first failed call (session mode also when no
// round reached agreement), so they double as wire smoke tests against a
// real binary. Virtual-clock crowds are experiment T1 and the
// adaptive-redundancy run is experiment A5, both under cmd/hcbench.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"

	"humancomp/internal/dispatch"
	"humancomp/internal/sim"
	"humancomp/internal/task"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

func main() {
	var (
		mode    = flag.String("mode", "http", "http (labeling tasks against a live hcservd) or session (live paired sessions against hcservd -sessions)")
		url     = flag.String("url", "http://localhost:8080", "service base URL")
		tasks   = flag.Int("tasks", 100, "http mode: tasks to submit")
		workers = flag.Int("workers", 8, "http mode: simulated workers")
		batch   = flag.Int("batch", 1, "http mode: batch size for submits/leases/answers (1 = single-call API)")
		players = flag.Int("players", 40, "session mode: concurrent players")
		rounds  = flag.Int("rounds", 2, "session mode: rounds each player plays before leaving")
		seed    = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	if err := run(*mode, *url, *tasks, *workers, *batch, *players, *rounds, *seed); err != nil {
		log.Fatalf("hcsim: %v", err)
	}
}

// run plays one mode against the service at url; a mode other than http
// and session is an error.
func run(mode, url string, tasks, workers, batch, players, rounds int, seed uint64) error {
	switch mode {
	case "http":
		_, _, err := runHTTP(url, tasks, workers, batch, seed)
		return err
	case "session":
		_, err := runSession(url, players, rounds, seed)
		return err
	}
	return fmt.Errorf("unknown mode %q", mode)
}

// runHTTP submits nTasks labeling tasks, drains them with the modeled
// crowd and scores the agreed labels. It returns how many tasks were
// submitted and answers given, and the first call that failed.
func runHTTP(url string, nTasks, nWorkers, batch int, seed uint64) (submitted, answered int, err error) {
	ctx := context.Background()
	// Traceparent headers cost one header per request and let a server
	// running with -spans attribute any slow call to this driver.
	client := dispatch.NewClientWith(url, nil, dispatch.ClientOptions{Trace: true})
	if !client.HealthyContext(ctx) {
		return 0, 0, fmt.Errorf("no healthy service at %s (start cmd/hcservd first)", url)
	}
	if batch < 1 {
		batch = 1
	}

	corpusCfg := vocab.DefaultCorpusConfig()
	corpusCfg.Lexicon.Seed = seed
	corpusCfg.Seed = seed + 1
	corpus := vocab.NewCorpus(corpusCfg)

	popCfg := worker.DefaultPopulationConfig(nWorkers)
	popCfg.Seed = seed + 2
	ws := worker.NewPopulation(popCfg)
	for _, w := range ws {
		w.Profile.ThinkMean = 0 // network time replaces think time here
	}

	ids, err := submitTasks(ctx, client, corpus, nTasks, batch)
	if err != nil {
		return len(ids), 0, err
	}
	log.Printf("hcsim: submitted %d labeling tasks (batch=%d)", len(ids), batch)

	answered, err = answerTasks(ctx, client, corpus, ws, batch)
	if err != nil {
		return len(ids), answered, err
	}
	log.Printf("hcsim: submitted %d answers", answered)

	good, total := 0, 0
	for _, id := range ids {
		words, err := client.WordsContext(ctx, id)
		if err != nil {
			return len(ids), answered, fmt.Errorf("aggregating: %w", err)
		}
		t, err := client.TaskContext(ctx, id)
		if err != nil {
			return len(ids), answered, fmt.Errorf("fetching: %w", err)
		}
		for _, wc := range words {
			if wc.Count < 2 {
				continue // accept only labels two workers agree on
			}
			total++
			if corpus.IsTrueTag(t.Payload.ImageID, wc.Word) {
				good++
			}
		}
	}
	st, err := client.StatsContext(ctx)
	if err != nil {
		return len(ids), answered, fmt.Errorf("stats: %w", err)
	}
	fmt.Printf("tasks=%d answers=%d agreed-labels=%d true=%d\n", nTasks, answered, total, good)
	if total > 0 {
		fmt.Printf("label precision at agreement>=2: %.1f%%\n", 100*float64(good)/float64(total))
	}
	fmt.Printf("service stats: %+v\n", st)
	return len(ids), answered, nil
}

// submitTasks creates the labeling workload, one request per task when
// batch is 1 and POST /v1/tasks:batch chunks otherwise.
func submitTasks(ctx context.Context, client *dispatch.Client, corpus *vocab.Corpus, nTasks, batch int) ([]task.ID, error) {
	ids := make([]task.ID, 0, nTasks)
	if batch <= 1 {
		for i := 0; i < nTasks; i++ {
			img := i % len(corpus.Images)
			id, err := client.SubmitContext(ctx, task.Label, task.Payload{ImageID: img}, 3, 0)
			if err != nil {
				return ids, fmt.Errorf("submitting task: %w", err)
			}
			ids = append(ids, id)
		}
		return ids, nil
	}
	for off := 0; off < nTasks; off += batch {
		n := batch
		if off+n > nTasks {
			n = nTasks - off
		}
		reqs := make([]dispatch.SubmitRequest, n)
		for j := range reqs {
			reqs[j] = dispatch.SubmitRequest{
				Kind:       "label",
				Payload:    task.Payload{ImageID: (off + j) % len(corpus.Images)},
				Redundancy: 3,
			}
		}
		results, err := client.SubmitBatchContext(ctx, reqs)
		if err != nil {
			return ids, fmt.Errorf("submitting batch: %w", err)
		}
		for _, res := range results {
			if res.Error != "" {
				return ids, fmt.Errorf("batch item rejected (%d): %s", res.Status, res.Error)
			}
			ids = append(ids, res.ID)
		}
	}
	return ids, nil
}

// answerTasks drains the queue with the modeled crowd, leasing and
// answering one task per request when batch is 1 and whole batches over
// /v1/leases:batch + /v1/leases:answers otherwise.
func answerTasks(ctx context.Context, client *dispatch.Client, corpus *vocab.Corpus, ws []*worker.Worker, batch int) (int, error) {
	answered := 0
	if batch <= 1 {
		for i := 0; ; i++ {
			w := ws[i%len(ws)]
			t, lease, err := client.NextContext(ctx, w.ID)
			if errors.Is(err, dispatch.ErrNoTask) {
				break
			}
			if err != nil {
				return answered, fmt.Errorf("leasing: %w", err)
			}
			if err := client.AnswerContext(ctx, lease, sim.LabelAnswer(w, corpus, t)); err != nil {
				return answered, fmt.Errorf("answering: %w", err)
			}
			answered++
		}
		return answered, nil
	}
	for i := 0; ; i++ {
		w := ws[i%len(ws)]
		leases, err := client.NextBatchContext(ctx, w.ID, batch)
		if err != nil {
			return answered, fmt.Errorf("leasing batch: %w", err)
		}
		if len(leases) == 0 {
			break
		}
		views := make([]task.View, len(leases))
		for j, l := range leases {
			views[j] = l.Task
		}
		items := make([]dispatch.BatchAnswerItem, len(leases))
		for j, a := range sim.LabelAnswers(w, corpus, views) {
			items[j] = dispatch.BatchAnswerItem{Lease: leases[j].Lease, Answer: a}
		}
		statuses, err := client.AnswerBatchContext(ctx, items)
		if err != nil {
			return answered, fmt.Errorf("answering batch: %w", err)
		}
		for _, st := range statuses {
			if st.Error != "" {
				return answered, fmt.Errorf("batch answer rejected (%d): %s", st.Status, st.Error)
			}
			answered++
		}
	}
	return answered, nil
}
