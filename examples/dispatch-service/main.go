// dispatch-service: run the HTTP dispatch service in-process, drive it
// with the typed client — tasks in, redundant answers from simulated
// workers (including gold probes that build worker reputations), weighted
// aggregation out.
//
//	go run ./examples/dispatch-service
package main

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"

	"humancomp/internal/core"
	"humancomp/internal/dispatch"
	"humancomp/internal/rng"
	"humancomp/internal/task"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

func main() {
	ctx := context.Background()
	// Service side: a core system behind the HTTP handler. (A real
	// deployment runs cmd/hcservd; httptest keeps the example portable.)
	sys := core.New(core.DefaultConfig())
	server := httptest.NewServer(dispatch.NewServer(sys))
	defer server.Close()
	client := dispatch.NewClient(server.URL, server.Client())
	fmt.Printf("dispatch service at %s (healthy: %v)\n\n", server.URL, client.HealthyContext(ctx))

	corpus := vocab.NewCorpus(vocab.DefaultCorpusConfig())
	src := rng.New(9)

	// A mixed crowd: seven careful workers and one random-guessing spammer.
	workers := make([]*worker.Worker, 8)
	for i := range workers {
		p := worker.SampleProfile(worker.DefaultPopulationConfig(8), src)
		behavior := worker.Honest
		if i == 7 {
			behavior = worker.Spammer
		}
		workers[i] = worker.New(fmt.Sprintf("w%d", i), behavior, p, src)
	}

	// Gold probes first: same/different judgments with known answers.
	// Their outcomes calibrate each worker's vote weight.
	for g := 0; g < 12; g++ {
		same := g%2 == 0
		expected := task.Answer{Choice: 1}
		if same {
			expected.Choice = 0
		}
		if _, err := client.SubmitGoldContext(ctx, task.Judge,
			task.Payload{Detail: &task.Detail{ClipA: g, ClipB: g + 1}}, len(workers), 10, expected); err != nil {
			panic(err)
		}
		for _, w := range workers {
			_, lease, err := client.NextContext(ctx, w.ID)
			if err != nil {
				panic(err)
			}
			if err := client.AnswerContext(ctx, lease, task.Answer{Choice: w.Judge(same)}); err != nil {
				panic(err)
			}
		}
	}
	fmt.Println("worker reputations after gold probes:")
	for _, w := range workers {
		fmt.Printf("  %s (%s): accuracy %.2f, vote weight %.2f\n",
			w.ID, w.Behavior, sys.Reputation().Accuracy(w.ID), sys.Reputation().Weight(w.ID))
	}

	// Real work: label tasks with 3-way redundancy.
	const nTasks = 40
	ids := make([]task.ID, 0, nTasks)
	for i := 0; i < nTasks; i++ {
		id, err := client.SubmitContext(ctx, task.Label, task.Payload{ImageID: i}, 3, 0)
		if err != nil {
			panic(err)
		}
		ids = append(ids, id)
	}
	for round := 0; ; round++ {
		w := workers[round%len(workers)]
		t, lease, err := client.NextContext(ctx, w.ID)
		if errors.Is(err, dispatch.ErrNoTask) {
			break
		}
		if err != nil {
			panic(err)
		}
		img := corpus.Image(t.Payload.ImageID)
		said := map[int]bool{}
		var words []int
		for k := 0; k < 3; k++ {
			if tag := w.GuessTag(corpus.Lexicon, img, nil, said); tag >= 0 {
				said[corpus.Lexicon.Canonical(tag)] = true
				words = append(words, tag)
			}
		}
		if len(words) == 0 {
			words = []int{corpus.Lexicon.Sample()}
		}
		if err := client.AnswerContext(ctx, lease, task.Answer{Words: words}); err != nil {
			panic(err)
		}
	}

	// Read the aggregates back.
	good, total := 0, 0
	for _, id := range ids {
		t, err := client.TaskContext(ctx, id)
		if err != nil {
			panic(err)
		}
		words, err := client.WordsContext(ctx, id)
		if err != nil {
			panic(err)
		}
		for _, wc := range words {
			if wc.Count >= 2 {
				total++
				if corpus.IsTrueTag(t.Payload.ImageID, wc.Word) {
					good++
				}
			}
		}
	}
	stats, err := client.StatsContext(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nlabel tasks: %d, agreed labels (>=2 votes): %d, %.1f%% true\n",
		nTasks, total, 100*float64(good)/float64(max(total, 1)))
	fmt.Printf("service stats: %d tasks, %d answers, %d gold checks\n",
		stats.TasksSubmitted, stats.AnswersTotal, stats.GoldChecked)
}
