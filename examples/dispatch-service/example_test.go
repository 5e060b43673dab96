// Package dispatchservice runs the HTTP dispatch service in-process as a
// testable example:
//
//	go test -v -run Example ./examples/dispatch-service
package dispatchservice

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"

	"humancomp/internal/core"
	"humancomp/internal/dispatch"
	"humancomp/internal/rng"
	"humancomp/internal/task"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// Drive the service with the typed client: tasks in, redundant answers
// from simulated workers (including gold probes that build worker
// reputations), weighted aggregation out.
func Example() {
	ctx := context.Background()
	// Service side: a core system behind the HTTP handler. (A real
	// deployment runs cmd/hcservd; httptest keeps the example portable.)
	server := httptest.NewServer(dispatch.NewServer(core.New(core.DefaultConfig())))
	defer server.Close()
	client := dispatch.NewClient(server.URL, server.Client())
	fmt.Printf("dispatch service healthy: %v\n\n", client.HealthyContext(ctx))

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
		probe := dispatch.SubmitRequest{
			Kind: task.Judge.String(), Payload: task.Payload{Detail: &task.Detail{ClipA: g, ClipB: g + 1}},
			Redundancy: len(workers), Priority: 10, Gold: true, Expected: &expected,
		}
		if res, err := client.SubmitBatchContext(ctx, []dispatch.SubmitRequest{probe}); err != nil || res[0].Status != http.StatusCreated {
			panic(fmt.Sprint(res, err))
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
	fmt.Printf("label tasks: %d, agreed labels (>=2 votes): %d, %.1f%% true\n",
		nTasks, total, 100*float64(good)/float64(max(total, 1)))
	fmt.Printf("service stats: %d tasks, %d answers, %d gold checks\n",
		stats.TasksSubmitted, stats.AnswersTotal, stats.GoldChecked)

	// Output:
	// dispatch service healthy: true
	//
	// label tasks: 40, agreed labels (>=2 votes): 78, 97.4% true
	// service stats: 52 tasks, 216 answers, 96 gold checks
}
