// Command hcsim drives simulated crowds.
//
// Local mode runs a game with a virtual clock and prints GWAP metrics:
//
//	hcsim -game esp -players 500 -hours 24
//
// HTTP mode exercises a running hcservd with simulated workers: it submits
// image-labeling tasks, has modeled humans answer them over the wire, and
// scores the aggregated results against ground truth:
//
//	hcsim -mode http -url http://localhost:8080 -tasks 200 -workers 8
//
// The http and session modes exit 1 on the first failed call (session mode
// also when no round reached agreement), so they double as wire smoke tests
// against a real binary.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"time"

	"humancomp/internal/dispatch"
	"humancomp/internal/games/esp"
	"humancomp/internal/games/matchin"
	"humancomp/internal/games/peekaboom"
	"humancomp/internal/games/phetch"
	"humancomp/internal/games/squigl"
	"humancomp/internal/games/tagatune"
	"humancomp/internal/games/verbosity"
	"humancomp/internal/search"
	"humancomp/internal/sim"
	"humancomp/internal/task"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

func main() {
	var (
		mode    = flag.String("mode", "local", "local (virtual-clock crowd), http (drive a live hcservd), session (live paired sessions against hcservd -sessions), or quality")
		game    = flag.String("game", "esp", "local mode: esp, peekaboom, verbosity, tagatune, matchin, squigl, phetch")
		players = flag.Int("players", 200, "local mode: population size")
		hours   = flag.Float64("hours", 24, "local mode: simulated horizon")
		url     = flag.String("url", "http://localhost:8080", "http mode: service base URL")
		tasks   = flag.Int("tasks", 100, "http/quality mode: tasks to submit")
		workers = flag.Int("workers", 8, "http/quality mode: simulated workers")
		batch   = flag.Int("batch", 1, "http mode: batch size for submits/leases/answers (1 = single-call API)")
		seed    = flag.Uint64("seed", 1, "random seed")

		rounds     = flag.Int("rounds", 2, "session mode: rounds each player plays before leaving")
		redundancy = flag.Int("redundancy", 5, "quality mode: answers per task in the fixed arm")
		target     = flag.Float64("target", 0.95, "quality mode: posterior confidence that completes a task early")
		gate       = flag.Bool("gate", false, "quality mode: exit non-zero unless adaptive redundancy saves >=20% answers at <=1 point accuracy cost")
	)
	flag.Parse()

	switch *mode {
	case "local":
		runLocal(*game, *players, *hours, *seed)
	case "http":
		if _, _, err := runHTTP(*url, *tasks, *workers, *batch, *seed); err != nil {
			log.Fatalf("hcsim: %v", err)
		}
	case "session":
		n := *players
		if n == 200 {
			// The shared -players default is sized for local mode; live
			// HTTP sessions want a smaller concurrent crowd.
			n = 40
		}
		if _, err := runSession(*url, n, *rounds, *seed); err != nil {
			log.Fatalf("hcsim: %v", err)
		}
	case "quality":
		n := *tasks
		if n == 100 && *workers == 8 {
			// Mode-appropriate defaults: the shared -tasks/-workers defaults
			// are sized for http mode; quality needs a larger crowd.
			n, *workers = 400, 40
		}
		runQuality(n, *redundancy, *workers, *target, *seed, *gate)
	default:
		log.Fatalf("hcsim: unknown mode %q", *mode)
	}
}

func runLocal(game string, players int, hours float64, seed uint64) {
	corpusCfg := vocab.DefaultCorpusConfig()
	corpusCfg.Lexicon.Seed = seed
	corpusCfg.Seed = seed + 1
	corpus := vocab.NewCorpus(corpusCfg)

	var pair sim.PairGame
	var solo sim.SoloGame
	switch game {
	case "esp":
		cfg := esp.DefaultConfig()
		cfg.Seed = seed + 2
		cfg.RetireAt = 0
		a := sim.NewESPAdapter(esp.New(corpus, cfg), seed+3)
		pair, solo = a, a
	case "peekaboom":
		cfg := peekaboom.DefaultConfig()
		cfg.Seed = seed + 2
		pair = &sim.PeekaboomAdapter{Game: peekaboom.New(corpus, cfg)}
	case "verbosity":
		fbCfg := vocab.DefaultFactBaseConfig()
		fbCfg.Seed = seed + 2
		cfg := verbosity.DefaultConfig()
		cfg.Seed = seed + 3
		pair = &sim.VerbosityAdapter{Game: verbosity.New(vocab.NewFactBase(fbCfg), cfg)}
	case "tagatune":
		cfg := tagatune.DefaultConfig()
		cfg.Seed = seed + 2
		pair = &sim.TagATuneAdapter{Game: tagatune.New(corpus, cfg)}
	case "matchin":
		cfg := matchin.DefaultConfig()
		cfg.Seed = seed + 2
		pair = &sim.MatchinAdapter{Game: matchin.New(corpus, cfg)}
	case "squigl":
		cfg := squigl.DefaultConfig()
		cfg.Seed = seed + 2
		pair = &sim.SquiglAdapter{Game: squigl.New(corpus, cfg)}
	case "phetch":
		ix := search.NewIndex()
		for _, img := range corpus.Images {
			for _, obj := range img.Objects {
				ix.Add(img.ID, corpus.Lexicon.Canonical(obj.Tag), 2)
			}
		}
		cfg := phetch.DefaultConfig()
		cfg.Seed = seed + 2
		pair = &sim.PhetchAdapter{Game: phetch.New(corpus, ix, cfg)}
	default:
		log.Fatalf("hcsim: unknown game %q", game)
	}

	popCfg := worker.DefaultPopulationConfig(players)
	popCfg.Seed = seed + 4
	ws := worker.NewPopulation(popCfg)
	crowdCfg := sim.DefaultCrowdConfig(ws, pair)
	crowdCfg.Horizon = time.Duration(hours * float64(time.Hour))
	crowdCfg.Seed = seed + 5
	crowdCfg.Solo = solo

	start := time.Now()
	rep := sim.NewCrowd(crowdCfg, time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)).Run()
	fmt.Printf("game=%s players=%d horizon=%.1fh (simulated) wall=%s\n",
		game, players, hours, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  sessions:              %d\n", rep.Sessions)
	fmt.Printf("  outputs:               %d\n", rep.Outputs)
	fmt.Printf("  total play:            %.1f human-hours\n", rep.TotalPlayHours)
	fmt.Printf("  throughput:            %.1f outputs/human-hour\n", rep.ThroughputPerHour)
	fmt.Printf("  avg lifetime play:     %.1f min\n", rep.ALPMinutes)
	fmt.Printf("  expected contribution: %.1f outputs/player\n", rep.ExpectedContribution)
}

// runHTTP submits nTasks labeling tasks, drains them with the modeled
// crowd and scores the agreed labels. It returns how many tasks were
// submitted and answers given, and the first call that failed.
func runHTTP(url string, nTasks, nWorkers, batch int, seed uint64) (submitted, answered int, err error) {
	// Traceparent headers cost one header per request and let a server
	// running with -spans attribute any slow call to this driver.
	client := dispatch.NewClientWith(url, nil, dispatch.ClientOptions{Trace: true})
	if !client.Healthy() {
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

	ids, err := submitTasks(client, corpus, nTasks, batch)
	if err != nil {
		return len(ids), 0, err
	}
	log.Printf("hcsim: submitted %d labeling tasks (batch=%d)", len(ids), batch)

	answered, err = answerTasks(client, corpus, ws, batch)
	if err != nil {
		return len(ids), answered, err
	}
	log.Printf("hcsim: submitted %d answers", answered)

	good, total := 0, 0
	for _, id := range ids {
		words, err := client.Words(id)
		if err != nil {
			return len(ids), answered, fmt.Errorf("aggregating: %w", err)
		}
		t, err := client.Task(id)
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
	st, err := client.Stats()
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
func submitTasks(client *dispatch.Client, corpus *vocab.Corpus, nTasks, batch int) ([]task.ID, error) {
	ids := make([]task.ID, 0, nTasks)
	if batch <= 1 {
		for i := 0; i < nTasks; i++ {
			img := i % len(corpus.Images)
			id, err := client.Submit(task.Label, task.Payload{ImageID: img}, 3, 0)
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
		results, err := client.SubmitBatch(reqs)
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
func answerTasks(client *dispatch.Client, corpus *vocab.Corpus, ws []*worker.Worker, batch int) (int, error) {
	answered := 0
	if batch <= 1 {
		for i := 0; ; i++ {
			w := ws[i%len(ws)]
			t, lease, err := client.Next(w.ID)
			if errors.Is(err, dispatch.ErrNoTask) {
				break
			}
			if err != nil {
				return answered, fmt.Errorf("leasing: %w", err)
			}
			if err := client.Answer(lease, sim.LabelAnswer(w, corpus, t)); err != nil {
				return answered, fmt.Errorf("answering: %w", err)
			}
			answered++
		}
		return answered, nil
	}
	for i := 0; ; i++ {
		w := ws[i%len(ws)]
		leases, err := client.NextBatch(w.ID, batch)
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
		statuses, err := client.AnswerBatch(items)
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
