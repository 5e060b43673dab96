package humancomp_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"humancomp/internal/core"
	"humancomp/internal/dispatch"
	"humancomp/internal/games/esp"
	"humancomp/internal/games/phetch"
	"humancomp/internal/rng"
	"humancomp/internal/search"
	"humancomp/internal/sim"
	"humancomp/internal/store"
	"humancomp/internal/task"
	"humancomp/internal/trace"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// TestServiceLifecycleWithJournalRecovery drives the dispatch service over
// HTTP with modeled workers, crashes it (by dropping the System without a
// snapshot), and recovers the full state from the journal alone.
func TestServiceLifecycleWithJournalRecovery(t *testing.T) {
	var journal bytes.Buffer
	cfg := core.DefaultConfig()
	cfg.Journal = store.NewWAL(&journal)
	sys := core.New(cfg)
	srv := httptest.NewServer(dispatch.NewServer(sys))
	client := dispatch.NewClient(srv.URL, srv.Client())

	corpus := vocab.NewCorpus(vocab.CorpusConfig{
		Lexicon:     vocab.LexiconConfig{Size: 300, ZipfS: 1, SynonymRate: 0.2, Seed: 1},
		NumImages:   50,
		MeanObjects: 4,
		CanvasW:     640, CanvasH: 480,
		Seed: 2,
	})
	src := rng.New(3)

	const nTasks = 30
	ids := make([]task.ID, 0, nTasks)
	for i := 0; i < nTasks; i++ {
		id, err := client.Submit(task.Label, task.Payload{ImageID: i}, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	workers := make([]*worker.Worker, 5)
	for i := range workers {
		p := worker.SampleProfile(worker.DefaultPopulationConfig(5), src)
		p.ThinkMean = 0
		workers[i] = worker.New(fmt.Sprintf("w%d", i), worker.Honest, p, src)
	}
	answered := 0
	for i := 0; ; i++ {
		w := workers[i%len(workers)]
		tk, lease, err := client.Next(w.ID)
		if errors.Is(err, dispatch.ErrNoTask) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		img := corpus.Image(tk.Payload.ImageID)
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
		if err := client.Answer(lease, task.Answer{Words: words}); err != nil {
			t.Fatal(err)
		}
		answered++
	}
	if answered != 2*nTasks {
		t.Fatalf("answered %d, want %d", answered, 2*nTasks)
	}
	srv.Close() // "crash": no snapshot taken

	// Recovery: a brand-new system, journal replay only.
	recovered := core.New(core.DefaultConfig())
	rep, err := store.ReplayWAL(bytes.NewReader(journal.Bytes()), recovered.Store())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.Applied != nTasks+answered {
		t.Fatalf("replayed %d events, want %d", rep.Applied, nTasks+answered)
	}
	recovered.RequeueOpen()
	for _, id := range ids {
		tk, err := recovered.Task(id)
		if err != nil {
			t.Fatalf("task %d lost: %v", id, err)
		}
		if tk.Status != task.Done || len(tk.Answers) != 2 {
			t.Fatalf("task %d state after recovery: %+v", id, tk)
		}
	}
	// The recovered system keeps serving: aggregates are intact.
	words, err := recovered.AggregateWords(ids[0])
	if err != nil || len(words) == 0 {
		t.Fatalf("aggregate after recovery: %v, %v", words, err)
	}
}

// TestConcurrentDispatchSoak hammers a single dispatch server from many
// goroutines at once — submitters, workers, cancelers and readers all
// racing — and then checks the system converged to a consistent state.
// Run under -race (CI always does) this is the proof that the read path
// serves immutable task views: on the pre-view code, GET /v1/tasks/{id}
// and GET /v1/tasks serialized live *task.Task pointers while the queue
// appended answers, and this test fails with a race report.
func TestConcurrentDispatchSoak(t *testing.T) {
	// The race can only be observed while a read handler is in flight: once
	// a request completes, boundary synchronization (the connection-tracking
	// mutex in httptest, the shared per-route stats mutex taken at the start
	// of every request) orders it against every later request. On a
	// single-P runtime these microsecond handlers run to completion without
	// preemption and never overlap, so the detector has nothing to see;
	// force at least a few Ps so handlers genuinely interleave.
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	var journal bytes.Buffer
	cfg := core.DefaultConfig()
	cfg.Journal = store.NewWAL(&journal)
	sys := core.New(cfg)
	srv := httptest.NewServer(dispatch.NewServer(sys))
	defer srv.Close()
	// Each goroutine gets its own client with its own connection pool:
	// a shared transport would serialize requests through the pool mutex,
	// creating happens-before edges that mask server-side races from the
	// race detector.
	newClient := func() *dispatch.Client {
		return dispatch.NewClient(srv.URL, &http.Client{Transport: &http.Transport{}})
	}
	client := newClient()

	const (
		nSubmitters = 2
		tasksPer    = 40
		nWorkers    = 4
		nReaders    = 3
	)
	total := nSubmitters * tasksPer

	// Domain errors (409 conflict, 404 gone, 422, ...) are legitimate
	// outcomes of racing operations; only transport/protocol failures and
	// nil-safety bugs should fail the test — the race detector is the real
	// assertion here.
	tolerable := func(err error) bool {
		var apiErr *dispatch.APIError
		return err == nil || errors.As(err, &apiErr)
	}

	var (
		mu        sync.Mutex
		seen      []task.ID
		submitWG  sync.WaitGroup
		workWG    sync.WaitGroup
		readWG    sync.WaitGroup
		submitted atomic.Bool
		working   atomic.Bool
	)
	working.Store(true)

	for s := 0; s < nSubmitters; s++ {
		submitWG.Add(1)
		go func(s int) {
			defer submitWG.Done()
			client := newClient()
			for i := 0; i < tasksPer; i++ {
				var id task.ID
				var err error
				if i%10 == 9 {
					id, err = client.SubmitGold(task.Judge,
						task.Payload{ClipA: i, ClipB: i + 1}, 2, i%3, task.Answer{Choice: 1})
				} else {
					id, err = client.Submit(task.Label,
						task.Payload{ImageID: 100*s + i, Taboo: []int{1, 2}}, 2, i%5)
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				mu.Lock()
				seen = append(seen, id)
				mu.Unlock()
				// Cancel a slice of the stream to race DELETE against leases.
				if i%8 == 7 {
					if err := client.Cancel(id); !tolerable(err) {
						t.Errorf("cancel: %v", err)
						return
					}
				}
			}
		}(s)
	}
	go func() { submitWG.Wait(); submitted.Store(true) }()

	work := func(workerID string) {
		client := newClient()
		for {
			tk, lease, err := client.Next(workerID)
			if errors.Is(err, dispatch.ErrNoTask) {
				if submitted.Load() {
					return
				}
				time.Sleep(time.Millisecond)
				continue
			}
			if !tolerable(err) {
				t.Errorf("next: %v", err)
				return
			}
			if err != nil {
				continue
			}
			var a task.Answer
			switch tk.Kind {
			case task.Judge:
				a = task.Answer{Choice: 1}
			default:
				a = task.Answer{Words: []int{tk.Payload.ImageID%7 + 1}}
			}
			if err := client.Answer(lease, a); !tolerable(err) {
				t.Errorf("answer: %v", err)
				return
			}
		}
	}
	for w := 0; w < nWorkers; w++ {
		workWG.Add(1)
		go func(w int) {
			defer workWG.Done()
			work(fmt.Sprintf("soak-w%d", w))
		}(w)
	}

	for r := 0; r < nReaders; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			client := newClient()
			for i := 0; working.Load(); i++ {
				// Read a recently submitted task: the tail of the stream is
				// where tasks are still open and answers land concurrently.
				mu.Lock()
				var id task.ID
				if n := len(seen); n > 0 {
					recent := (r + i) % 8
					if recent >= n {
						recent = n - 1
					}
					id = seen[n-1-recent]
				}
				mu.Unlock()
				if id != 0 {
					if _, err := client.Task(id); !tolerable(err) {
						t.Errorf("get: %v", err)
						return
					}
					if _, err := client.Words(id); !tolerable(err) {
						t.Errorf("words: %v", err)
						return
					}
					if _, err := client.Choice(id); !tolerable(err) {
						t.Errorf("choice: %v", err)
						return
					}
				}
				if _, err := client.ListTasks("", 0, 1000); err != nil {
					t.Errorf("list: %v", err)
					return
				}
				if _, err := client.ListTasks("done", 0, 1000); err != nil {
					t.Errorf("list done: %v", err)
					return
				}
				// Only one reader polls the counters: reading the atomic
				// stats (incremented after each answer is recorded) creates
				// a happens-before edge that orders earlier answers before
				// this goroutine's later task reads, which would hide the
				// very races the pure readers exist to expose.
				if r == 0 {
					if _, err := client.Stats(); err != nil {
						t.Errorf("stats: %v", err)
						return
					}
					if _, err := client.Metrics(); err != nil {
						t.Errorf("metrics: %v", err)
						return
					}
				}
			}
		}(r)
	}

	workWG.Wait()
	// Drain stragglers with fresh workers: a task that still needs answers
	// may have outlived the pool (every remaining worker had already
	// answered it once). Fresh IDs are always eligible.
	for d := 0; d < 2; d++ {
		work(fmt.Sprintf("soak-drain%d", d))
	}

	// Hot-task hammer: one high-redundancy task at a time, answered by a
	// fresh worker pool while dedicated readers tight-loop GETs on exactly
	// that task. The phase-one mix keeps every endpoint busy, but answers
	// land so fast after submission that a reader is rarely mid-encode at
	// the moment of mutation; here the readers are already spinning on the
	// task before the first answer arrives, so on the pre-view code the
	// JSON encoder reliably observes the append.
	const (
		hotRounds  = 20
		hotWorkers = 5
		hotReaders = 2
	)
	for round := 0; round < hotRounds; round++ {
		hotID, err := client.Submit(task.Label,
			task.Payload{ImageID: 9000 + round, Taboo: []int{1, 2, 3}}, hotWorkers, 0)
		if err != nil {
			t.Fatalf("hot submit: %v", err)
		}
		mu.Lock()
		seen = append(seen, hotID)
		mu.Unlock()
		stop := make(chan struct{})
		var hotReadWG, hotWorkWG sync.WaitGroup
		for r := 0; r < hotReaders; r++ {
			hotReadWG.Add(1)
			go func() {
				defer hotReadWG.Done()
				client := newClient()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := client.Task(hotID); !tolerable(err) {
						t.Errorf("hot get: %v", err)
						return
					}
					if _, err := client.ListTasks("", 0, 1000); err != nil {
						t.Errorf("hot list: %v", err)
						return
					}
				}
			}()
		}
		for w := 0; w < hotWorkers; w++ {
			hotWorkWG.Add(1)
			go func(w int) {
				defer hotWorkWG.Done()
				client := newClient()
				workerID := fmt.Sprintf("hot-%d-%d", round, w)
				for attempt := 0; attempt < 10000; attempt++ {
					tk, lease, err := client.Next(workerID)
					if errors.Is(err, dispatch.ErrNoTask) {
						time.Sleep(200 * time.Microsecond)
						continue
					}
					if !tolerable(err) {
						t.Errorf("hot next: %v", err)
						return
					}
					if err != nil {
						continue
					}
					if err := client.Answer(lease, task.Answer{Words: []int{w + 1, w + 2, w + 3}}); !tolerable(err) {
						t.Errorf("hot answer: %v", err)
						return
					}
					if tk.ID == hotID {
						return
					}
				}
				t.Errorf("hot worker %s never got task %d", workerID, hotID)
			}(w)
		}
		hotWorkWG.Wait()
		close(stop)
		hotReadWG.Wait()
	}

	working.Store(false)
	readWG.Wait()

	total += hotRounds // the hot-task phase submitted one task per round
	list, err := client.ListTasks("", 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if list.Total != total {
		t.Fatalf("stored %d tasks, want %d", list.Total, total)
	}
	for _, tk := range list.Tasks {
		switch tk.Status {
		case task.Done:
			if len(tk.Answers) != tk.Redundancy {
				t.Errorf("task %d done with %d/%d answers", tk.ID, len(tk.Answers), tk.Redundancy)
			}
		case task.Canceled:
			if len(tk.Answers) > tk.Redundancy {
				t.Errorf("task %d canceled with %d answers", tk.ID, len(tk.Answers))
			}
		default:
			t.Errorf("task %d still %v after drain", tk.ID, tk.Status)
		}
		workers := map[string]bool{}
		for _, a := range tk.Answers {
			if workers[a.WorkerID] {
				t.Errorf("task %d: worker %s answered twice", tk.ID, a.WorkerID)
			}
			workers[a.WorkerID] = true
		}
	}
	// The journal saw every submit and every recorded answer.
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.TasksSubmitted != int64(total) {
		t.Fatalf("stats counted %d submissions, want %d", st.TasksSubmitted, total)
	}
}

// TestEcosystemLabelsToSearchToCaptions runs the survey's ecosystem story
// end to end: a simulated crowd plays ESP, the labels power a search
// index, the index answers queries, and Phetch validates captions on top.
func TestEcosystemLabelsToSearchToCaptions(t *testing.T) {
	corpusCfg := vocab.DefaultCorpusConfig()
	corpusCfg.NumImages = 300
	corpus := vocab.NewCorpus(corpusCfg)

	espCfg := esp.DefaultConfig()
	espCfg.PromoteAfter = 2
	espCfg.RetireAt = 0
	game := esp.New(corpus, espCfg)
	players := worker.NewPopulation(worker.DefaultPopulationConfig(150))
	adapter := sim.NewESPAdapter(game, 7)
	crowdCfg := sim.DefaultCrowdConfig(players, adapter)
	crowdCfg.Horizon = 6 * time.Hour
	rep := sim.NewCrowd(crowdCfg, time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)).Run()
	if rep.Outputs < 1000 {
		t.Fatalf("crowd produced only %d labels", rep.Outputs)
	}

	ix := search.NewIndex()
	for img := range corpus.Images {
		for _, l := range game.Labels.LabelsFor(img) {
			ix.Add(img, l.Word, l.Count)
		}
	}
	if ix.Items() < 250 {
		t.Fatalf("only %d images indexed", ix.Items())
	}

	top5, queries := 0, 0
	for img := range corpus.Images {
		var query []int
		for _, o := range corpus.Image(img).Objects {
			query = append(query, corpus.Lexicon.Canonical(o.Tag))
		}
		queries++
		if r := ix.Rank(query, img); r >= 1 && r <= 5 {
			top5++
		}
	}
	if frac := float64(top5) / float64(queries); frac < 0.6 {
		t.Errorf("top-5 retrieval = %.2f over crowd-built index", frac)
	}

	ph := phetch.New(corpus, ix, phetch.DefaultConfig())
	src := rng.New(9)
	p := worker.SampleProfile(worker.DefaultPopulationConfig(4), src)
	p.ThinkMean = 0
	describer := worker.New("d", worker.Honest, p, src)
	seekers := []*worker.Worker{
		worker.New("s1", worker.Honest, p, src),
		worker.New("s2", worker.Honest, p, src),
	}
	solved := 0
	const rounds = 200
	for i := 0; i < rounds; i++ {
		if ph.PlayRound(describer, seekers, ph.PickImage()).Solved {
			solved++
		}
	}
	if frac := float64(solved) / rounds; frac < 0.4 {
		t.Errorf("phetch solve rate on crowd index = %.2f", frac)
	}
}

// TestAbandonedLeasesRecycleOverHTTP injects the classic failure: workers
// lease tasks and vanish. With a short TTL the service must recycle every
// lease and other workers finish the backlog.
func TestAbandonedLeasesRecycleOverHTTP(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.LeaseTTL = 50 * time.Millisecond
	sys := core.New(cfg)
	srv := httptest.NewServer(dispatch.NewServer(sys))
	defer srv.Close()
	client := dispatch.NewClient(srv.URL, srv.Client())

	const nTasks = 10
	for i := 0; i < nTasks; i++ {
		if _, err := client.Submit(task.Label, task.Payload{ImageID: i}, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	// The flaky worker leases everything and disappears.
	leased := 0
	for {
		_, _, err := client.Next("ghost")
		if errors.Is(err, dispatch.ErrNoTask) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		leased++
	}
	if leased != nTasks {
		t.Fatalf("ghost leased %d", leased)
	}
	// Nothing available until the TTL passes.
	if _, _, err := client.Next("diligent"); !errors.Is(err, dispatch.ErrNoTask) {
		t.Fatalf("pre-expiry: %v", err)
	}
	time.Sleep(80 * time.Millisecond)
	done := 0
	for {
		_, lease, err := client.Next("diligent")
		if errors.Is(err, dispatch.ErrNoTask) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := client.Answer(lease, task.Answer{Words: []int{1}}); err != nil {
			t.Fatal(err)
		}
		done++
	}
	if done != nTasks {
		t.Fatalf("recycled and finished %d/%d tasks", done, nTasks)
	}
	list, err := client.ListTasks("done", 0, 100)
	if err != nil || list.Total != nTasks {
		t.Fatalf("done list: %+v, %v", list, err)
	}
}

// TestSnapshotJournalCheckpointCycle exercises the full durability cycle
// the daemon uses: snapshot, more journaled traffic, recover from
// snapshot + journal tail.
func TestSnapshotJournalCheckpointCycle(t *testing.T) {
	var journal bytes.Buffer
	cfg := core.DefaultConfig()
	cfg.Journal = store.NewWAL(&journal)
	sys := core.New(cfg)

	id1, err := sys.SubmitTask(task.Label, task.Payload{ImageID: 1}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := sys.Store().Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	journalAtSnapshot := journal.Len()

	// Post-snapshot traffic: answer id1, submit id2.
	_, lease, err := sys.NextTask("w")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SubmitAnswer(lease, task.Answer{Words: []int{4}}); err != nil {
		t.Fatal(err)
	}
	id2, err := sys.SubmitTask(task.Label, task.Payload{ImageID: 2}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Recover: snapshot + only the journal tail written after it.
	recovered := core.New(core.DefaultConfig())
	if err := recovered.Store().Restore(&snap); err != nil {
		t.Fatal(err)
	}
	tail := journal.Bytes()[journalAtSnapshot:]
	if _, err := store.ReplayWAL(bytes.NewReader(tail), recovered.Store()); err != nil {
		t.Fatal(err)
	}
	got1, err := recovered.Task(id1)
	if err != nil || got1.Status != task.Done {
		t.Fatalf("task 1 after cycle: %+v, %v", got1, err)
	}
	got2, err := recovered.Task(id2)
	if err != nil || got2.Status != task.Open {
		t.Fatalf("task 2 after cycle: %+v, %v", got2, err)
	}
}

// TestObservabilityOverHTTP drives a full task lifecycle through the public
// API, then reads it back through the observability surface: the per-task
// trace endpoint must return the ordered lifecycle, and the admin listener
// must serve well-formed Prometheus exposition covering queue depth, stage
// latencies, GWAP rates and WAL growth.
func TestObservabilityOverHTTP(t *testing.T) {
	var journal bytes.Buffer
	wal := store.NewWAL(&journal)
	cfg := core.DefaultConfig()
	cfg.Journal = wal
	sys := core.New(cfg)
	api := dispatch.NewServer(sys)
	srv := httptest.NewServer(api)
	defer srv.Close()
	client := dispatch.NewClient(srv.URL, srv.Client())

	admin := httptest.NewServer(dispatch.NewAdminHandler(sys, api, dispatch.AdminOptions{
		WAL:   wal,
		Ready: func() error { return nil },
	}))
	defer admin.Close()

	// Redundancy 2: two workers answer before the task completes.
	id, err := client.Submit(task.Label, task.Payload{ImageID: 7}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"ann", "bob"} {
		_, lease, err := client.Next(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := client.Answer(lease, task.Answer{Words: []int{5}}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := client.Task(id)
	if err != nil || got.Status != task.Done {
		t.Fatalf("task after answers: %+v, %v", got, err)
	}

	// The trace endpoint returns the full ordered lifecycle.
	tr, err := client.Trace(id)
	if err != nil {
		t.Fatal(err)
	}
	wantStages := []trace.Stage{
		trace.StageSubmit, trace.StagePersist, trace.StageEnqueue,
		trace.StageLease, trace.StageAnswer,
		trace.StageLease, trace.StageAnswer, trace.StageComplete,
	}
	if len(tr.Events) != len(wantStages) {
		t.Fatalf("trace = %d events (%+v), want %d", len(tr.Events), tr.Events, len(wantStages))
	}
	var prevSeq uint64
	for i, e := range tr.Events {
		if e.Stage != wantStages[i] {
			t.Errorf("trace[%d] stage = %q, want %q", i, e.Stage, wantStages[i])
		}
		if e.Seq <= prevSeq {
			t.Errorf("trace[%d] seq %d not strictly increasing", i, e.Seq)
		}
		prevSeq = e.Seq
	}

	// The admin exposition is well-formed and carries the expected families.
	resp, err := admin.Client().Get(admin.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200", resp.StatusCode)
	}
	sampleLine := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="[^"]*",?)*\})? (-?[0-9.eE+-]+|[+-]Inf|NaN)$`)
	values := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
		// A label value may hold spaces and braces (route="GET
		// /v1/tasks/{id}"); the sample value follows the last space.
		i := strings.LastIndexByte(line, ' ')
		values[line[:i]] = line[i+1:]
	}
	for name, want := range map[string]string{
		"hc_tasks_submitted_total": "1",
		"hc_answers_total":         "2",
		"hc_queue_open_tasks":      "0",
		"hc_inflight_leases":       "0",
		"hc_gwap_outputs_total":    "1",
		"hc_gwap_sessions_total":   "2",
		"hc_wal_events_total":      "3", // 1 submit + 2 answers
		"hc_wal_last_seq":          "3",
	} {
		if got := values[name]; got != want {
			t.Errorf("%s = %q, want %q", name, got, want)
		}
	}
	if v, ok := values["hc_wal_bytes_total"]; !ok || v == "0" {
		t.Errorf("hc_wal_bytes_total = %q, want non-zero", v)
	}
	for _, name := range []string{
		"hc_gwap_throughput_per_hour",
		"hc_gwap_alp_minutes",
		"hc_gwap_expected_contribution",
		`hc_task_time_in_queue_seconds_bucket{le="+Inf"}`,
		"hc_task_time_in_queue_seconds_count",
		"hc_task_lease_to_answer_seconds_count",
		"hc_task_answers_to_completion_seconds_count",
		"hc_queue_lock_acquisitions_total",
	} {
		if _, ok := values[name]; !ok {
			t.Errorf("metric %s missing from exposition", name)
		}
	}

	// The readiness probe follows the Ready callback.
	if resp, err := admin.Client().Get(admin.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %v, %v", resp, err)
	} else {
		resp.Body.Close()
	}
}
