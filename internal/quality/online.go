package quality

import (
	"math"
	"sync"
)

// OnlineDawidSkene is the streaming twin of DawidSkene: it maintains
// per-worker confusion matrices and per-task posteriors incrementally, one
// vote at a time, without ever re-scanning the full vote history. Each
// Observe call touches only the task the vote lands on — its current votes
// (bounded by the task's redundancy) and the confusion rows of the workers
// who cast them — so the cost per answer is O(votes-on-task × classes²),
// independent of how many tasks or answers the system has seen. This is
// incremental EM in the Neal–Hinton sense: instead of global E and M
// sweeps, the task's stale contribution to the sufficient statistics is
// subtracted, its posterior recomputed against the current statistics, and
// the fresh contribution added back.
//
// Completed tasks fold their final posterior into the statistics
// permanently (Complete) and are dropped from the active set, so memory is
// bounded by open choice tasks plus a fixed-size history ring kept for the
// online-vs-batch divergence gauge.
//
// Safe for concurrent use; one short mutex guards all state.
type OnlineDawidSkene struct {
	mu sync.Mutex

	k int

	priorFor func(worker string) (acc, weight float64)
	histCap  int

	priors  []float64 // class pseudo-counts, smoothing + active/folded posteriors
	workers map[string]*onlineWorker
	tasks   map[string]*onlineTask // active (not yet completed) tasks

	// history retains the vote sets and final posteriors of recently
	// completed tasks, FIFO-evicted at histCap, for DivergenceSample.
	history   map[string]*onlineTask
	histOrder []string
	histNext  int
}

// onlineWorker is one worker's confusion pseudo-counts:
// counts[true][voted], prior mass included.
type onlineWorker struct {
	counts [][]float64
}

// onlineTask is the per-task state: its votes and current posterior. While
// the task is active (and after Complete, at its final value) the posterior
// is reflected in the class priors and in each voter's confusion counts.
type onlineTask struct {
	votes []Vote
	post  []float64
	done  bool
}

// OnlineDSConfig parameterizes an OnlineDawidSkene.
type OnlineDSConfig struct {
	// Classes is the size of the label space (>= 2).
	Classes int
	// PriorFor, when set, seeds the confusion matrix of a first-seen
	// worker from external calibration (the gold-probe reputation
	// tracker): acc is the worker's estimated accuracy, weight the
	// pseudo-observations behind it. A non-positive weight means no
	// information and only the Dirichlet prior applies. This is the
	// reputation→confidence feedback loop: well-calibrated workers move
	// posteriors further per vote from their very first answer.
	PriorFor func(worker string) (acc, weight float64)
	// HistoryCap bounds how many completed tasks are retained for the
	// online-vs-batch divergence gauge. Zero selects 1024; negative
	// disables history.
	HistoryCap int
}

// NewOnlineDawidSkene returns an empty streaming estimator.
func NewOnlineDawidSkene(cfg OnlineDSConfig) *OnlineDawidSkene {
	if cfg.Classes < 2 {
		panic("quality: OnlineDawidSkene needs at least two classes")
	}
	if cfg.HistoryCap == 0 {
		cfg.HistoryCap = 1024
	}
	o := &OnlineDawidSkene{
		k:        cfg.Classes,
		priorFor: cfg.PriorFor,
		histCap:  cfg.HistoryCap,
		priors:   make([]float64, cfg.Classes),
		workers:  make(map[string]*onlineWorker),
		tasks:    make(map[string]*onlineTask),
		history:  make(map[string]*onlineTask),
	}
	for j := range o.priors {
		o.priors[j] = smooth
	}
	return o
}

// Observe folds one vote into the estimator and returns the task's updated
// posterior (a private copy) and how many votes it now carries. A class
// outside [0, Classes) is rejected with ok=false and changes nothing.
func (o *OnlineDawidSkene) Observe(taskID, worker string, class int) (post []float64, votes int, ok bool) {
	if class < 0 || class >= o.k {
		return nil, 0, false
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	t := o.tasks[taskID]
	if t == nil {
		// New task: start at the current class prior; its (vote-free)
		// contribution enters the priors immediately to keep the
		// subtract/add invariant uniform.
		t = &onlineTask{post: o.priorProbLocked()}
		o.tasks[taskID] = t
		o.addLocked(t)
	}
	o.ensureWorkerLocked(worker)
	o.subtractLocked(t)
	t.votes = append(t.votes, Vote{Worker: worker, Class: class})
	o.refreshLocked(t)
	o.addLocked(t)
	return append([]float64(nil), t.post...), len(t.votes), true
}

// Complete finalizes a task: its posterior is refreshed one last time, its
// contribution stays folded into the statistics, and the task moves from
// the active set to the bounded history ring. Completing an unknown or
// already-completed task is a no-op.
func (o *OnlineDawidSkene) Complete(taskID string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	t := o.tasks[taskID]
	if t == nil {
		return
	}
	if len(t.votes) > 0 {
		o.subtractLocked(t)
		o.refreshLocked(t)
		o.addLocked(t)
	}
	t.done = true
	delete(o.tasks, taskID)
	if o.histCap <= 0 {
		return
	}
	if len(o.histOrder) < o.histCap {
		o.histOrder = append(o.histOrder, taskID)
	} else {
		delete(o.history, o.histOrder[o.histNext])
		o.histOrder[o.histNext] = taskID
		o.histNext = (o.histNext + 1) % o.histCap
	}
	o.history[taskID] = t
}

// Posterior returns the task's current (or, for a recently completed task,
// final) posterior as a private copy, its vote count, and whether the
// estimator has finalized it. ok is false when the estimator has never
// seen the task or has already evicted it from history.
func (o *OnlineDawidSkene) Posterior(taskID string) (post []float64, votes int, done, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	t := o.tasks[taskID]
	if t == nil {
		t = o.history[taskID]
	}
	if t == nil {
		return nil, 0, false, false
	}
	return append([]float64(nil), t.post...), len(t.votes), t.done, true
}

// Tracked returns how many active tasks and distinct workers the estimator
// currently holds state for.
func (o *OnlineDawidSkene) Tracked() (tasks, workers int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.tasks), len(o.workers)
}

// priorProbLocked returns the normalized class prior.
func (o *OnlineDawidSkene) priorProbLocked() []float64 {
	p := append([]float64(nil), o.priors...)
	normalize(p)
	return p
}

// ensureWorkerLocked returns the worker's state, creating it — seeded from
// the Dirichlet prior plus any external calibration — on first sight.
func (o *OnlineDawidSkene) ensureWorkerLocked(name string) *onlineWorker {
	w := o.workers[name]
	if w != nil {
		return w
	}
	w = &onlineWorker{counts: newMatrix(o.k, smooth)}
	for j := 0; j < o.k; j++ {
		w.counts[j][j] += diagSmooth
	}
	if o.priorFor != nil {
		if acc, weight := o.priorFor(name); weight > 0 && acc > 0 && acc < 1 {
			off := (1 - acc) / float64(o.k-1)
			for j := 0; j < o.k; j++ {
				for l := 0; l < o.k; l++ {
					if l == j {
						w.counts[j][l] += acc * weight
					} else {
						w.counts[j][l] += off * weight
					}
				}
			}
		}
	}
	o.workers[name] = w
	return w
}

// subtractLocked removes t's contribution from the sufficient statistics:
// its posterior from the class priors, and posterior-weighted counts from
// each voter's confusion rows.
func (o *OnlineDawidSkene) subtractLocked(t *onlineTask) {
	for j := 0; j < o.k; j++ {
		o.priors[j] -= t.post[j]
	}
	for _, v := range t.votes {
		w := o.workers[v.Worker]
		for j := 0; j < o.k; j++ {
			w.counts[j][v.Class] -= t.post[j]
		}
	}
}

// addLocked is the inverse of subtractLocked.
func (o *OnlineDawidSkene) addLocked(t *onlineTask) {
	for j := 0; j < o.k; j++ {
		o.priors[j] += t.post[j]
	}
	for _, v := range t.votes {
		w := o.workers[v.Worker]
		for j := 0; j < o.k; j++ {
			w.counts[j][v.Class] += t.post[j]
		}
	}
}

// refreshLocked recomputes t's posterior from the current statistics.
// Caller has subtracted t's own contribution first, so the estimate is
// leave-one-out: a task never reinforces itself through its own stale
// posterior.
func (o *OnlineDawidSkene) refreshLocked(t *onlineTask) {
	logp := make([]float64, o.k)
	prior := o.priorProbLocked()
	for j := 0; j < o.k; j++ {
		logp[j] = logClamped(prior[j])
	}
	for _, v := range t.votes {
		w := o.workers[v.Worker]
		for j := 0; j < o.k; j++ {
			row := w.counts[j]
			sum := 0.0
			for l := 0; l < o.k; l++ {
				sum += row[l]
			}
			logp[j] += logClamped(row[v.Class] / sum)
		}
	}
	t.post = softmax(logp)
}

// logClamped is log(p) with p clamped away from 0 and 1.
func logClamped(p float64) float64 { return math.Log(clampProb(p)) }

// OnlineDSState is the serializable calibration state of an
// OnlineDawidSkene: class priors, per-worker confusion counts and the
// active tasks (votes plus posterior). The divergence history is
// observability-only and deliberately not part of the state.
type OnlineDSState struct {
	Classes int                        `json:"classes"`
	Priors  []float64                  `json:"priors"`
	Workers map[string][][]float64     `json:"workers,omitempty"`
	Tasks   map[string]OnlineTaskState `json:"tasks,omitempty"`
}

// OnlineTaskState is one active task's serialized state.
type OnlineTaskState struct {
	Votes []Vote    `json:"votes"`
	Post  []float64 `json:"post"`
}

// State exports a deep copy of the estimator's calibration state, suitable
// for embedding in a snapshot.
func (o *OnlineDawidSkene) State() OnlineDSState {
	o.mu.Lock()
	defer o.mu.Unlock()
	st := OnlineDSState{
		Classes: o.k,
		Priors:  append([]float64(nil), o.priors...),
		Workers: make(map[string][][]float64, len(o.workers)),
		Tasks:   make(map[string]OnlineTaskState, len(o.tasks)),
	}
	for name, w := range o.workers {
		m := make([][]float64, o.k)
		for j := range m {
			m[j] = append([]float64(nil), w.counts[j]...)
		}
		st.Workers[name] = m
	}
	for id, t := range o.tasks {
		st.Tasks[id] = OnlineTaskState{
			Votes: append([]Vote(nil), t.votes...),
			Post:  append([]float64(nil), t.post...),
		}
	}
	return st
}

// RestoreState replaces the estimator's calibration state with st (deep
// copied). The class count must match; mismatched or malformed state is
// rejected without modifying the estimator.
func (o *OnlineDawidSkene) RestoreState(st OnlineDSState) bool {
	if st.Classes != o.k || len(st.Priors) != o.k {
		return false
	}
	workers := make(map[string]*onlineWorker, len(st.Workers))
	for name, m := range st.Workers {
		if len(m) != o.k {
			return false
		}
		w := &onlineWorker{counts: make([][]float64, o.k)}
		for j, row := range m {
			if len(row) != o.k {
				return false
			}
			w.counts[j] = append([]float64(nil), row...)
		}
		workers[name] = w
	}
	tasks := make(map[string]*onlineTask, len(st.Tasks))
	for id, ts := range st.Tasks {
		if len(ts.Post) != o.k {
			return false
		}
		for _, v := range ts.Votes {
			if v.Class < 0 || v.Class >= o.k {
				return false
			}
			if workers[v.Worker] == nil {
				return false
			}
		}
		tasks[id] = &onlineTask{
			votes: append([]Vote(nil), ts.Votes...),
			post:  append([]float64(nil), ts.Post...),
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.priors = append([]float64(nil), st.Priors...)
	o.workers = workers
	o.tasks = tasks
	o.history = make(map[string]*onlineTask)
	o.histOrder = nil
	o.histNext = 0
	return true
}

// VoteSample is one task's votes and online posterior, snapshotted for an
// out-of-band batch comparison.
type VoteSample struct {
	TaskID string
	Votes  []Vote
	Post   []float64
}

// Sample returns up to max tasks' votes and online posteriors — active
// tasks first, then completed history — as private copies. Divergence
// against the batch estimator is computed by the caller outside the
// estimator's lock (see Divergence), so a metrics scrape never stalls the
// answer path for the duration of a full EM run.
func (o *OnlineDawidSkene) Sample(max int) []VoteSample {
	if max <= 0 {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]VoteSample, 0, max)
	take := func(id string, t *onlineTask) bool {
		if len(t.votes) == 0 {
			return true
		}
		out = append(out, VoteSample{
			TaskID: id,
			Votes:  append([]Vote(nil), t.votes...),
			Post:   append([]float64(nil), t.post...),
		})
		return len(out) < max
	}
	for _, id := range o.histOrder {
		if !take(id, o.history[id]) {
			return out
		}
	}
	for id, t := range o.tasks {
		if !take(id, t) {
			return out
		}
	}
	return out
}

// Divergence measures how far the online posteriors in sample have drifted
// from a full batch Dawid–Skene run over the same votes: the mean L1
// distance between the two posterior distributions, and how many tasks
// were compared. It is the online-vs-batch divergence gauge on the admin
// /metrics endpoint; a drift beyond a few percent says the streaming
// approximation is degrading and a batch re-estimate is warranted.
func Divergence(sample []VoteSample, numClasses int) (meanL1 float64, tasks int) {
	if len(sample) == 0 {
		return 0, 0
	}
	votes := make(map[string][]Vote, len(sample))
	for _, s := range sample {
		votes[s.TaskID] = s.Votes
	}
	batch := DawidSkene(votes, numClasses)
	total := 0.0
	for _, s := range sample {
		bp := batch.Posteriors[s.TaskID]
		if bp == nil || len(s.Post) != len(bp) {
			continue
		}
		d := 0.0
		for j := range bp {
			if diff := s.Post[j] - bp[j]; diff >= 0 {
				d += diff
			} else {
				d -= diff
			}
		}
		total += d
		tasks++
	}
	if tasks == 0 {
		return 0, 0
	}
	return total / float64(tasks), tasks
}
