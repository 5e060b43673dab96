// The streaming quality plane: an online Dawid–Skene estimator fed from
// the answer path, the confidence-OR-redundancy completion rule, and the
// durable calibration state (gold expectations, reputation tallies,
// estimator sufficient statistics) that rides inside snapshots and is
// rebuilt from the journal on crash recovery.

package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"humancomp/internal/metrics"
	"humancomp/internal/quality"
	"humancomp/internal/queue"
	"humancomp/internal/store"
	"humancomp/internal/task"
)

// choiceClasses is the label space of Compare/Judge tasks: {0, 1}.
const choiceClasses = 2

// Quality-plane errors.
var (
	// ErrQualityDisabled is returned by posterior queries when the system
	// runs without the online estimator (Config.OnlineQuality false).
	ErrQualityDisabled = errors.New("core: online quality estimation disabled")
	// ErrNoPosterior is returned when the estimator holds no state for the
	// task: a non-choice kind, no answers yet, or evicted history.
	ErrNoPosterior = errors.New("core: no posterior for task")
)

// qualityPlane bundles the streaming estimator with its instrumentation.
type qualityPlane struct {
	est        *quality.OnlineDawidSkene
	minAnswers int

	confidence      *metrics.Histogram // max-posterior at each observed answer
	earlyCompleted  metrics.Counter    // tasks finished by confidence, not redundancy
	redundancySaved metrics.Counter    // answers not collected thanks to early finishes
}

func newQualityPlane(rep *quality.Reputation, minAnswers int) *qualityPlane {
	if minAnswers <= 0 {
		minAnswers = 2
	}
	return &qualityPlane{
		est: quality.NewOnlineDawidSkene(quality.OnlineDSConfig{
			Classes: choiceClasses,
			// Reputation-seeded priors close the gold→confidence loop: a
			// worker with probe history starts with a sharpened confusion
			// matrix instead of the uninformed Dirichlet prior.
			PriorFor: func(worker string) (float64, float64) {
				probes := rep.Probes(worker)
				if probes == 0 {
					return 0, 0
				}
				return rep.Accuracy(worker), float64(probes)
			},
			// A finished task's posterior is readable for this many later
			// completions. The batch routes finish ~7 000 tasks/s on the
			// 2-core reference host, where the estimator's default of 1024
			// is 0.15 s — gone before a requester that saw the task done
			// can ask. This is ~2 s there and ~5 MiB (≈320 B a task) full.
			HistoryCap: 16384,
		}),
		minAnswers: minAnswers,
		confidence: metrics.NewHistogram(1024),
	}
}

// estKey is the estimator-side key of a task.
func estKey(id task.ID) string { return strconv.FormatInt(int64(id), 10) }

// observeAnswer folds one recorded answer into the quality plane and
// applies the completion rule: a choice task finishes when its posterior
// confidence crosses the configured target (with at least MinAnswers
// votes) OR when redundancy is met — whichever comes first; the queue
// journals an early finish as it journals an answer. It is called after
// the answer has been journaled and acknowledged, so the estimator never
// learns answers the log could lose. Gold probes are observed (their
// votes calibrate confusion matrices) but never finished early: they exist
// to probe as many workers as possible.
func (s *System) observeAnswer(res queue.CompleteResult, now time.Time) (conf float64, post []float64, early bool) {
	if s.qp == nil || (res.Kind != task.Compare && res.Kind != task.Judge) {
		return 0, nil, false
	}
	key := estKey(res.TaskID)
	post, _, ok := s.qp.est.Observe(key, res.Answer.WorkerID, res.Answer.Choice)
	if !ok {
		return 0, nil, false
	}
	conf = maxProb(post)
	s.qp.confidence.Observe(conf)
	if res.Status == task.Done {
		s.qp.est.Complete(key)
		return conf, post, false
	}
	if s.cfg.ConfidenceTarget > 0 && conf >= s.cfg.ConfidenceTarget &&
		res.Answers >= s.qp.minAnswers && !s.IsGold(res.TaskID) {
		if v, finished := s.queue.FinishEarly(res.TaskID, now); finished {
			s.qp.est.Complete(key)
			if saved := v.Redundancy - len(v.Answers); saved > 0 {
				s.qp.redundancySaved.Add(int64(saved))
			}
			s.qp.earlyCompleted.Inc()
			s.gwap.RecordOutputs(1)
			return conf, post, true
		}
	}
	return conf, post, false
}

func maxProb(p []float64) float64 {
	best := 0.0
	for _, v := range p {
		if v > best {
			best = v
		}
	}
	return best
}

// PosteriorInfo is the quality plane's view of one task.
type PosteriorInfo struct {
	TaskID     task.ID   `json:"task_id"`
	Posterior  []float64 `json:"posterior"`
	Confidence float64   `json:"confidence"`
	Votes      int       `json:"votes"`
	Done       bool      `json:"done"`
}

// TaskPosterior returns the online estimator's current class posterior for
// a choice task. ErrQualityDisabled without the estimator; ErrNoPosterior
// when it holds no state for the task.
func (s *System) TaskPosterior(id task.ID) (PosteriorInfo, error) {
	if s.qp == nil {
		return PosteriorInfo{}, ErrQualityDisabled
	}
	post, votes, done, ok := s.qp.est.Posterior(estKey(id))
	if !ok {
		return PosteriorInfo{}, fmt.Errorf("%w: task %d", ErrNoPosterior, id)
	}
	return PosteriorInfo{
		TaskID:     id,
		Posterior:  post,
		Confidence: maxProb(post),
		Votes:      votes,
		Done:       done,
	}, nil
}

// QualityStats is a snapshot of the quality plane's activity.
type QualityStats struct {
	Enabled         bool    `json:"enabled"`
	EarlyCompleted  int64   `json:"early_completed"`
	RedundancySaved int64   `json:"redundancy_saved"`
	TrackedTasks    int     `json:"tracked_tasks"`
	TrackedWorkers  int     `json:"tracked_workers"`
	ConfidenceCount int64   `json:"confidence_count"`
	ConfidenceMean  float64 `json:"confidence_mean"`
}

// QualityStats returns a snapshot of the quality plane's activity; the
// zero value when the estimator is disabled.
func (s *System) QualityStats() QualityStats {
	if s.qp == nil {
		return QualityStats{}
	}
	tasks, workers := s.qp.est.Tracked()
	return QualityStats{
		Enabled:         true,
		EarlyCompleted:  s.qp.earlyCompleted.Value(),
		RedundancySaved: s.qp.redundancySaved.Value(),
		TrackedTasks:    tasks,
		TrackedWorkers:  workers,
		ConfidenceCount: s.qp.confidence.Count(),
		ConfidenceMean:  s.qp.confidence.Mean(),
	}
}

// ConfidenceHistogram exposes the posterior-confidence histogram for
// metric exposition; nil when quality is disabled.
func (s *System) ConfidenceHistogram() *metrics.Histogram {
	if s.qp == nil {
		return nil
	}
	return s.qp.confidence
}

// QualityDivergence compares the online posteriors of up to max recently
// tracked tasks against a batch Dawid–Skene run over the same votes and
// returns the mean L1 distance and how many tasks were compared. The batch
// run happens outside the estimator's lock, so scrapes and gates never
// stall the answer path.
func (s *System) QualityDivergence(max int) (meanL1 float64, tasks int) {
	if s.qp == nil {
		return 0, 0
	}
	return quality.Divergence(s.qp.est.Sample(max), choiceClasses)
}

// calibrationState is the quality-plane sidecar embedded in snapshots:
// everything the answer path needs to keep calibrating after a restore —
// which tasks are gold probes and what they expect, the per-worker
// reputation tallies, and the online estimator's sufficient statistics.
type calibrationState struct {
	Gold       map[task.ID]task.Answer  `json:"gold,omitempty"`
	Reputation *quality.ReputationState `json:"reputation,omitempty"`
	OnlineDS   *quality.OnlineDSState   `json:"online_ds,omitempty"`
}

// Snapshot writes the store contents plus the calibration sidecar to w as
// one document, so task state and quality state are captured atomically.
func (s *System) Snapshot(w io.Writer) error {
	cal := calibrationState{}
	s.mu.RLock()
	if len(s.gold) > 0 {
		cal.Gold = make(map[task.ID]task.Answer, len(s.gold))
		for id, a := range s.gold {
			cal.Gold[id] = a
		}
	}
	s.mu.RUnlock()
	repState := s.rep.State()
	if len(repState.Total) > 0 {
		cal.Reputation = &repState
	}
	if s.qp != nil {
		est := s.qp.est.State()
		cal.OnlineDS = &est
	}
	raw, err := json.Marshal(cal)
	if err != nil {
		return fmt.Errorf("core: encoding calibration state: %w", err)
	}
	return s.store.SnapshotWith(w, raw)
}

// Restore replaces the store contents and the calibration state from a
// snapshot written by Snapshot (or by the bare store — older snapshots
// without a calibration sidecar restore task state and leave calibration
// empty, which is exactly the old behavior).
func (s *System) Restore(r io.Reader) error {
	raw, err := s.store.RestoreWith(r)
	if err != nil {
		return err
	}
	var cal calibrationState
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &cal); err != nil {
			return fmt.Errorf("core: decoding calibration state: %w", err)
		}
	}
	s.mu.Lock()
	s.gold = make(map[task.ID]task.Answer, len(cal.Gold))
	for id, a := range cal.Gold {
		s.gold[id] = a
	}
	s.mu.Unlock()
	if cal.Reputation != nil {
		if !s.rep.RestoreState(*cal.Reputation) {
			return errors.New("core: snapshot carries invalid reputation state")
		}
	} else {
		s.rep.RestoreState(quality.ReputationState{})
	}
	if s.qp != nil {
		if cal.OnlineDS != nil {
			if !s.qp.est.RestoreState(*cal.OnlineDS) {
				return errors.New("core: snapshot carries invalid estimator state")
			}
		} else {
			s.qp.est.RestoreState(quality.OnlineDSState{
				Classes: choiceClasses,
				Priors:  uniformPriors(choiceClasses),
			})
		}
	}
	return nil
}

func uniformPriors(k int) []float64 {
	p := make([]float64, k)
	for i := range p {
		p[i] = 0.1
	}
	return p
}

// ObserveRecoveredEvent rebuilds calibration state from one journal event
// during WAL recovery (see store.RecoverWALObserved). The store has
// already applied the event when this is called, so task lookups reflect
// post-event state. Ordinary replay rebuilds exactly what the live path
// maintained: gold expectations from submits, reputation tallies from
// answers scored against them, and estimator statistics from choice votes.
func (s *System) ObserveRecoveredEvent(e store.Event) {
	switch e.Kind {
	case store.EventSubmit:
		if e.Gold != nil && e.Task != nil {
			s.mu.Lock()
			s.gold[e.Task.ID] = *e.Gold
			s.mu.Unlock()
		}
	case store.EventAnswer:
		v, err := s.store.View(e.TaskID)
		if err != nil {
			return
		}
		s.mu.RLock()
		expected, isGold := s.gold[e.TaskID]
		s.mu.RUnlock()
		if isGold {
			s.rep.Record(e.Answer.WorkerID, AnswerMatches(v.Kind, expected, *e.Answer))
			s.goldChecked.Inc()
		}
		if s.qp != nil && (v.Kind == task.Compare || v.Kind == task.Judge) {
			key := estKey(e.TaskID)
			s.qp.est.Observe(key, e.Answer.WorkerID, e.Answer.Choice)
			if v.Status != task.Open {
				s.qp.est.Complete(key)
			}
		}
	case store.EventFinish:
		if s.qp != nil {
			s.qp.est.Complete(estKey(e.TaskID))
		}
	}
}
