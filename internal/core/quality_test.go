package core

import (
	"bytes"
	"errors"
	"testing"

	"humancomp/internal/queue"
	"humancomp/internal/store"
	"humancomp/internal/task"
)

func newQualitySystem(target float64) (*System, *fakeClock) {
	clk := &fakeClock{now: t0}
	cfg := DefaultConfig()
	cfg.Clock = clk
	cfg.OnlineQuality = true
	cfg.ConfidenceTarget = target
	cfg.QualityMinAnswers = 2
	return New(cfg), clk
}

// calibrate runs workers through gold Judge probes so their reputations and
// estimator confusion rows sharpen. Each probe has redundancy len(workers)
// and every worker answers it correctly.
func calibrate(t *testing.T, s *System, workers []string, probes int) {
	t.Helper()
	for i := 0; i < probes; i++ {
		expected := task.Answer{Choice: i % 2}
		id, err := s.SubmitGold(task.Judge, task.Payload{Detail: &task.Detail{ClipA: i, ClipB: i + 1}}, len(workers), 0, expected)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workers {
			_, lease, err := s.NextTask(w)
			if err != nil {
				t.Fatalf("worker %s leasing probe %d: %v", w, id, err)
			}
			if err := s.SubmitAnswer(lease, task.Answer{Choice: expected.Choice}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestEarlyCompletionOnConfidence(t *testing.T) {
	s, _ := newQualitySystem(0.95)
	workers := []string{"w1", "w2"}
	calibrate(t, s, workers, 10)

	id, err := s.SubmitTask(task.Judge, task.Payload{Detail: &task.Detail{ClipA: 100, ClipB: 101}}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		v, lease, err := s.NextTask(w)
		if err != nil || v.ID != id {
			t.Fatalf("worker %s lease: %v %v", w, v.ID, err)
		}
		if err := s.SubmitAnswer(lease, task.Answer{Choice: 1}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Task(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != task.Done {
		pi, perr := s.TaskPosterior(id)
		t.Fatalf("task should have finished early: status=%v answers=%d posterior=%v (%v)",
			got.Status, len(got.Answers()), pi.Posterior, perr)
	}
	if len(got.Answers()) != 2 {
		t.Fatalf("early-done task has %d answers, want 2", len(got.Answers()))
	}
	qs := s.Stats().Quality
	if qs.EarlyCompleted != 1 || qs.RedundancySaved != 3 {
		t.Fatalf("quality stats: %+v (want 1 early, 3 saved)", qs)
	}
	pi, err := s.TaskPosterior(id)
	if err != nil {
		t.Fatal(err)
	}
	if !pi.Done || pi.Votes != 2 || pi.Confidence < 0.95 || len(pi.Posterior) != 2 {
		t.Fatalf("posterior after early finish: %+v", pi)
	}
	// The finished task must not lease out again.
	if _, _, err := s.NextTask("w3"); !errors.Is(err, queue.ErrEmpty) {
		t.Fatalf("finished task still leasable: %v", err)
	}
}

func TestNoEarlyCompletionWithoutTarget(t *testing.T) {
	s, _ := newQualitySystem(0) // estimator on, early completion off
	workers := []string{"w1", "w2"}
	calibrate(t, s, workers, 10)
	id, err := s.SubmitTask(task.Judge, task.Payload{Detail: &task.Detail{ClipA: 100, ClipB: 101}}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		_, lease, err := s.NextTask(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SubmitAnswer(lease, task.Answer{Choice: 1}); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := s.Task(id)
	if got.Status != task.Open {
		t.Fatalf("task finished without a confidence target: %v", got.Status)
	}
	if qs := s.Stats().Quality; qs.EarlyCompleted != 0 || qs.RedundancySaved != 0 {
		t.Fatalf("quality stats without target: %+v", qs)
	}
}

func TestGoldProbesNeverFinishEarly(t *testing.T) {
	s, _ := newQualitySystem(0.8)
	workers := []string{"w1", "w2", "w3", "w4"}
	calibrate(t, s, workers, 8)
	// A fresh gold probe with room for all four workers: even at high
	// confidence it must keep collecting answers.
	id, err := s.SubmitGold(task.Judge, task.Payload{Detail: &task.Detail{ClipA: 50, ClipB: 51}}, len(workers), 0, task.Answer{Choice: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range workers[:3] {
		_, lease, err := s.NextTask(w)
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		if err := s.SubmitAnswer(lease, task.Answer{Choice: 1}); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := s.Task(id)
	if got.Status != task.Open {
		t.Fatalf("gold probe finished early at %d/%d answers", len(got.Answers()), len(workers))
	}
}

func TestTaskPosteriorErrors(t *testing.T) {
	s, _ := newSystem() // quality disabled
	if _, err := s.TaskPosterior(1); !errors.Is(err, ErrQualityDisabled) {
		t.Fatalf("disabled system: %v", err)
	}
	qs, _ := newQualitySystem(0)
	id, err := qs.SubmitTask(task.Judge, task.Payload{Detail: &task.Detail{ClipA: 1, ClipB: 2}}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := qs.TaskPosterior(id); !errors.Is(err, ErrNoPosterior) {
		t.Fatalf("unanswered task: %v", err)
	}
}

func TestBadChoiceRejectedAtSubmission(t *testing.T) {
	s, _ := newSystem()
	id, err := s.SubmitTask(task.Judge, task.Payload{Detail: &task.Detail{ClipA: 1, ClipB: 2}}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, lease, err := s.NextTask("w1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitAnswer(lease, task.Answer{Choice: 7}); !errors.Is(err, task.ErrBadChoice) {
		t.Fatalf("out-of-range choice: %v", err)
	}
	if err := s.SubmitAnswer(lease, task.Answer{Choice: -1}); !errors.Is(err, task.ErrBadChoice) {
		t.Fatalf("negative choice: %v", err)
	}
	got, _ := s.Task(id)
	if len(got.Answers()) != 0 {
		t.Fatalf("poisoned votes recorded: %d", len(got.Answers()))
	}
	// Batch path: the bad item reports its own error, the good one lands.
	if err := s.SubmitAnswer(lease, task.Answer{Choice: 1}); err != nil {
		t.Fatal(err)
	}
	_, lease2, err := s.NextTask("w2")
	if err != nil {
		t.Fatal(err)
	}
	outs := s.AnswerBatchDetailed([]queue.CompleteItem{
		{Lease: lease2, Answer: task.Answer{Choice: 9}},
	})
	if !errors.Is(outs[0].Err, task.ErrBadChoice) {
		t.Fatalf("batch bad choice: %v", outs[0].Err)
	}
}

func TestGoldExpectedValidated(t *testing.T) {
	s, _ := newSystem()
	if _, err := s.SubmitGold(task.Judge, task.Payload{Detail: &task.Detail{ClipA: 1, ClipB: 2}}, 2, 0, task.Answer{Choice: 5}); !errors.Is(err, task.ErrBadChoice) {
		t.Fatalf("poisoned gold expectation accepted: %v", err)
	}
	if _, err := s.SubmitGold(task.Transcribe, task.Payload{Detail: &task.Detail{WordImg: "x"}}, 2, 0, task.Answer{}); !errors.Is(err, task.ErrEmptyAnswer) {
		t.Fatalf("empty gold expectation accepted: %v", err)
	}
	outs := s.SubmitBatch([]SubmitSpec{
		{Kind: task.Judge, Payload: task.Payload{Detail: &task.Detail{ClipA: 1, ClipB: 2}}, Redundancy: 2, Gold: true, Expected: task.Answer{Choice: 3}},
		{Kind: task.Judge, Payload: task.Payload{Detail: &task.Detail{ClipA: 3, ClipB: 4}}, Redundancy: 2, Gold: true, Expected: task.Answer{Choice: 1}},
	})
	if !errors.Is(outs[0].Err, task.ErrBadChoice) {
		t.Fatalf("batch poisoned gold: %v", outs[0].Err)
	}
	if outs[1].Err != nil {
		t.Fatalf("batch valid gold: %v", outs[1].Err)
	}
	if !s.IsGold(outs[1].ID) {
		t.Fatal("valid batch gold not registered")
	}
}

func TestCalibrationSnapshotRoundTrip(t *testing.T) {
	s, _ := newQualitySystem(0)
	workers := []string{"w1", "w2"}
	calibrate(t, s, workers, 6)
	// Leave one choice task mid-stream so active estimator state is in play.
	id, err := s.SubmitTask(task.Judge, task.Payload{Detail: &task.Detail{ClipA: 9, ClipB: 10}}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, lease, err := s.NextTask("w1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitAnswer(lease, task.Answer{Choice: 0}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s2, _ := newQualitySystem(0)
	if err := s2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	s2.RequeueOpen()
	// Gold expectations survive.
	goldSeen := 0
	for _, tk := range s2.Store().Tasks(store.AnyStatus) {
		if s2.IsGold(tk.ID) {
			goldSeen++
		}
	}
	if goldSeen != 6 {
		t.Fatalf("gold probes after restore: %d, want 6", goldSeen)
	}
	// Reputation tallies survive.
	for _, w := range workers {
		if a, b := s.rep.Accuracy(w), s2.rep.Accuracy(w); a != b {
			t.Fatalf("reputation for %s drifted: %v vs %v", w, a, b)
		}
		if s2.rep.Probes(w) != 6 {
			t.Fatalf("probes for %s after restore: %d", w, s2.rep.Probes(w))
		}
	}
	// Estimator posteriors survive, including the in-flight task.
	p1, err := s.TaskPosterior(id)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s2.TaskPosterior(id)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Votes != p2.Votes || len(p1.Posterior) != len(p2.Posterior) {
		t.Fatalf("posterior state drifted: %+v vs %+v", p1, p2)
	}
	for j := range p1.Posterior {
		if d := p1.Posterior[j] - p2.Posterior[j]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("posterior drifted: %v vs %v", p1.Posterior, p2.Posterior)
		}
	}
	// An old-format snapshot (bare store, no sidecar) restores cleanly with
	// empty calibration.
	var bare bytes.Buffer
	if err := s.Store().Snapshot(&bare); err != nil {
		t.Fatal(err)
	}
	s3, _ := newQualitySystem(0)
	if err := s3.Restore(&bare); err != nil {
		t.Fatalf("old-format snapshot rejected: %v", err)
	}
	if s3.rep.Probes("w1") != 0 {
		t.Fatal("stale reputation after bare restore")
	}
}

func TestCalibrationJournalReplay(t *testing.T) {
	var log bytes.Buffer
	wal := store.NewWAL(&log)
	clk := &fakeClock{now: t0}
	cfg := DefaultConfig()
	cfg.Clock = clk
	cfg.Journal = wal
	cfg.OnlineQuality = true
	cfg.ConfidenceTarget = 0.95
	cfg.QualityMinAnswers = 2
	s := New(cfg)

	workers := []string{"w1", "w2"}
	calibrate(t, s, workers, 10)
	id, err := s.SubmitTask(task.Judge, task.Payload{Detail: &task.Detail{ClipA: 100, ClipB: 101}}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		_, lease, err := s.NextTask(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SubmitAnswer(lease, task.Answer{Choice: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := s.Task(id); v.Status != task.Done {
		t.Fatalf("precondition: early finish did not happen (status %v)", v.Status)
	}

	// Replay the whole journal into a fresh system, observing calibration.
	cfg2 := DefaultConfig()
	cfg2.Clock = &fakeClock{now: t0}
	cfg2.OnlineQuality = true
	s2 := New(cfg2)
	if _, err := store.ReplayWALObserved(bytes.NewReader(log.Bytes()), s2.Store(), s2.ObserveRecoveredEvent); err != nil {
		t.Fatal(err)
	}
	s2.RequeueOpen()
	// The early finish replayed: task is Done with only two answers.
	v, err := s2.Task(id)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != task.Done || len(v.Answers()) != 2 {
		t.Fatalf("after replay: status=%v answers=%d", v.Status, len(v.Answers()))
	}
	// Gold expectations and reputation tallies rebuilt from the journal.
	for _, w := range workers {
		if got := s2.rep.Probes(w); got != 10 {
			t.Fatalf("probes for %s after replay: %d, want 10", w, got)
		}
		if a, b := s.rep.Accuracy(w), s2.rep.Accuracy(w); a != b {
			t.Fatalf("reputation for %s drifted after replay: %v vs %v", w, a, b)
		}
	}
	goldCount := 0
	for _, tk := range s2.Store().Tasks(store.AnyStatus) {
		if s2.IsGold(tk.ID) {
			goldCount++
		}
	}
	if goldCount != 10 {
		t.Fatalf("gold probes after replay: %d, want 10", goldCount)
	}
	// A worker answering a recovered gold probe is still scored: submit a
	// fresh probe pre-crash, answer it post-replay.
	if s2.rep.Probes("w3") != 0 {
		t.Fatal("unexpected probes for w3")
	}
}

func TestQualityDivergenceBounded(t *testing.T) {
	s, _ := newQualitySystem(0)
	calibrate(t, s, []string{"w1", "w2", "w3"}, 20)
	meanL1, n := s.QualityDivergence(64)
	if n == 0 {
		t.Fatal("divergence compared no tasks")
	}
	if meanL1 > 0.25 {
		t.Fatalf("online-vs-batch divergence: %.3f over %d tasks", meanL1, n)
	}
}
