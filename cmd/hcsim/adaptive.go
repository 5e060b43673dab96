// The adaptive-redundancy experiment: does the streaming quality plane
// (online Dawid–Skene + confidence-based early completion) deliver the
// same decision accuracy as fixed redundancy while collecting materially
// fewer answers?
//
// Two arms run over identical populations and ground truth, in-process
// against core.System so the comparison isolates the completion rule:
//
//   - fixed: every Judge task collects its full redundancy.
//   - adaptive: a task completes as soon as its posterior confidence
//     crosses the target (with a minimum answer count).
//
// The design is paired: every worker's would-be vote on every task is
// drawn once (sim.ChoiceVotes) and both arms replay the same table, so
// the only difference between arms is which votes get collected before
// the completion rule fires. Both arms calibrate the crowd on gold
// probes first and decode task labels from the estimator's posterior.
// -gate turns the report into a CI assertion: answers saved >= 20%,
// accuracy within 1 point of the fixed baseline, online posteriors
// within tolerance of a batch EM re-run.
package main

import (
	"errors"
	"fmt"
	"log"
	"os"

	"humancomp/internal/core"
	"humancomp/internal/queue"
	"humancomp/internal/rng"
	"humancomp/internal/sim"
	"humancomp/internal/task"
	"humancomp/internal/worker"
)

// qualityGoldProbes is how many gold probes calibrate each arm's crowd
// before real work starts.
const qualityGoldProbes = 24

// goldImageBase offsets probe image IDs past every real task's, so the
// vote tables can tell the two apart.
const goldImageBase = 1 << 20

// qualityWorkload is everything shared between the two arms: the crowd,
// the ground truth, and the precomputed paired vote tables.
type qualityWorkload struct {
	ws        []*worker.Worker
	wIdx      map[string]int // worker ID -> column in the vote tables
	truth     []int          // real task ImageID -> true class
	votes     [][]int        // [task][worker] votes on real tasks
	goldVotes [][]int        // [probe][worker] votes on gold probes
}

// newQualityWorkload builds the experiment's shared inputs from one seed:
// a crowd of 60% good honest workers, 30% mediocre honest workers and 10%
// colluders who always vote 0 (the biased voter a confusion matrix
// discounts and plain majority cannot), a 70/30 imbalanced ground truth,
// and the paired vote tables.
func newQualityWorkload(nTasks, nWorkers int, seed uint64) *qualityWorkload {
	src := rng.New(seed)
	wl := &qualityWorkload{
		ws:   make([]*worker.Worker, nWorkers),
		wIdx: make(map[string]int, nWorkers),
	}
	for i := range wl.ws {
		p := worker.Profile{}
		behavior := worker.Honest
		switch {
		case i%10 == 9:
			behavior = worker.Colluder
		case i%10 >= 6:
			p.Accuracy = 0.55 + 0.15*src.Float64()
		default:
			p.Accuracy = 0.85 + 0.10*src.Float64()
		}
		id := fmt.Sprintf("w%03d", i)
		wl.ws[i] = worker.New(id, behavior, p, src)
		wl.wIdx[id] = i
	}
	wl.truth = make([]int, nTasks)
	for i := range wl.truth {
		if src.Float64() < 0.3 {
			wl.truth[i] = 1
		}
	}
	goldTruth := make([]int, qualityGoldProbes)
	for i := range goldTruth {
		goldTruth[i] = i % 2
	}
	wl.votes = sim.ChoiceVotes(wl.ws, wl.truth, 2)
	wl.goldVotes = sim.ChoiceVotes(wl.ws, goldTruth, 2)
	return wl
}

// voteOf looks up the paired vote of a worker on a leased task.
func (wl *qualityWorkload) voteOf(workerID string, imageID int) int {
	col := wl.wIdx[workerID]
	if imageID >= goldImageBase {
		return wl.goldVotes[imageID-goldImageBase][col]
	}
	return wl.votes[imageID][col]
}

// armResult is one arm's measured outcome.
type armResult struct {
	name            string
	answersPerTask  float64 // answers collected per completed real task (gold excluded)
	accuracy        float64 // posterior-argmax decisions matching ground truth
	earlyCompleted  int64
	redundancySaved int64
	divergence      float64 // mean L1, online vs batch EM posteriors
	divergenceTasks int
}

// drainQueue lets the crowd answer everything leasable: workers rotate,
// each leasing and answering one task at a time, until a full rotation
// finds nothing. Answers rejected because a task finished early between
// votes are dropped silently — that is the adaptive arm working.
func drainQueue(sys *core.System, wl *qualityWorkload) {
	for {
		idle := true
		for _, w := range wl.ws {
			v, lease, err := sys.NextTask(w.ID)
			if err != nil {
				continue // nothing leasable for this worker right now
			}
			idle = false
			a := task.Answer{Choice: wl.voteOf(w.ID, v.Payload.ImageID)}
			err = sys.SubmitAnswer(lease, a)
			if err != nil && !errors.Is(err, task.ErrWrongStatus) &&
				!errors.Is(err, queue.ErrUnknownLease) {
				log.Fatalf("hcsim: answering task %d: %v", v.ID, err)
			}
		}
		if idle {
			return
		}
	}
}

// runQualityArm runs one arm: calibrate on gold, submit the Judge
// workload, drain it, decode and score.
func runQualityArm(name string, adaptive bool, wl *qualityWorkload, redundancy int, target float64) armResult {
	cfg := core.DefaultConfig()
	cfg.OnlineQuality = true
	cfg.QualityMinAnswers = 3
	if adaptive {
		cfg.ConfidenceTarget = target
	}
	sys := core.New(cfg)

	// Calibration phase: every worker answers every gold probe, so each
	// enters the real workload with a reputation-seeded confusion prior.
	for i := 0; i < qualityGoldProbes; i++ {
		expected := task.Answer{Choice: i % 2}
		if _, err := sys.SubmitGold(task.Judge, task.Payload{ImageID: goldImageBase + i}, len(wl.ws), 0, expected); err != nil {
			log.Fatalf("hcsim: submitting gold probe: %v", err)
		}
	}
	drainQueue(sys, wl)

	ids := make([]task.ID, len(wl.truth))
	for i := range ids {
		id, err := sys.SubmitTask(task.Judge, task.Payload{ImageID: i}, redundancy, 0)
		if err != nil {
			log.Fatalf("hcsim: submitting judge task: %v", err)
		}
		ids[i] = id
	}
	drainQueue(sys, wl)

	answers, correct := 0, 0
	for i, id := range ids {
		v, err := sys.Task(id)
		if err != nil {
			log.Fatalf("hcsim: fetching task %d: %v", id, err)
		}
		if v.Status != task.Done {
			log.Fatalf("hcsim: task %d not completed (status %v, %d answers)", id, v.Status, len(v.Answers()))
		}
		answers += len(v.Answers())
		info, err := sys.TaskPosterior(id)
		if err != nil {
			log.Fatalf("hcsim: posterior for task %d: %v", id, err)
		}
		decided := 0
		if info.Posterior[1] > info.Posterior[0] {
			decided = 1
		}
		if decided == wl.truth[i] {
			correct++
		}
	}
	st := sys.QualityStats()
	meanL1, nDiv := sys.QualityDivergence(256)
	return armResult{
		name:            name,
		answersPerTask:  float64(answers) / float64(len(ids)),
		accuracy:        float64(correct) / float64(len(ids)),
		earlyCompleted:  st.EarlyCompleted,
		redundancySaved: st.RedundancySaved,
		divergence:      meanL1,
		divergenceTasks: nDiv,
	}
}

// runQuality runs both arms over one paired workload and prints the
// comparison; under -gate it exits non-zero when adaptive redundancy
// fails to pay for itself.
func runQuality(nTasks, redundancy, nWorkers int, target float64, seed uint64, gate bool) {
	wl := newQualityWorkload(nTasks, nWorkers, seed)
	fixed := runQualityArm("fixed", false, wl, redundancy, target)
	adaptive := runQualityArm("adaptive", true, wl, redundancy, target)

	savings := 1 - adaptive.answersPerTask/fixed.answersPerTask
	accDelta := adaptive.accuracy - fixed.accuracy

	fmt.Printf("quality experiment: tasks=%d redundancy=%d workers=%d target=%.2f seed=%d\n",
		nTasks, redundancy, nWorkers, target, seed)
	for _, arm := range []armResult{fixed, adaptive} {
		fmt.Printf("  %-8s answers/task=%.2f accuracy=%.3f early=%d saved=%d divergence=%.3f (n=%d)\n",
			arm.name, arm.answersPerTask, arm.accuracy,
			arm.earlyCompleted, arm.redundancySaved, arm.divergence, arm.divergenceTasks)
	}
	fmt.Printf("  answers saved: %.1f%%  accuracy delta: %+.3f\n", 100*savings, accDelta)

	if !gate {
		return
	}
	failed := false
	check := func(ok bool, format string, args ...any) {
		if !ok {
			failed = true
			fmt.Printf("  GATE FAIL: "+format+"\n", args...)
		}
	}
	check(savings >= 0.20, "answers saved %.1f%% < 20%%", 100*savings)
	check(accDelta >= -0.01, "adaptive accuracy %.3f more than 1 point below fixed %.3f",
		adaptive.accuracy, fixed.accuracy)
	check(adaptive.divergence <= 0.25, "online/batch divergence %.3f > 0.25", adaptive.divergence)
	check(adaptive.earlyCompleted > 0, "no task completed early despite target %.2f", target)
	if failed {
		os.Exit(1)
	}
	fmt.Println("  gate: ok")
}
