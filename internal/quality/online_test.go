package quality

import (
	"fmt"
	"sort"
	"testing"

	"humancomp/internal/rng"
)

// streamWorker is a simulated annotator for the convergence tests.
type streamWorker struct {
	name string
	// confusion[true][voted]
	confusion [][]float64
}

func streamPopulation(src *rng.Source, k, n int) []streamWorker {
	ws := make([]streamWorker, n)
	for i := range ws {
		m := newMatrix(k, 0)
		switch {
		case i%10 == 9:
			// Biased worker: votes class 0 almost regardless of truth.
			for j := 0; j < k; j++ {
				for l := 0; l < k; l++ {
					m[j][l] = 0.05 / float64(k-1)
				}
				m[j][0] = 0.95
			}
		default:
			// Honest worker with accuracy in [0.65, 0.95].
			acc := 0.65 + 0.30*src.Float64()
			for j := 0; j < k; j++ {
				for l := 0; l < k; l++ {
					if l == j {
						m[j][l] = acc
					} else {
						m[j][l] = (1 - acc) / float64(k-1)
					}
				}
			}
		}
		ws[i] = streamWorker{name: fmt.Sprintf("w%02d", i), confusion: m}
	}
	return ws
}

func (w streamWorker) vote(src *rng.Source, truth, k int) int {
	r := src.Float64()
	cum := 0.0
	for l := 0; l < k; l++ {
		cum += w.confusion[truth][l]
		if r < cum {
			return l
		}
	}
	return k - 1
}

// streamCorpus builds a corpus of tasks with imbalanced class truth
// (P(class 0) = bias) and per-task votes from a random subset of workers.
func streamCorpus(src *rng.Source, k, numTasks, votesPer int, bias float64) (votes map[string][]Vote, truth map[string]int) {
	workers := streamPopulation(src, k, 20)
	votes = make(map[string][]Vote, numTasks)
	truth = make(map[string]int, numTasks)
	for i := 0; i < numTasks; i++ {
		id := fmt.Sprintf("t%04d", i)
		c := 0
		if src.Float64() >= bias {
			c = 1 + src.Intn(k-1)
		}
		truth[id] = c
		perm := src.Perm(len(workers))
		vs := make([]Vote, 0, votesPer)
		for _, wi := range perm[:votesPer] {
			w := workers[wi]
			vs = append(vs, Vote{Worker: w.name, Class: w.vote(src, c, k)})
		}
		votes[id] = vs
	}
	return votes, truth
}

// sortedIDs returns the corpus's task IDs in a fixed order: the online
// estimator's result depends on the order votes arrive in, so a test that
// streamed them in map order would measure a different stream every run.
func sortedIDs(votes map[string][]Vote) []string {
	ids := make([]string, 0, len(votes))
	for id := range votes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// feedOnline streams the corpus into a fresh online estimator one vote at a
// time, interleaving across tasks (round-robin by vote index, tasks in ID
// order) the way a live answer stream would, and returns the final
// posteriors.
func feedOnline(votes map[string][]Vote, k int) map[string][]float64 {
	o := NewOnlineDawidSkene(OnlineDSConfig{Classes: k})
	maxVotes := 0
	ids := sortedIDs(votes)
	for _, vs := range votes {
		if len(vs) > maxVotes {
			maxVotes = len(vs)
		}
	}
	for round := 0; round < maxVotes; round++ {
		for _, id := range ids {
			vs := votes[id]
			if round >= len(vs) {
				continue
			}
			if _, _, ok := o.Observe(id, vs[round].Worker, vs[round].Class); !ok {
				panic("observe rejected a valid vote")
			}
		}
	}
	out := make(map[string][]float64, len(votes))
	for _, id := range ids {
		p, _, _, ok := o.Posterior(id)
		if !ok {
			panic("posterior missing for fed task")
		}
		out[id] = p
	}
	return out
}

func agreement(online map[string][]float64, batch DSResult) (labelAgree, meanL1 float64) {
	n := 0
	for id, p := range online {
		bp := batch.Posteriors[id]
		if argmax(p) == batch.Labels[id] {
			labelAgree++
		}
		for j := range bp {
			d := p[j] - bp[j]
			if d < 0 {
				d = -d
			}
			meanL1 += d
		}
		n++
	}
	return labelAgree / float64(n), meanL1 / float64(n)
}

// convergenceSeeds is the fixed draw list of TestOnlineConvergesToBatch:
// twelve ordinary seeds and the twelve worst draws of seeds 1, 3, …, 2001
// (lowest label agreement, highest L1 or lowest batch accuracy in one of
// the three cases). The test used to draw eight time-seeded corpora per
// case and stream them in map order, and failed about one run in three.
var convergenceSeeds = []uint64{1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23,
	45, 373, 411, 425, 455, 523, 717, 815, 1291, 1465, 1783, 1955}

// TestOnlineConvergesToBatch is the satellite property test: streaming the
// same vote set one answer at a time must land within tolerance of a full
// batch Dawid–Skene run, including with biased workers (the population has
// always-vote-0 raters) and imbalanced classes.
//
// The tolerances are what the estimator achieves, not what one would like.
// Per draw: over those 1001 seeds the worst corpus has label agreement
// 0.82, mean L1 0.354 and batch accuracy 0.787, so a single draw must stay
// inside 0.80 / 0.37 / 0.77. Across the list: the means are 0.945–0.955
// and 0.103–0.112 even with the worst draws in it, so the typical draw is
// held to 0.93 / 0.13 — tighter than the 0.90 / 0.20 every draw used to be
// held to, which about one draw in sixty misses.
func TestOnlineConvergesToBatch(t *testing.T) {
	cases := []struct {
		name string
		k    int
		bias float64
	}{
		{"binary-balanced", 2, 0.5},
		{"binary-imbalanced", 2, 0.75},
		{"multiclass-imbalanced", 4, 0.55},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sumAgree, sumL1 float64
			for _, seed := range convergenceSeeds {
				votes, truth := streamCorpus(rng.New(seed), tc.k, 150, 5, tc.bias)
				online := feedOnline(votes, tc.k)
				batch := DawidSkene(votes, tc.k)
				labelAgree, meanL1 := agreement(online, batch)
				if labelAgree < 0.80 || meanL1 > 0.37 {
					t.Errorf("seed %d: label agreement %.3f, mean L1 %.3f", seed, labelAgree, meanL1)
				}
				sumAgree += labelAgree
				sumL1 += meanL1
				// Both estimators must actually be good, not agreeing on
				// garbage: check batch accuracy against ground truth.
				hit := 0
				for id, c := range truth {
					if batch.Labels[id] == c {
						hit++
					}
				}
				if acc := float64(hit) / float64(len(truth)); acc < 0.77 {
					t.Errorf("seed %d: batch accuracy %.3f suspiciously low", seed, acc)
				}
			}
			n := float64(len(convergenceSeeds))
			if sumAgree/n < 0.93 || sumL1/n > 0.13 {
				t.Errorf("over %d draws: mean label agreement %.3f, mean L1 %.3f", len(convergenceSeeds), sumAgree/n, sumL1/n)
			}
		})
	}
}

// TestOnlineReputationSeedSharpensPosterior: a worker with strong gold
// calibration should move a task's posterior further on their first vote
// than an unknown worker does.
func TestOnlineReputationSeedSharpensPosterior(t *testing.T) {
	seeded := NewOnlineDawidSkene(OnlineDSConfig{
		Classes: 2,
		PriorFor: func(worker string) (float64, float64) {
			if worker == "trusted" {
				return 0.95, 20
			}
			return 0, 0
		},
	})
	plain := NewOnlineDawidSkene(OnlineDSConfig{Classes: 2})
	ps, _, _ := seeded.Observe("t1", "trusted", 1)
	pp, _, _ := plain.Observe("t1", "unknown", 1)
	if ps[1] <= pp[1] {
		t.Fatalf("reputation-seeded vote should be sharper: seeded %.4f vs plain %.4f", ps[1], pp[1])
	}
}

// TestOnlineRejectsBadClass: out-of-range classes must be rejected without
// perturbing state.
func TestOnlineRejectsBadClass(t *testing.T) {
	o := NewOnlineDawidSkene(OnlineDSConfig{Classes: 2})
	if _, _, ok := o.Observe("t1", "w1", -1); ok {
		t.Fatal("negative class accepted")
	}
	if _, _, ok := o.Observe("t1", "w1", 2); ok {
		t.Fatal("out-of-range class accepted")
	}
	if tasks, workers := o.Tracked(); tasks != 0 || workers != 0 {
		t.Fatalf("rejected votes left state behind: %d tasks, %d workers", tasks, workers)
	}
}

// TestOnlineStateRoundTrip: State/RestoreState must reproduce posteriors
// exactly, including for tasks still in flight.
func TestOnlineStateRoundTrip(t *testing.T) {
	src := rng.New(42)
	votes, _ := streamCorpus(src, 2, 40, 3, 0.6)
	o := NewOnlineDawidSkene(OnlineDSConfig{Classes: 2})
	i := 0
	for id, vs := range votes {
		for j, v := range vs {
			// Leave some tasks mid-stream so active state is exercised.
			if i%3 == 0 && j == len(vs)-1 {
				continue
			}
			o.Observe(id, v.Worker, v.Class)
		}
		i++
	}
	st := o.State()
	o2 := NewOnlineDawidSkene(OnlineDSConfig{Classes: 2})
	if !o2.RestoreState(st) {
		t.Fatal("RestoreState rejected its own State export")
	}
	for id := range votes {
		p1, n1, _, ok1 := o.Posterior(id)
		p2, n2, _, ok2 := o2.Posterior(id)
		if ok1 != ok2 || n1 != n2 {
			t.Fatalf("task %s: state mismatch after restore", id)
		}
		if !ok1 {
			continue
		}
		for j := range p1 {
			if d := p1[j] - p2[j]; d > 1e-12 || d < -1e-12 {
				t.Fatalf("task %s: posterior drifted after round-trip: %v vs %v", id, p1, p2)
			}
		}
	}
	// Mismatched class count must be rejected.
	bad := NewOnlineDawidSkene(OnlineDSConfig{Classes: 3})
	if bad.RestoreState(st) {
		t.Fatal("RestoreState accepted a state with the wrong class count")
	}
}

// TestOnlineCompleteBoundsMemory: completed tasks must leave the active
// set, and history must stay bounded at its cap.
func TestOnlineCompleteBoundsMemory(t *testing.T) {
	o := NewOnlineDawidSkene(OnlineDSConfig{Classes: 2, HistoryCap: 8})
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("t%d", i)
		o.Observe(id, "w1", i%2)
		o.Observe(id, "w2", i%2)
		o.Complete(id)
	}
	if tasks, _ := o.Tracked(); tasks != 0 {
		t.Fatalf("completed tasks still active: %d", tasks)
	}
	if n := len(o.Sample(1000)); n != 8 {
		t.Fatalf("history not bounded: %d samples, want 8", n)
	}
	// Completed posteriors remain queryable from history.
	if _, _, done, ok := o.Posterior("t49"); !ok || !done {
		t.Fatalf("recent completed task missing from history: ok=%v done=%v", ok, done)
	}
}

// TestDivergenceSmallOnConvergedSample: the online-vs-batch divergence on a
// well-covered corpus should be small.
func TestDivergenceSmallOnConvergedSample(t *testing.T) {
	src := rng.New(7)
	votes, _ := streamCorpus(src, 2, 120, 5, 0.6)
	o := NewOnlineDawidSkene(OnlineDSConfig{Classes: 2, HistoryCap: 256})
	for _, id := range sortedIDs(votes) { // map order would stream a different corpus every run
		for _, v := range votes[id] {
			o.Observe(id, v.Worker, v.Class)
		}
		o.Complete(id)
	}
	meanL1, n := Divergence(o.Sample(128), 2)
	if n == 0 {
		t.Fatal("no tasks compared")
	}
	if meanL1 > 0.20 {
		t.Fatalf("online-vs-batch divergence too large: %.3f over %d tasks", meanL1, n)
	}
}

// TestReputationStateRoundTrip covers the satellite bugfix: reputation
// tallies must survive export/import.
func TestReputationStateRoundTrip(t *testing.T) {
	r := NewReputation(0.6, 2)
	r.Record("alice", true)
	r.Record("alice", true)
	r.Record("alice", false)
	r.Record("bob", false)
	st := r.State()
	r2 := NewReputation(0.6, 2)
	if !r2.RestoreState(st) {
		t.Fatal("RestoreState rejected its own State export")
	}
	for _, w := range []string{"alice", "bob", "unseen"} {
		if a, b := r.Accuracy(w), r2.Accuracy(w); a != b {
			t.Fatalf("accuracy for %s drifted: %v vs %v", w, a, b)
		}
		if a, b := r.Probes(w), r2.Probes(w); a != b {
			t.Fatalf("probes for %s drifted: %v vs %v", w, a, b)
		}
	}
	if r2.RestoreState(ReputationState{Correct: map[string]float64{"x": 2}, Total: map[string]float64{"x": 1}}) {
		t.Fatal("RestoreState accepted correct > total")
	}
	if r2.RestoreState(ReputationState{Total: map[string]float64{"x": -1}}) {
		t.Fatal("RestoreState accepted a negative tally")
	}
}

// TestAggregatorsSkipNegativeClasses covers the satellite bugfix: a
// poisoned vote with a negative class must not skew or panic Majority or
// Weighted aggregation.
func TestAggregatorsSkipNegativeClasses(t *testing.T) {
	votes := []Vote{{"a", 1}, {"b", 1}, {"c", -5}, {"d", -5}, {"e", -5}}
	class, count, tie, ok := Majority(votes)
	if !ok || class != 1 || count != 2 || tie {
		t.Fatalf("Majority skewed by negative classes: class=%d count=%d tie=%v ok=%v", class, count, tie, ok)
	}
	wclass, _, wok := Weighted(votes, func(string) float64 { return 1 })
	if !wok || wclass != 1 {
		t.Fatalf("Weighted skewed by negative classes: class=%d ok=%v", wclass, wok)
	}
	onlyBad := []Vote{{"a", -1}}
	if _, _, _, ok := Majority(onlyBad); ok {
		t.Fatal("Majority reported ok with only malformed votes")
	}
	if _, _, ok := Weighted(onlyBad, func(string) float64 { return 1 }); ok {
		t.Fatal("Weighted reported ok with only malformed votes")
	}
}
