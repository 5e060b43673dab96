package quality

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"humancomp/internal/rng"
)

func v(worker string, class int) Vote { return Vote{Worker: worker, Class: class} }

func TestMajorityBasics(t *testing.T) {
	class, count, tie, ok := Majority([]Vote{v("a", 1), v("b", 1), v("c", 2)})
	if !ok || class != 1 || count != 2 || tie {
		t.Fatalf("got class=%d count=%d tie=%v ok=%v", class, count, tie, ok)
	}
	if _, _, _, ok := Majority(nil); ok {
		t.Fatal("empty votes should not be ok")
	}
}

func TestMajorityTie(t *testing.T) {
	class, _, tie, ok := Majority([]Vote{v("a", 2), v("b", 1)})
	if !ok || !tie {
		t.Fatalf("tie not reported")
	}
	if class != 1 {
		t.Fatalf("tie break should pick smallest class, got %d", class)
	}
}

func TestMajorityPermutationInvariant(t *testing.T) {
	src := rng.New(1)
	f := func(classesRaw []uint8) bool {
		if len(classesRaw) == 0 {
			return true
		}
		votes := make([]Vote, len(classesRaw))
		for i, c := range classesRaw {
			votes[i] = v(fmt.Sprintf("w%d", i), int(c%5))
		}
		c1, n1, t1, _ := Majority(votes)
		src.Shuffle(len(votes), func(i, j int) { votes[i], votes[j] = votes[j], votes[i] })
		c2, n2, t2, _ := Majority(votes)
		return c1 == c2 && n1 == n2 && t1 == t2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWeightedOverridesCount(t *testing.T) {
	weights := map[string]float64{"expert": 5, "n1": 1, "n2": 1, "n3": 1}
	votes := []Vote{v("expert", 0), v("n1", 1), v("n2", 1), v("n3", 1)}
	class, total, ok := Weighted(votes, func(w string) float64 { return weights[w] })
	if !ok || class != 0 {
		t.Fatalf("expert (w=5) should beat 3 novices (w=3): class=%d", class)
	}
	if math.Abs(total-5) > 1e-12 {
		t.Fatalf("total = %v", total)
	}
}

func TestWeightedClampsNonPositive(t *testing.T) {
	votes := []Vote{v("bad", 0), v("good", 1)}
	class, _, ok := Weighted(votes, func(w string) float64 {
		if w == "bad" {
			return -10
		}
		return 1
	})
	if !ok || class != 1 {
		t.Fatalf("negative-weight worker affected outcome: class=%d", class)
	}
	if _, _, ok := Weighted(nil, func(string) float64 { return 1 }); ok {
		t.Fatal("empty weighted vote should not be ok")
	}
}

// synthVotes builds a voting matrix: nTasks tasks with true class 0 or 1,
// workers with given accuracies voting on every task.
func synthVotes(src *rng.Source, nTasks int, accuracies []float64) (map[string][]Vote, map[string]int) {
	votes := make(map[string][]Vote, nTasks)
	truth := make(map[string]int, nTasks)
	for i := 0; i < nTasks; i++ {
		id := fmt.Sprintf("t%d", i)
		truth[id] = src.Intn(2)
		for wi, acc := range accuracies {
			c := truth[id]
			if !src.Bool(acc) {
				c = 1 - c
			}
			votes[id] = append(votes[id], v(fmt.Sprintf("w%d", wi), c))
		}
	}
	return votes, truth
}

func accuracyOf(labels map[string]int, truth map[string]int) float64 {
	right := 0
	for id, want := range truth {
		if labels[id] == want {
			right++
		}
	}
	return float64(right) / float64(len(truth))
}

func TestEMRecoversTruthWithGoodWorkers(t *testing.T) {
	src := rng.New(2)
	votes, truth := synthVotes(src, 300, []float64{0.9, 0.85, 0.8, 0.9, 0.75})
	res := EM(votes, 2)
	if acc := accuracyOf(res.Labels, truth); acc < 0.95 {
		t.Errorf("EM accuracy = %.3f with five good workers", acc)
	}
	if res.Iterations == 0 {
		t.Error("EM reported zero iterations")
	}
}

func TestEMEstimatesWorkerAccuracy(t *testing.T) {
	// Note a two-worker panel is non-identifiable for one-coin
	// Dawid–Skene (symmetric fixed point), so estimation is tested on a
	// five-worker panel where majority structure breaks the symmetry.
	src := rng.New(3)
	votes, _ := synthVotes(src, 800, []float64{0.95, 0.60, 0.60, 0.60, 0.60})
	res := EM(votes, 2)
	good := res.WorkerAccuracy["w0"]
	for _, w := range []string{"w1", "w2", "w3", "w4"} {
		if good < res.WorkerAccuracy[w] {
			t.Fatalf("EM ranked expert below %s: %.2f < %.2f", w, good, res.WorkerAccuracy[w])
		}
	}
	if math.Abs(good-0.95) > 0.08 {
		t.Errorf("expert accuracy estimate %.3f, want ~0.95", good)
	}
	if bad := res.WorkerAccuracy["w1"]; math.Abs(bad-0.60) > 0.12 {
		t.Errorf("noisy worker accuracy estimate %.3f, want ~0.60", bad)
	}
}

// TestEMBeatsMajorityWithHeterogeneousWorkers reproduces the T4 claim in
// miniature: one reliable worker among noisy ones — EM should use the
// learned reliabilities while majority vote drowns the expert.
func TestEMBeatsMajorityWithHeterogeneousWorkers(t *testing.T) {
	src := rng.New(4)
	votes, truth := synthVotes(src, 600, []float64{0.97, 0.55, 0.55, 0.55, 0.55})
	res := EM(votes, 2)
	emAcc := accuracyOf(res.Labels, truth)

	majLabels := make(map[string]int, len(votes))
	for id, vs := range votes {
		c, _, _, _ := Majority(vs)
		majLabels[id] = c
	}
	majAcc := accuracyOf(majLabels, truth)

	if emAcc <= majAcc {
		t.Errorf("EM (%.3f) did not beat majority (%.3f)", emAcc, majAcc)
	}
	if emAcc < 0.9 {
		t.Errorf("EM accuracy %.3f too low despite expert present", emAcc)
	}
}

func TestEMHandlesDegenerateInputs(t *testing.T) {
	// Single task, single vote: should return that vote's class.
	votes := map[string][]Vote{"t0": {v("w0", 1)}}
	res := EM(votes, 2)
	if res.Labels["t0"] != 1 {
		t.Errorf("single vote label = %d", res.Labels["t0"])
	}
	// Out-of-range classes are ignored rather than crashing.
	votes = map[string][]Vote{"t0": {v("w0", 7), v("w1", 1)}}
	res = EM(votes, 2)
	if res.Labels["t0"] != 1 {
		t.Errorf("out-of-range vote perturbed label: %d", res.Labels["t0"])
	}
	// Empty input yields empty output.
	res = EM(map[string][]Vote{}, 2)
	if len(res.Labels) != 0 {
		t.Error("empty input produced labels")
	}
}

func TestEMPanicsOnOneClass(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("numClasses 1 did not panic")
		}
	}()
	EM(nil, 1)
}

func TestEMPosteriorsNormalized(t *testing.T) {
	src := rng.New(5)
	votes, _ := synthVotes(src, 50, []float64{0.8, 0.8, 0.8})
	res := EM(votes, 2)
	for id, p := range res.Posteriors {
		sum := 0.0
		for _, x := range p {
			if x < 0 || math.IsNaN(x) {
				t.Fatalf("task %s has invalid posterior %v", id, p)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("task %s posterior sums to %v", id, sum)
		}
	}
}

func TestReputationSmoothing(t *testing.T) {
	r := NewReputation(0.7, 4)
	if a := r.Accuracy("new"); math.Abs(a-0.7) > 1e-12 {
		t.Fatalf("unseen worker accuracy = %v, want prior", a)
	}
	for i := 0; i < 20; i++ {
		r.Record("good", true)
	}
	for i := 0; i < 20; i++ {
		r.Record("bad", false)
	}
	if a := r.Accuracy("good"); a < 0.9 {
		t.Errorf("good accuracy = %v", a)
	}
	if a := r.Accuracy("bad"); a > 0.2 {
		t.Errorf("bad accuracy = %v", a)
	}
	if r.Probes("good") != 20 {
		t.Errorf("Probes = %d", r.Probes("good"))
	}
}

func TestReputationWeightFloorsGuessers(t *testing.T) {
	r := NewReputation(0.5001, 2)
	if w := r.Weight("unknown"); w > 0.01 {
		t.Errorf("near-guessing prior weight = %v, want ~0", w)
	}
	for i := 0; i < 30; i++ {
		r.Record("bad", false)
	}
	if w := r.Weight("bad"); w != 0 {
		t.Errorf("sub-50%% worker weight = %v, want 0", w)
	}
	for i := 0; i < 30; i++ {
		r.Record("good", true)
	}
	if r.Weight("good") <= 0 {
		t.Error("reliable worker has no weight")
	}
}

func TestReputationPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"prior 0":  func() { NewReputation(0, 1) },
		"prior 1":  func() { NewReputation(1, 1) },
		"weight 0": func() { NewReputation(0.5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkEM500Tasks(b *testing.B) {
	src := rng.New(6)
	votes, _ := synthVotes(src, 500, []float64{0.9, 0.8, 0.7, 0.6, 0.85})
	for b.Loop() {
		EM(votes, 2)
	}
}
