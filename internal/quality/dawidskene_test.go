package quality

import (
	"fmt"
	"math"
	"testing"

	"humancomp/internal/rng"
)

// synthBiasedVotes builds a voting matrix with one worker who is biased
// (answers class 1 regardless of truth with probability bias) alongside
// ordinary noisy workers.
func synthBiasedVotes(src *rng.Source, nTasks int, accuracies []float64, biasedWorker int, bias float64) (map[string][]Vote, map[string]int) {
	votes := make(map[string][]Vote, nTasks)
	truth := make(map[string]int, nTasks)
	for i := 0; i < nTasks; i++ {
		id := fmt.Sprintf("t%d", i)
		truth[id] = src.Intn(2)
		for wi, acc := range accuracies {
			c := truth[id]
			if wi == biasedWorker {
				if src.Bool(bias) {
					c = 1 // systematic "everything is class 1" bias
				}
			} else if !src.Bool(acc) {
				c = 1 - c
			}
			votes[id] = append(votes[id], v(fmt.Sprintf("w%d", wi), c))
		}
	}
	return votes, truth
}

func TestDawidSkeneRecoversTruth(t *testing.T) {
	src := rng.New(1)
	votes, truth := synthVotes(src, 400, []float64{0.9, 0.85, 0.8, 0.75, 0.9})
	res := DawidSkene(votes, 2)
	if acc := accuracyOf(res.Labels, truth); acc < 0.95 {
		t.Errorf("DS accuracy = %.3f with five good workers", acc)
	}
	if res.Iterations == 0 {
		t.Error("zero iterations reported")
	}
}

func TestDawidSkeneLearnsConfusionRows(t *testing.T) {
	src := rng.New(2)
	votes, _ := synthVotes(src, 800, []float64{0.95, 0.60, 0.60, 0.60, 0.60})
	res := DawidSkene(votes, 2)
	m := res.Confusion["w0"]
	if m == nil {
		t.Fatal("no confusion matrix for w0")
	}
	// Rows are distributions.
	for j := range m {
		sum := 0.0
		for _, p := range m[j] {
			if p < 0 || p > 1 {
				t.Fatalf("confusion entry %v out of range", p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("confusion row sums to %v", sum)
		}
	}
	acc := WorkerAccuracyFromConfusion(m, res.Priors)
	if math.Abs(acc-0.95) > 0.08 {
		t.Errorf("expert diagonal mass = %.3f, want ~0.95", acc)
	}
}

// TestDawidSkeneBeatsOneCoinOnBiasedWorker is the reason the full model
// exists: a worker who answers "1" almost always is useless to the
// one-coin model (accuracy ≈ 0.5 on balanced tasks) but perfectly
// informative to the confusion-matrix model, which learns that their "0"
// votes are near-certain evidence of class 0.
func TestDawidSkeneBeatsOneCoinOnBiasedWorker(t *testing.T) {
	src := rng.New(3)
	// Three mediocre honest workers plus one heavily biased one.
	votes, truth := synthBiasedVotes(src, 800, []float64{0.65, 0.65, 0.65, 0}, 3, 0.9)
	ds := DawidSkene(votes, 2)
	oneCoin := EM(votes, 2)
	dsAcc := accuracyOf(ds.Labels, truth)
	ocAcc := accuracyOf(oneCoin.Labels, truth)
	if dsAcc < ocAcc-0.01 {
		t.Errorf("DS (%.3f) below one-coin (%.3f) with a biased worker present", dsAcc, ocAcc)
	}
	// The learned confusion of the biased worker must show the bias:
	// P(vote 1 | truth 0) large.
	m := ds.Confusion["w3"]
	if m == nil {
		t.Fatal("no confusion for biased worker")
	}
	if m[0][1] < 0.6 {
		t.Errorf("bias not learned: P(vote1|true0) = %.2f", m[0][1])
	}
}

func TestDawidSkenePriorsReflectImbalance(t *testing.T) {
	src := rng.New(4)
	votes := make(map[string][]Vote)
	// 90% of tasks are class 0, three good workers.
	for i := 0; i < 500; i++ {
		id := fmt.Sprintf("t%d", i)
		truth := 0
		if i%10 == 9 {
			truth = 1
		}
		for w := 0; w < 3; w++ {
			c := truth
			if !src.Bool(0.85) {
				c = 1 - c
			}
			votes[id] = append(votes[id], v(fmt.Sprintf("w%d", w), c))
		}
	}
	res := DawidSkene(votes, 2)
	if res.Priors[0] < 0.7 {
		t.Errorf("prior for dominant class = %.2f, want > 0.7", res.Priors[0])
	}
}

func TestDawidSkeneDegenerateInputs(t *testing.T) {
	res := DawidSkene(map[string][]Vote{"t0": {v("w0", 1)}}, 2)
	if res.Labels["t0"] != 1 {
		t.Errorf("single vote label = %d", res.Labels["t0"])
	}
	res = DawidSkene(map[string][]Vote{}, 2)
	if len(res.Labels) != 0 {
		t.Error("empty input produced labels")
	}
	// Out-of-range votes ignored.
	res = DawidSkene(map[string][]Vote{"t0": {v("w0", 9), v("w1", 0)}}, 2)
	if res.Labels["t0"] != 0 {
		t.Errorf("out-of-range vote perturbed label: %d", res.Labels["t0"])
	}
}

func TestDawidSkenePanicsOnOneClass(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("numClasses 1 did not panic")
		}
	}()
	DawidSkene(nil, 1)
}

func TestDawidSkeneMultiClass(t *testing.T) {
	src := rng.New(5)
	const k = 4
	votes := make(map[string][]Vote)
	truth := make(map[string]int)
	for i := 0; i < 400; i++ {
		id := fmt.Sprintf("t%d", i)
		truth[id] = src.Intn(k)
		for w := 0; w < 5; w++ {
			c := truth[id]
			if !src.Bool(0.8) {
				c = src.Intn(k)
			}
			votes[id] = append(votes[id], v(fmt.Sprintf("w%d", w), c))
		}
	}
	res := DawidSkene(votes, k)
	if acc := accuracyOf(res.Labels, truth); acc < 0.9 {
		t.Errorf("4-class DS accuracy = %.3f", acc)
	}
}

func BenchmarkDawidSkene500Tasks(b *testing.B) {
	src := rng.New(6)
	votes, _ := synthVotes(src, 500, []float64{0.9, 0.8, 0.7, 0.6, 0.85})
	for b.Loop() {
		DawidSkene(votes, 2)
	}
}

// WorkerAccuracyFromConfusion reduces a confusion matrix to a scalar
// accuracy under the given class priors (diagonal mass).
func WorkerAccuracyFromConfusion(confusion [][]float64, priors []float64) float64 {
	acc := 0.0
	for j := range confusion {
		p := 1.0 / float64(len(confusion))
		if j < len(priors) {
			p = priors[j]
		}
		acc += p * confusion[j][j]
	}
	return acc
}
