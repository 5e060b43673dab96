// Package quality turns redundant, noisy human answers into trusted output.
// It provides the aggregation ladder the experiments compare (T4): plain
// majority vote, reputation-weighted vote, and the Dawid–Skene
// expectation-maximization estimator that learns worker reliability and
// task truth jointly — plus the gold-seeding reputation tracker used to
// calibrate weights online.
package quality

import (
	"math"
	"sort"
)

// Vote is one worker's categorical judgment on a task.
type Vote struct {
	Worker string `json:"worker"`
	Class  int    `json:"class"`
}

// Majority returns the plurality class among votes, its vote count, and
// whether the lead was tied (ties are broken toward the smallest class
// index so results are deterministic). ok is false when votes is empty.
func Majority(votes []Vote) (class, count int, tie, ok bool) {
	if len(votes) == 0 {
		return 0, 0, false, false
	}
	counts := map[int]int{}
	for _, v := range votes {
		if v.Class < 0 {
			continue // malformed vote; never let it name a class
		}
		counts[v.Class]++
	}
	if len(counts) == 0 {
		return 0, 0, false, false
	}
	classes := make([]int, 0, len(counts))
	for c := range counts {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	best, bestN, tied := classes[0], counts[classes[0]], false
	for _, c := range classes[1:] {
		switch {
		case counts[c] > bestN:
			best, bestN, tied = c, counts[c], false
		case counts[c] == bestN:
			tied = true
		}
	}
	return best, bestN, tied, true
}

// Weighted returns the class with the largest total weight, where each
// worker's vote counts weight(worker). Non-positive weights are clamped to
// a small floor so a disastrous worker cannot veto by absorbing weight.
func Weighted(votes []Vote, weight func(worker string) float64) (class int, total float64, ok bool) {
	if len(votes) == 0 {
		return 0, 0, false
	}
	const floor = 1e-6
	sums := map[int]float64{}
	for _, v := range votes {
		if v.Class < 0 {
			continue // malformed vote; never let it name a class
		}
		w := weight(v.Worker)
		if w < floor {
			w = floor
		}
		sums[v.Class] += w
	}
	if len(sums) == 0 {
		return 0, 0, false
	}
	classes := make([]int, 0, len(sums))
	for c := range sums {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	best, bestW := classes[0], sums[classes[0]]
	for _, c := range classes[1:] {
		if sums[c] > bestW {
			best, bestW = c, sums[c]
		}
	}
	return best, bestW, true
}

// EM and DawidSkene iterate until no worker parameter moves by more than
// emTol, or for emMaxIter rounds.
const (
	emMaxIter = 50
	emTol     = 1e-6
)

// EMResult carries the output of EM.
type EMResult struct {
	// Labels maps each task to its maximum-posterior class.
	Labels map[string]int
	// Posteriors maps each task to its class distribution.
	Posteriors map[string][]float64
	// WorkerAccuracy is the estimated per-worker reliability (one-coin model).
	WorkerAccuracy map[string]float64
	// Iterations is how many EM rounds ran before convergence.
	Iterations int
}

// EM runs one-coin Dawid–Skene expectation-maximization over categorical
// votes: workers are modeled as answering correctly with unknown
// probability p_w (errors uniform over the other classes); task truths and
// worker reliabilities are estimated jointly. votes maps task IDs to the
// votes on that task; numClasses is the size of the label space.
//
// This is the estimator that dominates majority vote when worker quality
// is heterogeneous: one good worker outvotes three coin-flippers.
func EM(votes map[string][]Vote, numClasses int) EMResult {
	if numClasses < 2 {
		panic("quality: EM needs at least two classes")
	}

	// Initialize posteriors from per-task vote shares (majority soft-start).
	post := make(map[string][]float64, len(votes))
	for id, vs := range votes {
		p := make([]float64, numClasses)
		for _, v := range vs {
			if v.Class >= 0 && v.Class < numClasses {
				p[v.Class]++
			}
		}
		normalize(p)
		post[id] = p
	}

	acc := map[string]float64{}
	iter := 0
	for ; iter < emMaxIter; iter++ {
		// M-step: re-estimate worker accuracy from current posteriors,
		// with a weak Beta(2,1)-style prior to avoid 0/1 lock-in.
		num := map[string]float64{}
		den := map[string]float64{}
		for id, vs := range votes {
			p := post[id]
			for _, v := range vs {
				if v.Class < 0 || v.Class >= numClasses {
					continue
				}
				num[v.Worker] += p[v.Class]
				den[v.Worker]++
			}
		}
		maxDelta := 0.0
		for w, d := range den {
			a := (num[w] + 1) / (d + 2)
			if prev, seen := acc[w]; seen {
				if delta := math.Abs(a - prev); delta > maxDelta {
					maxDelta = delta
				}
			} else {
				maxDelta = 1
			}
			acc[w] = a
		}

		// E-step: recompute task posteriors from worker accuracies.
		for id, vs := range votes {
			logp := make([]float64, numClasses)
			for _, v := range vs {
				if v.Class < 0 || v.Class >= numClasses {
					continue
				}
				a := clampProb(acc[v.Worker])
				wrong := (1 - a) / float64(numClasses-1)
				for k := 0; k < numClasses; k++ {
					if k == v.Class {
						logp[k] += math.Log(a)
					} else {
						logp[k] += math.Log(wrong)
					}
				}
			}
			post[id] = softmax(logp)
		}

		if maxDelta < emTol && iter > 0 {
			iter++
			break
		}
	}

	labels := make(map[string]int, len(post))
	for id, p := range post {
		labels[id] = argmax(p)
	}
	return EMResult{Labels: labels, Posteriors: post, WorkerAccuracy: acc, Iterations: iter}
}

func clampProb(p float64) float64 {
	const eps = 1e-4
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}

func normalize(p []float64) {
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if sum <= 0 {
		for i := range p {
			p[i] = 1 / float64(len(p))
		}
		return
	}
	for i := range p {
		p[i] /= sum
	}
}

func softmax(logp []float64) []float64 {
	maxv := math.Inf(-1)
	for _, v := range logp {
		if v > maxv {
			maxv = v
		}
	}
	out := make([]float64, len(logp))
	if math.IsInf(maxv, -1) { // no informative votes at all
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	sum := 0.0
	for i, v := range logp {
		out[i] = math.Exp(v - maxv)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

func argmax(p []float64) int {
	best, bestV := 0, math.Inf(-1)
	for i, v := range p {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}
