package quality

import "math"

// DSResult carries the output of the full Dawid–Skene estimator.
type DSResult struct {
	// Labels maps each task to its maximum-posterior class.
	Labels map[string]int
	// Posteriors maps each task to its class distribution.
	Posteriors map[string][]float64
	// Confusion maps each worker to their estimated confusion matrix:
	// Confusion[w][j][l] = P(worker w votes l | true class j).
	Confusion map[string][][]float64
	// Priors is the estimated class prior.
	Priors []float64
	// Iterations is how many EM rounds ran before convergence.
	Iterations int
}

// DawidSkene runs the full confusion-matrix Dawid–Skene estimator: unlike
// the one-coin EM (which models a single accuracy per worker), it learns a
// per-worker confusion matrix and therefore captures *biased* workers —
// e.g. a rater who calls everything "same" — whose errors are informative
// rather than merely noisy. This is the classical 1979 estimator the
// crowdsourcing quality-control literature builds on.
func DawidSkene(votes map[string][]Vote, numClasses int, cfg EMConfig) DSResult {
	if numClasses < 2 {
		panic("quality: DawidSkene needs at least two classes")
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 50
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-6
	}
	const (
		smooth     = 0.1 // Dirichlet smoothing on confusion rows and priors
		diagSmooth = 1.0 // extra diagonal mass: workers beat chance
	)

	// Initialize posteriors from the hard majority label (ties split).
	// Soft vote-share initialization bleeds majority-class error mass into
	// minority-class confusion rows and lets EM drift to a degenerate
	// fixed point on imbalanced data; hard init keeps the rows clean.
	post := make(map[string][]float64, len(votes))
	for id, vs := range votes {
		p := make([]float64, numClasses)
		counts := make([]int, numClasses)
		best := 0
		for _, v := range vs {
			if v.Class >= 0 && v.Class < numClasses {
				counts[v.Class]++
				if counts[v.Class] > best {
					best = counts[v.Class]
				}
			}
		}
		for j, c := range counts {
			if c == best && best > 0 {
				p[j] = 1
			}
		}
		normalize(p)
		post[id] = p
	}

	confusion := map[string][][]float64{}
	priors := make([]float64, numClasses)
	// Class priors stay uniform for a few burn-in iterations: estimating
	// them from the initial majority labels lets a biased worker skew the
	// prior, which then feeds back into every posterior. Confusion rows
	// are learned first; priors unlock once they have stabilized.
	const priorBurnIn = 3
	iter := 0
	for ; iter < cfg.MaxIter; iter++ {
		// M-step: class priors and per-worker confusion rows.
		for j := range priors {
			priors[j] = smooth
		}
		counts := map[string][][]float64{} // worker -> [true][voted]
		for id, vs := range votes {
			p := post[id]
			// Accumulate raw posterior counts; the smoothing pseudo-counts
			// must stay negligible against the data, so no normalization
			// happens before they are added.
			for j := 0; j < numClasses; j++ {
				priors[j] += p[j]
			}
			for _, v := range vs {
				if v.Class < 0 || v.Class >= numClasses {
					continue
				}
				m := counts[v.Worker]
				if m == nil {
					m = newMatrix(numClasses, smooth)
					for j := 0; j < numClasses; j++ {
						m[j][j] += diagSmooth
					}
					counts[v.Worker] = m
				}
				for j := 0; j < numClasses; j++ {
					m[j][v.Class] += p[j]
				}
			}
		}
		normalize(priors)
		if iter < priorBurnIn {
			for j := range priors {
				priors[j] = 1 / float64(numClasses)
			}
		}
		maxDelta := 0.0
		for w, m := range counts {
			for j := range m {
				normalize(m[j])
			}
			if prev, seen := confusion[w]; seen {
				for j := range m {
					for l := range m[j] {
						if d := math.Abs(m[j][l] - prev[j][l]); d > maxDelta {
							maxDelta = d
						}
					}
				}
			} else {
				maxDelta = 1
			}
			confusion[w] = m
		}

		// E-step: task posteriors from confusion rows and priors.
		for id, vs := range votes {
			logp := make([]float64, numClasses)
			for j := 0; j < numClasses; j++ {
				logp[j] = math.Log(priors[j])
			}
			informative := false
			for _, v := range vs {
				if v.Class < 0 || v.Class >= numClasses {
					continue
				}
				m := confusion[v.Worker]
				if m == nil {
					continue
				}
				informative = true
				for j := 0; j < numClasses; j++ {
					logp[j] += math.Log(clampProb(m[j][v.Class]))
				}
			}
			if !informative {
				continue // keep the vote-share posterior
			}
			post[id] = softmax(logp)
		}

		if maxDelta < cfg.Tol && iter > 0 {
			iter++
			break
		}
	}

	labels := make(map[string]int, len(post))
	for id, p := range post {
		labels[id] = argmax(p)
	}
	return DSResult{
		Labels:     labels,
		Posteriors: post,
		Confusion:  confusion,
		Priors:     priors,
		Iterations: iter,
	}
}

// newMatrix returns a numClasses×numClasses matrix filled with fill.
func newMatrix(n int, fill float64) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		row := make([]float64, n)
		for j := range row {
			row[j] = fill
		}
		m[i] = row
	}
	return m
}
