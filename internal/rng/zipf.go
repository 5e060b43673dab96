package rng

import (
	"math"
	"sort"
)

// Zipf samples ranks 1..N with probability proportional to 1/rank^S.
// Tag popularity in image labeling is famously Zipfian: a handful of head
// tags ("dog", "sky") dominate, with a long tail of specific terms. The
// sampler precomputes the cumulative distribution and draws by binary
// search, so a draw costs O(log N).
type Zipf struct {
	src *Source
	cdf []float64
}

// NewZipf returns a Zipf sampler over ranks [0, n) with exponent s >= 0.
// s == 0 degenerates to the uniform distribution. It panics if n <= 0.
func NewZipf(src *Source, n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf called with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{src: src, cdf: cdf}
}

// N returns the number of ranks the sampler draws from.
func (z *Zipf) N() int { return len(z.cdf) }

// Draw returns a rank in [0, N) with Zipfian probability (rank 0 most likely).
func (z *Zipf) Draw() int {
	u := z.src.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// DrawWith draws a rank like Draw but consumes randomness from src,
// leaving the sampler's own source untouched. The precomputed CDF is
// immutable, so DrawWith is safe for concurrent use across sources.
func (z *Zipf) DrawWith(src *Source) int {
	u := src.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// Prob returns the probability of drawing rank i.
func (z *Zipf) Prob(i int) float64 {
	if i < 0 || i >= len(z.cdf) {
		return 0
	}
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}
