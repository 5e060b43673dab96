package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestReproducibleStreams(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical draws out of 100", same)
	}
}

func TestReseedRestartsStream(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Reseed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("draw %d after Reseed = %d, want %d", i, got, first[i])
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(3)
	child := r.Split()
	// The child stream must differ from the parent's continuation.
	diverged := false
	for i := 0; i < 64; i++ {
		if child.Uint64() != r.Uint64() {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("Split child mirrors parent stream")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			if v := r.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(13)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from expected %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(17)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(19)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / draws; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) rate = %v", p)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(23)
	const draws = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < draws; i++ {
		v := r.Norm(5, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / draws
	variance := sumsq/draws - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("Norm mean = %v, want ~5", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("Norm stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestExpMean(t *testing.T) {
	r := New(29)
	const draws = 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		v := r.Exp(4)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-0.25) > 0.01 {
		t.Errorf("Exp(4) mean = %v, want ~0.25", mean)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(31)
	for _, mean := range []float64{0.5, 3, 20, 200} {
		const draws = 50000
		sum := 0
		for i := 0; i < draws; i++ {
			sum += r.Poisson(mean)
		}
		got := float64(sum) / draws
		if math.Abs(got-mean) > 3*math.Sqrt(mean/draws)*10+0.05 {
			t.Errorf("Poisson(%v) mean = %v", mean, got)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Error("Poisson of non-positive mean should be 0")
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(37)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZipfHeadHeavierThanTail(t *testing.T) {
	r := New(41)
	z := NewZipf(r, 100, 1.0)
	const draws = 100000
	counts := make([]int, 100)
	for i := 0; i < draws; i++ {
		counts[z.Draw()]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("rank 0 count %d not heavier than rank 50 count %d", counts[0], counts[50])
	}
	if counts[0] <= counts[99] {
		t.Errorf("rank 0 count %d not heavier than rank 99 count %d", counts[0], counts[99])
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	r := New(43)
	z := NewZipf(r, 10, 0)
	for i := 0; i < 10; i++ {
		if math.Abs(z.Prob(i)-0.1) > 1e-12 {
			t.Fatalf("Prob(%d) = %v, want 0.1", i, z.Prob(i))
		}
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	r := New(47)
	z := NewZipf(r, 37, 1.3)
	sum := 0.0
	for i := 0; i < z.N(); i++ {
		sum += z.Prob(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
	if z.Prob(-1) != 0 || z.Prob(z.N()) != 0 {
		t.Error("out-of-range Prob should be 0")
	}
}

func TestLogNormPositive(t *testing.T) {
	r := New(59)
	for i := 0; i < 1000; i++ {
		if v := r.LogNorm(0, 1); v <= 0 {
			t.Fatalf("LogNorm returned %v", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkZipfDraw(b *testing.B) {
	r := New(1)
	z := NewZipf(r, 10000, 1.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Draw()
	}
}
