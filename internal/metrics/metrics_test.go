package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d", c.Value())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 16000 {
		t.Fatalf("Value = %d, want 16000", c.Value())
	}
}

func TestHistogramExactStats(t *testing.T) {
	h := NewHistogram(100)
	for _, v := range []float64{3, 1, 4, 1, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	if math.Abs(h.Mean()-2.8) > 1e-12 {
		t.Errorf("Mean = %v", h.Mean())
	}
	if med := h.Quantile(0.5); med != 3 {
		t.Errorf("median = %v", med)
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != 5 {
		t.Errorf("extreme quantiles = %v, %v", h.Quantile(0), h.Quantile(1))
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(10)
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestHistogramReservoirQuantiles(t *testing.T) {
	h := NewHistogram(1000)
	// 100k uniform values in [0,1): reservoir quantiles should be close.
	src := newTestSource()
	for i := 0; i < 100000; i++ {
		h.Observe(src())
	}
	if q := h.Quantile(0.5); math.Abs(q-0.5) > 0.06 {
		t.Errorf("median of uniform = %v", q)
	}
	if q := h.Quantile(0.9); math.Abs(q-0.9) > 0.06 {
		t.Errorf("p90 of uniform = %v", q)
	}
}

// newTestSource returns a tiny deterministic uniform generator without
// importing rng (avoids test-only import cycles if rng ever uses metrics).
func newTestSource() func() float64 {
	s := uint64(0x9e3779b97f4a7c15)
	return func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s>>11) / (1 << 53)
	}
}

func TestHistogramQuantilePanics(t *testing.T) {
	h := NewHistogram(10)
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile(2) did not panic")
		}
	}()
	h.Quantile(2)
}

func TestGWAPMetrics(t *testing.T) {
	g := NewGWAP()
	// Two players: alice plays 2 sessions of 30m, bob one of 60m.
	g.RecordSession("alice", 30*time.Minute)
	g.RecordSession("alice", 30*time.Minute)
	g.RecordSession("bob", 60*time.Minute)
	g.RecordOutputs(100)
	g.RecordOutputs(140)

	if g.Players() != 2 || g.Sessions() != 3 {
		t.Fatalf("players/sessions = %d/%d", g.Players(), g.Sessions())
	}
	if g.TotalPlay() != 2*time.Hour {
		t.Fatalf("TotalPlay = %v", g.TotalPlay())
	}
	if tp := g.Throughput(); math.Abs(tp-120) > 1e-9 {
		t.Errorf("Throughput = %v, want 240 outputs / 2h = 120", tp)
	}
	if alp := g.ALP(); alp != time.Hour {
		t.Errorf("ALP = %v, want 1h", alp)
	}
	if ec := g.ExpectedContribution(); math.Abs(ec-120) > 1e-9 {
		t.Errorf("ExpectedContribution = %v, want 120×1h = 120", ec)
	}
}

func TestGWAPEmpty(t *testing.T) {
	g := NewGWAP()
	if g.Throughput() != 0 || g.ALP() != 0 || g.ExpectedContribution() != 0 {
		t.Error("empty GWAP should report zeros")
	}
}

func TestGWAPReportMatchesAccessors(t *testing.T) {
	g := NewGWAP()
	g.RecordSession("a", 10*time.Minute)
	g.RecordOutputs(7)
	r := g.Report()
	if r.Players != 1 || r.Outputs != 7 || r.Sessions != 1 {
		t.Fatalf("report = %+v", r)
	}
	if math.Abs(r.ALPMinutes-10) > 1e-9 {
		t.Errorf("ALPMinutes = %v", r.ALPMinutes)
	}
	if math.Abs(r.ThroughputPerHour-42) > 1e-9 {
		t.Errorf("ThroughputPerHour = %v, want 7/(1/6h) = 42", r.ThroughputPerHour)
	}
}

func TestGWAPPanics(t *testing.T) {
	g := NewGWAP()
	for name, f := range map[string]func(){
		"negative session": func() { g.RecordSession("a", -time.Second) },
		"negative outputs": func() { g.RecordOutputs(-1) },
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

func TestGWAPConcurrent(t *testing.T) {
	g := NewGWAP()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				g.RecordSession("p", time.Minute)
				g.RecordOutputs(2)
			}
		}(i)
	}
	wg.Wait()
	if g.Outputs() != 1600 || g.TotalPlay() != 800*time.Minute {
		t.Fatalf("outputs=%d play=%v", g.Outputs(), g.TotalPlay())
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(4096)
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 1000))
	}
}

func TestTimeSeriesBuckets(t *testing.T) {
	start := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	ts := NewTimeSeries(start, time.Hour)
	ts.Add(start, 1)
	ts.Add(start.Add(30*time.Minute), 2)
	ts.Add(start.Add(90*time.Minute), 5)
	ts.Add(start.Add(-time.Hour), 7) // before start folds into bucket 0
	got := ts.Buckets()
	if len(got) != 2 || got[0] != 10 || got[1] != 5 {
		t.Fatalf("buckets = %v", got)
	}
	if ts.Total() != 15 {
		t.Fatalf("total = %v", ts.Total())
	}
	at, v, ok := ts.Peak()
	if !ok || v != 10 || !at.Equal(start) {
		t.Fatalf("peak = %v %v %v", at, v, ok)
	}
	if ts.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestTimeSeriesEmptyPeak(t *testing.T) {
	ts := NewTimeSeries(time.Now(), time.Minute)
	if _, _, ok := ts.Peak(); ok {
		t.Fatal("empty series has a peak")
	}
}

func TestTimeSeriesGrowsSparsely(t *testing.T) {
	start := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	ts := NewTimeSeries(start, time.Minute)
	ts.Add(start.Add(100*time.Minute), 1)
	if got := len(ts.Buckets()); got != 101 {
		t.Fatalf("buckets = %d", got)
	}
}

func TestTimeSeriesConcurrent(t *testing.T) {
	start := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	ts := NewTimeSeries(start, time.Minute)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 250; j++ {
				ts.Add(start.Add(time.Duration(j)*time.Second), 1)
			}
		}(i)
	}
	wg.Wait()
	if ts.Total() != 2000 {
		t.Fatalf("total = %v", ts.Total())
	}
}

func TestTimeSeriesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero width did not panic")
		}
	}()
	NewTimeSeries(time.Now(), 0)
}

func TestRetentionCurve(t *testing.T) {
	r := NewRetention()
	// alice: days 0, 1, 3. bob: day 0 only. carol: days 2, 3.
	r.RecordVisit("alice", 0)
	r.RecordVisit("alice", 1)
	r.RecordVisit("alice", 3)
	r.RecordVisit("bob", 0)
	r.RecordVisit("carol", 2)
	r.RecordVisit("carol", 3)
	if r.Players() != 3 {
		t.Fatalf("Players = %d", r.Players())
	}
	curve := r.Curve(3)
	if curve[0] != 1 {
		t.Errorf("day-0 retention = %v", curve[0])
	}
	// Day 1: observable cohorts are alice, bob (first 0 <= 3-1) and carol
	// (first 2 <= 2). alice returned (day 1), bob no, carol returned (day 3).
	if math.Abs(curve[1]-2.0/3) > 1e-12 {
		t.Errorf("day-1 retention = %v, want 2/3", curve[1])
	}
	// Day 3: only alice and bob observable (first+3 <= 3); alice returned.
	if math.Abs(curve[3]-0.5) > 1e-12 {
		t.Errorf("day-3 retention = %v, want 1/2", curve[3])
	}
}

func TestRetentionOutOfOrderAndPanics(t *testing.T) {
	r := NewRetention()
	r.RecordVisit("p", 5)
	r.RecordVisit("p", 2) // earlier day arrives later: first day must adjust
	curve := r.Curve(3)
	if curve[3] != 1 { // p's first day is 2; visited 2+3=5
		t.Errorf("day-3 after reorder = %v", curve[3])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative day did not panic")
		}
	}()
	r.RecordVisit("q", -1)
}

// Peak returns the largest bucket value and its start time; ok is false
// for an empty series.
func (ts *TimeSeries) Peak() (at time.Time, v float64, ok bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if len(ts.buckets) == 0 {
		return time.Time{}, 0, false
	}
	best := 0
	for i, b := range ts.buckets {
		if b > ts.buckets[best] {
			best = i
		}
	}
	return ts.start.Add(time.Duration(best) * ts.width), ts.buckets[best], true
}
