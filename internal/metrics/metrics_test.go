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

func TestBucketHist(t *testing.T) {
	h := NewBucketHist(0.5, 0.875)
	for _, v := range []float64{0.25, 0.5, 0.75, 0.875, 1} {
		h.Observe(v)
	}
	// A value on a bound lands in that bound's bucket (le is inclusive).
	for i, want := range []int64{2, 2, 1} {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket %d = %d, want %d", i, got, want)
		}
	}
	if h.Count() != 5 || h.Sum() != 3.375 {
		t.Errorf("Count, Sum = %d, %v; want 5, 3.375", h.Count(), h.Sum())
	}
}

func TestBucketHistConcurrent(t *testing.T) {
	h := NewBucketHist(0.5)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.75)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 16000 || h.Sum() != 12000 {
		t.Fatalf("Count, Sum = %d, %v; want 16000, 12000", h.Count(), h.Sum())
	}
}

func TestBucketHistPanicsOnUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("descending bounds did not panic")
		}
	}()
	NewBucketHist(0.9, 0.5)
}

func TestGWAPMetrics(t *testing.T) {
	g := NewGWAP()
	// Two players: alice plays 2 sessions of 30m, bob one of 60m.
	g.RecordSession("alice", 30*time.Minute)
	g.RecordSession("alice", 30*time.Minute)
	g.RecordSession("bob", 60*time.Minute)
	g.RecordOutputs(100)
	g.RecordOutputs(140)

	r := g.Report()
	if r.Players != 2 || r.Sessions != 3 {
		t.Fatalf("players/sessions = %d/%d", r.Players, r.Sessions)
	}
	if r.TotalPlayHours != 2 {
		t.Fatalf("TotalPlayHours = %v", r.TotalPlayHours)
	}
	if tp := r.ThroughputPerHour; math.Abs(tp-120) > 1e-9 {
		t.Errorf("ThroughputPerHour = %v, want 240 outputs / 2h = 120", tp)
	}
	if r.ALPMinutes != 60 {
		t.Errorf("ALPMinutes = %v, want 60", r.ALPMinutes)
	}
	if ec := r.ExpectedContribution; math.Abs(ec-120) > 1e-9 {
		t.Errorf("ExpectedContribution = %v, want 120×1h = 120", ec)
	}
}

func TestGWAPEmpty(t *testing.T) {
	if r := NewGWAP().Report(); r != (Report{}) {
		t.Errorf("empty GWAP should report zeros, got %+v", r)
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
	if r := g.Report(); r.Outputs != 1600 || r.TotalPlayHours != (800*time.Minute).Hours() {
		t.Fatalf("outputs=%d play=%vh", r.Outputs, r.TotalPlayHours)
	}
}

// TestGWAPReportIsOneSnapshot: a report read while writers record
// sessions and outputs describes one moment, so its throughput is its own
// outputs over its own play time. A report assembled from separate reads
// pairs one moment's outputs with another's play.
func TestGWAPReportIsOneSnapshot(t *testing.T) {
	g := NewGWAP()
	g.RecordSession("p", time.Minute)
	stop := make(chan struct{})
	var wg, running sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		running.Add(1)
		go func() {
			defer wg.Done()
			g.RecordSession("p", time.Minute)
			running.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				g.RecordSession("p", time.Minute)
				g.RecordOutputs(1)
			}
		}()
	}
	running.Wait()
	torn := 0
	for i := 0; i < 20000; i++ {
		if r := g.Report(); r.ThroughputPerHour != float64(r.Outputs)/r.TotalPlayHours {
			torn++
		}
	}
	close(stop)
	wg.Wait()
	if torn > 0 {
		t.Fatalf("%d of 20000 reports were torn", torn)
	}
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
