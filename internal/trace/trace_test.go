package trace

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
	"unsafe"

	"humancomp/internal/metrics"
	"humancomp/internal/task"
)

var t0 = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Append(Event{TaskID: 1, Stage: StageSubmit, At: t0})
	if got := r.TaskEvents(1); got != nil {
		t.Errorf("nil recorder TaskEvents = %v, want nil", got)
	}
	if r.Len() != 0 || r.Capacity() != 0 {
		t.Errorf("nil recorder Len/Capacity = %d/%d, want 0/0", r.Len(), r.Capacity())
	}
	r.ObserveStage(StageLease, time.Second, TraceID{})
	a, b, c := r.Latencies()
	if a != nil || b != nil || c != nil {
		t.Error("nil recorder Latencies should be all nil")
	}
}

func TestAppendOrderAndSeq(t *testing.T) {
	r := NewRecorder(0)
	if r.Capacity() != DefaultCapacity {
		t.Fatalf("Capacity = %d, want %d", r.Capacity(), DefaultCapacity)
	}
	stages := []Stage{StageSubmit, StagePersist, StageEnqueue, StageLease, StageAnswer, StageComplete}
	for i, st := range stages {
		r.Append(Event{TaskID: 7, Stage: st, At: t0.Add(time.Duration(i) * time.Second), Worker: "w"})
	}
	// An event for another task on the same stripe (7+16 hashes identically)
	// must not appear in task 7's timeline.
	r.Append(Event{TaskID: 7 + traceStripes, Stage: StageSubmit, At: t0})

	got := r.TaskEvents(7)
	if len(got) != len(stages) {
		t.Fatalf("TaskEvents returned %d events, want %d", len(got), len(stages))
	}
	var prevSeq uint64
	for i, e := range got {
		if e.Stage != stages[i] {
			t.Errorf("event %d stage = %q, want %q", i, e.Stage, stages[i])
		}
		if e.Seq <= prevSeq {
			t.Errorf("event %d seq %d not increasing past %d", i, e.Seq, prevSeq)
		}
		prevSeq = e.Seq
	}
}

func TestRingEvictionKeepsSuffix(t *testing.T) {
	// Tiny ring: one slot per stripe.
	r := NewRecorder(traceStripes)
	id := task.ID(3)
	for i := 0; i < 5; i++ {
		r.Append(Event{TaskID: id, Stage: StageLease, At: t0.Add(time.Duration(i) * time.Second)})
	}
	got := r.TaskEvents(id)
	if len(got) != 1 {
		t.Fatalf("retained %d events, want 1 (stripe capacity)", len(got))
	}
	// Eviction trims oldest first: the survivor is the newest append.
	if want := t0.Add(4 * time.Second); !got[0].At.Equal(want) {
		t.Errorf("survivor At = %v, want %v", got[0].At, want)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
}

func TestRingEvictionOrderAfterWrap(t *testing.T) {
	// Three slots per stripe; six events for one task: the retained three
	// must be the newest three, still oldest-first.
	r := NewRecorder(3 * traceStripes)
	id := task.ID(5)
	for i := 0; i < 6; i++ {
		r.Append(Event{TaskID: id, Stage: StageLease, At: t0.Add(time.Duration(i) * time.Minute)})
	}
	got := r.TaskEvents(id)
	if len(got) != 3 {
		t.Fatalf("retained %d events, want 3", len(got))
	}
	for i, e := range got {
		want := t0.Add(time.Duration(3+i) * time.Minute)
		if !e.At.Equal(want) {
			t.Errorf("event %d At = %v, want %v", i, e.At, want)
		}
		if i > 0 && e.Seq <= got[i-1].Seq {
			t.Errorf("event %d seq %d out of order", i, e.Seq)
		}
	}
}

func TestConcurrentAppendAndQuery(t *testing.T) {
	const (
		writers       = 8
		perWriter     = 500
		tasksPerSweep = 32
	)
	r := NewRecorder(1024)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := task.ID(i % tasksPerSweep)
				r.Append(Event{TaskID: id, Stage: StageLease, At: t0, Worker: "w"})
				if i%16 == 0 {
					r.TaskEvents(id)
					r.Len()
				}
			}
		}(w)
	}
	wg.Wait()
	if got, capTotal := r.Len(), r.Capacity(); got > capTotal {
		t.Fatalf("Len %d exceeds capacity %d", got, capTotal)
	}
	// Per-task sequence numbers must be strictly increasing even after the
	// concurrent storm wrapped the ring many times over.
	for id := task.ID(0); id < tasksPerSweep; id++ {
		events := r.TaskEvents(id)
		for i := 1; i < len(events); i++ {
			if events[i].Seq <= events[i-1].Seq {
				t.Fatalf("task %d events out of seq order at %d: %d then %d",
					id, i, events[i-1].Seq, events[i].Seq)
			}
		}
	}
}

// TestObserveStageRoutes: each stage that ends a latency lands in its own
// histogram, with a traced observation as the bucket's exemplar; every
// other stage is ignored. (The rules for when a stage is observed live in
// the queue, which measures them: internal/queue/latency_test.go.)
func TestObserveStageRoutes(t *testing.T) {
	r := NewRecorder(0)
	tr := TraceID{1}
	r.ObserveStage(StageLease, 2*time.Second, tr)
	r.ObserveStage(StageAnswer, 3*time.Second, TraceID{})
	r.ObserveStage(StageComplete, 5*time.Second, tr)
	r.ObserveStage(StageRelease, time.Hour, tr)
	hists := [3]*metrics.LatencyHist{}
	hists[0], hists[1], hists[2] = r.Latencies()
	for i, want := range []time.Duration{2 * time.Second, 3 * time.Second, 5 * time.Second} {
		samples := metrics.PromHistogramSamples(hists[i])
		if count := samples[len(samples)-1].Value; count != 1 || hists[i].Sum() != want {
			t.Errorf("histogram %d: %g observations totalling %v, want 1 of %v", i, count, hists[i].Sum(), want)
		}
	}
	for i, want := range []bool{true, false, true} {
		got := false
		for b := 0; b <= len(metrics.ExemplarBounds); b++ {
			_, ok := hists[i].Exemplar(b)
			got = got || ok
		}
		if got != want {
			t.Errorf("histogram %d holds an exemplar: %v, want %v", i, got, want)
		}
	}
}

// TestSlotSize pins the ring slot at 64 B, where a whole Event is 88: the
// ring is the largest fixed allocation of an idle node.
func TestSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 64 {
		t.Errorf("ring slot is %d B; want 64", got)
	}
}

// TestSlotRoundTrip: TaskEvents returns each event as it was appended —
// seq order, stage, worker, trace ID and At, whose instant, zone offset
// and JSON come back — for every stage and for instants at the edges of
// what the storage codec accepts.
func TestSlotRoundTrip(t *testing.T) {
	ats := []time.Time{
		{},
		time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(2026, 7, 6, 12, 0, 0, 5, time.FixedZone("", -(3*3600+30*60))),
		time.Date(1, 1, 1, 0, 0, 0, 0, time.FixedZone("", 14*3600)),
		time.Date(9999, 12, 31, 23, 59, 59, 0, time.FixedZone("NPT", 5*3600+45*60)),
		time.Now(),
	}
	r := NewRecorder(0)
	var want []Event
	for i, st := range stages[1:] {
		for j, at := range ats {
			e := Event{TaskID: 9, Stage: st, At: at, Worker: []string{"", "w", "worker-ü"}[(i+j)%3]}
			if j%2 == 0 {
				e.Trace = TraceID{byte(i), byte(j), 0xff}
			}
			r.Append(e)
			want = append(want, e)
		}
	}
	got := r.TaskEvents(9)
	if len(got) != len(want) {
		t.Fatalf("TaskEvents returned %d events, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		w.Seq = g.Seq
		if i > 0 && g.Seq <= got[i-1].Seq {
			t.Fatalf("event %d: seq %d after %d", i, g.Seq, got[i-1].Seq)
		}
		_, gotOff := g.At.Zone()
		_, wantOff := w.At.Zone()
		gotJSON, _ := json.Marshal(g)
		wantJSON, _ := json.Marshal(w)
		if g.TaskID != w.TaskID || g.Stage != w.Stage || g.Worker != w.Worker || g.Trace != w.Trace ||
			!g.At.Equal(w.At) || gotOff != wantOff || string(gotJSON) != string(wantJSON) {
			t.Errorf("event %d came back as %s, offset %d\nwant %s, offset %d", i, gotJSON, gotOff, wantJSON, wantOff)
		}
		if w.At.IsZero() && g.At != (time.Time{}) {
			t.Errorf("event %d: the zero time came back as %#v", i, g.At)
		}
	}
	// A stage outside the declared ones has no code: it is kept as "".
	r.Append(Event{TaskID: 10, Stage: "bogus", At: t0})
	if got := r.TaskEvents(10); len(got) != 1 || got[0].Stage != "" {
		t.Errorf("an undeclared stage came back as %+v", got)
	}
}
