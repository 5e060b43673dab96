package queue

import (
	"testing"
	"time"

	"humancomp/internal/metrics"
	"humancomp/internal/task"
	"humancomp/internal/trace"
)

// at is t0 plus s seconds: the explicit clock these tests drive.
func at(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }

// wantHist checks a stage histogram's count (its _count sample) and total.
func wantHist(t *testing.T, name string, h *metrics.LatencyHist, count int64, sum time.Duration) {
	t.Helper()
	samples := metrics.PromHistogramSamples(h)
	if got := samples[len(samples)-1].Value; got != float64(count) || h.Sum() != sum {
		t.Errorf("%s: %g observations totalling %v, want %d totalling %v", name, got, h.Sum(), count, sum)
	}
}

func tracedQueue() (*Queue, *trace.Recorder) {
	q, rec := New(time.Minute), trace.NewRecorder(0)
	q.SetRecorder(rec)
	return q, rec
}

// TestStageLatencies: the queue hands each stage latency to the recorder as
// the stage ends. Time in queue is observed at a task's first lease only,
// whichever path grants it; lease-to-answer once per answered lease;
// answers-to-completion from the first answer, on Done and on FinishEarly
// alike, and not at all for a task finished without answers.
func TestStageLatencies(t *testing.T) {
	q, rec := tracedQueue()
	for id, red := range map[task.ID]int{1: 2, 2: 3, 3: 2} {
		if err := q.Add(newTask(t, id, int(10-id), red)); err != nil {
			t.Fatal(err)
		}
	}
	inQueue, leaseToAnswer, toCompletion := rec.Latencies()

	// Task 1: first leased by Lease at +2s, again by leaseTask at +3s.
	_, la, err := q.Lease("a", at(2))
	if err != nil {
		t.Fatal(err)
	}
	_, lb, err := leaseTask(q, 1, "b", at(3))
	if err != nil {
		t.Fatal(err)
	}
	wantHist(t, "time in queue after two leases of one task", inQueue, 1, 2*time.Second)

	// Task 2 is first leased by LeaseBatch at +4s (task 1 has no slot left
	// for c, task 3 is leased in the same batch).
	grants := q.LeaseBatch("c", 2, at(4))
	if len(grants) != 2 || grants[0].Task.ID != 2 || grants[1].Task.ID != 3 {
		t.Fatalf("LeaseBatch = %+v, want tasks 2 and 3", grants)
	}
	wantHist(t, "time in queue after the batch", inQueue, 3, 10*time.Second)

	// Task 1: answers at +5s (lease held 3s) and +10s (held 7s); the second
	// meets redundancy, 5s after the first answer.
	if _, err := q.Complete(la, answer(1), at(5)); err != nil {
		t.Fatal(err)
	}
	wantHist(t, "answers to completion before redundancy", toCompletion, 0, 0)
	if res, err := q.Complete(lb, answer(2), at(10)); err != nil || res.Status != task.Done {
		t.Fatalf("second answer: %+v, %v", res, err)
	}
	wantHist(t, "lease to answer", leaseToAnswer, 2, 10*time.Second)
	wantHist(t, "answers to completion on Done", toCompletion, 1, 5*time.Second)

	// Task 2: one answer at +6s (held 2s), finished early at +9s.
	if _, err := q.Complete(grants[0].Lease, answer(3), at(6)); err != nil {
		t.Fatal(err)
	}
	if _, ok := q.FinishEarly(2, at(9)); !ok {
		t.Fatal("FinishEarly(2) refused")
	}
	wantHist(t, "lease to answer", leaseToAnswer, 3, 12*time.Second)
	wantHist(t, "answers to completion on FinishEarly", toCompletion, 2, 8*time.Second)

	// Task 3 finishes with no answer: nothing to measure from.
	if _, ok := q.FinishEarly(3, at(11)); !ok {
		t.Fatal("FinishEarly(3) refused")
	}
	wantHist(t, "answers to completion", toCompletion, 2, 8*time.Second)
	wantHist(t, "time in queue at the end", inQueue, 3, 10*time.Second)
}

// TestRecoveredTaskLatenciesSpanRestart: a task enqueued already holding an
// answer — recovered after a restart — is measured from its persisted
// timestamps: time in queue from CreatedAt at its first lease, and
// answers-to-completion from the answer given before the restart, on Done
// and on FinishEarly alike.
func TestRecoveredTaskLatenciesSpanRestart(t *testing.T) {
	q, rec := tracedQueue()
	for id := task.ID(1); id <= 2; id++ {
		tk := newTask(t, id, int(2-id), 2)
		if err := tk.Record(task.Answer{WorkerID: "before", Words: []int{1}}, at(1)); err != nil {
			t.Fatal(err)
		}
		if err := q.Add(tk); err != nil {
			t.Fatal(err)
		}
	}
	inQueue, leaseToAnswer, toCompletion := rec.Latencies()

	// Task 1: leased at +100s, its second answer at +105s meets redundancy.
	v, l, err := q.Lease("after", at(100))
	if err != nil || v.ID != 1 {
		t.Fatalf("Lease = %d, %v; want task 1", v.ID, err)
	}
	if res, err := q.Complete(l, answer(2), at(105)); err != nil || res.Status != task.Done {
		t.Fatalf("answer: %+v, %v", res, err)
	}
	wantHist(t, "time in queue", inQueue, 1, 100*time.Second)
	wantHist(t, "lease to answer", leaseToAnswer, 1, 5*time.Second)
	wantHist(t, "answers to completion on Done", toCompletion, 1, 104*time.Second)

	// Task 2: never leased after the restart, finished early at +110s.
	if _, ok := q.FinishEarly(2, at(110)); !ok {
		t.Fatal("FinishEarly(2) refused")
	}
	wantHist(t, "answers to completion", toCompletion, 2, 213*time.Second)
	wantHist(t, "time in queue at the end", inQueue, 1, 100*time.Second)
}

// TestReleaseAndExpireDropLeaseSpans: a released or expired lease is never
// observed as lease-to-answer — its late answer is refused — and a task
// leased again afterwards is not observed as in queue a second time.
func TestReleaseAndExpireDropLeaseSpans(t *testing.T) {
	q, rec := tracedQueue()
	if err := q.Add(newTask(t, 1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	inQueue, leaseToAnswer, _ := rec.Latencies()

	_, released, err := q.Lease("a", at(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Release(released, at(2)); err != nil {
		t.Fatal(err)
	}
	_, expired, err := q.Lease("b", at(3))
	if err != nil {
		t.Fatal(err)
	}
	if n := q.ExpireLeases(at(3).Add(time.Minute)); n != 1 {
		t.Fatalf("ExpireLeases reclaimed %d, want 1", n)
	}
	// Both workers answer long after losing their leases.
	for _, l := range []LeaseID{released, expired} {
		if _, err := q.Complete(l, answer(1), at(90)); err == nil {
			t.Fatalf("answer on dropped lease %d accepted", l)
		}
	}
	wantHist(t, "lease to answer", leaseToAnswer, 0, 0)
	wantHist(t, "time in queue", inQueue, 1, time.Second)
}
