package queue

import (
	"testing"
	"time"

	"humancomp/internal/task"
)

// TestLeaseAnswerCycleAllocates: a redundancy-3 task leased to three
// workers at once and answered by each costs the queue the three leases
// and the task's answer list, nothing per task for tracking its holders:
// they are read from the lease table. Each view a lease hands out copies
// the task's payload Detail into the lease's own allocation.
func TestLeaseAnswerCycleAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the production ones under the race detector")
	}
	const runs = 100
	q := New(time.Minute)
	for i := 1; i <= runs+1; i++ {
		tk, err := task.New(task.ID(i), task.Judge, task.Payload{Detail: &task.Detail{ClipA: i, ClipB: i + 1}}, 3, t0)
		if err != nil {
			t.Fatal(err)
		}
		if err := q.Add(tk); err != nil {
			t.Fatal(err)
		}
	}
	workers := [3]string{"a", "b", "c"}
	var leases [3]LeaseID
	got := testing.AllocsPerRun(runs, func() {
		for i, w := range workers {
			var err error
			if _, leases[i], err = q.Lease(w, t0); err != nil {
				t.Fatal(err)
			}
		}
		for i, l := range leases {
			res, err := q.Complete(l, task.Answer{Choice: 1}, t0)
			if err != nil || (i == 2) != (res.Status == task.Done) {
				t.Fatalf("answer %d: %+v, %v", i, res, err)
			}
		}
	})
	t.Logf("%.0f allocs a cycle", got)
	if got > 4 {
		t.Fatalf("a lease → answer cycle of a redundancy-3 task allocates %.0f times; want at most 4: three leases and one answer list", got)
	}
}
