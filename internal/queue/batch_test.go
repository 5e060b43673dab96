package queue

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"humancomp/internal/store"
	"humancomp/internal/task"
)

func TestAddBatchPartialFailure(t *testing.T) {
	q := New(time.Minute)
	if err := q.Add(newTask(t, 2, 0, 1)); err != nil {
		t.Fatal(err)
	}
	done := newTask(t, 3, 0, 1)
	done.Status = task.Done
	ts := []*task.Task{
		newTask(t, 1, 0, 1),
		newTask(t, 2, 1, 1), // another task under the pre-added task's ID
		done,                // wrong status
		newTask(t, 4, 0, 1),
	}
	errs := q.AddBatch(ts)
	if len(errs) != len(ts) {
		t.Fatalf("got %d errors for %d tasks", len(errs), len(ts))
	}
	if errs[0] != nil || errs[3] != nil {
		t.Fatalf("good items failed: %v, %v", errs[0], errs[3])
	}
	if !errors.Is(errs[1], ErrDuplicateID) {
		t.Fatalf("dup item: got %v, want ErrDuplicateID", errs[1])
	}
	if errs[2] == nil {
		t.Fatal("done task enqueued")
	}
	// The good items are leasable.
	got := map[task.ID]bool{}
	for _, g := range q.LeaseBatch("w", 8, t0) {
		got[g.Task.ID] = true
	}
	if !got[1] || !got[4] || len(got) != 3 { // 1, 4, and pre-added 2
		t.Fatalf("leasable after AddBatch = %v", got)
	}
}

// TestAddAfterPutOnlyEnqueues: tasks already in the queue's store — put
// there first, as the layer benchmark's preload and its leaf rung do — are
// only enqueued, counted and leasable once each, whether the queue is
// handed the stored tasks PutBatch leaves in the slice or the caller's own
// copy of a task Put stored; another record under a stored ID is refused.
func TestAddAfterPutOnlyEnqueues(t *testing.T) {
	leased := func(q *Queue) []task.ID {
		var got []task.ID
		for _, g := range q.LeaseBatch("w", 8, t0) {
			got = append(got, g.Task.ID)
		}
		return got
	}

	st := store.New()
	q := NewLocked(time.Minute, st, nil)
	ts := []*task.Task{newTask(t, 1, 0, 1), newTask(t, 2, 1, 1)}
	st.PutBatch(ts)
	if errs := q.AddBatch(ts); errs != nil {
		t.Fatalf("AddBatch after PutBatch: %v", errs)
	}
	if open := q.Stats(t0).Open; open != 2 {
		t.Fatalf("Stats().Open = %d, want 2", open)
	}
	if got := leased(q); !slices.Equal(got, []task.ID{2, 1}) {
		t.Fatalf("leased %v, want [2 1]", got)
	}

	st = store.New()
	q = NewLocked(time.Minute, st, nil)
	own := newTask(t, 3, 0, 1)
	stored := st.Put(own)
	if stored == own {
		t.Fatal("Put kept the caller's task rather than a copy")
	}
	if err := q.Add(own); err != nil {
		t.Fatalf("Add of the caller's copy after Put: %v", err)
	}
	other := newTask(t, 3, 5, 1)
	if err := q.Add(other); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("Add of another record under a stored ID: %v, want ErrDuplicateID", err)
	}
	if open := q.Stats(t0).Open; open != 1 || len(q.heap) != 1 || q.heap[0] != stored {
		t.Fatalf("Stats().Open = %d, heap %v; want the stored task, %p, enqueued once", open, q.heap, stored)
	}
	if got := leased(q); !slices.Equal(got, []task.ID{3}) {
		t.Fatalf("leased %v, want [3]", got)
	}
}

// TestLeaseBatchMatchesSingleLeases: for any backlog — mixed priority, age
// and redundancy, some slots already held by another worker — LeaseBatch(max)
// grants the tasks max consecutive Lease calls grant on an identical queue,
// in the same order.
func TestLeaseBatchMatchesSingleLeases(t *testing.T) {
	type spec struct {
		Priority   int8
		Age        uint8
		Redundancy uint8
		Held       bool // another worker leases a slot first
	}
	build := func(specs []spec) *Queue {
		q := New(time.Minute)
		for i, sp := range specs {
			tk := newTask(t, task.ID(i+1), int(sp.Priority), int(sp.Redundancy%3)+1)
			tk.CreatedAt = task.StampOf(t0.Add(time.Duration(sp.Age) * time.Second))
			if err := q.Add(tk); err != nil {
				t.Fatal(err)
			}
			if sp.Held {
				if _, _, err := leaseTask(q, tk.ID, "other", t0); err != nil {
					t.Fatal(err)
				}
			}
		}
		return q
	}
	prop := func(specs []spec, maxRaw uint8) bool {
		max := int(maxRaw%16) + 1
		var single []task.ID
		for q := build(specs); len(single) < max; {
			v, _, err := q.Lease("w", t0)
			if err != nil {
				break
			}
			single = append(single, v.ID)
		}
		var batch []task.ID
		for _, g := range build(specs).LeaseBatch("w", max, t0) {
			batch = append(batch, g.Task.ID)
		}
		return slices.Equal(batch, single)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLeaseBatchRespectsEligibility(t *testing.T) {
	q := New(time.Minute)
	// Redundancy 1: one lease consumes the only slot.
	if err := q.Add(newTask(t, 1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if g := q.LeaseBatch("w", 4, t0); len(g) != 1 {
		t.Fatalf("first batch leased %d, want 1", len(g))
	}
	// Same worker, and no remaining slots: nothing more to grant.
	if g := q.LeaseBatch("w", 4, t0); len(g) != 0 {
		t.Fatalf("second batch leased %d, want 0", len(g))
	}
}

func TestCompleteBatchPartialFailure(t *testing.T) {
	q := New(time.Minute)
	for id := task.ID(1); id <= 3; id++ {
		if err := q.Add(newTask(t, id, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	grants := q.LeaseBatch("w", 3, t0)
	if len(grants) != 3 {
		t.Fatalf("leased %d, want 3", len(grants))
	}
	items := []CompleteItem{
		{Lease: grants[0].Lease, Answer: answer(7)},
		{Lease: LeaseID(1 << 40), Answer: answer(8)}, // no such lease
		{Lease: grants[2].Lease, Answer: answer(9)},
	}
	out := q.CompleteBatch(items, t0)
	if len(out) != 3 {
		t.Fatalf("got %d outcomes", len(out))
	}
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("good items failed: %v, %v", out[0].Err, out[2].Err)
	}
	if !errors.Is(out[1].Err, ErrUnknownLease) {
		t.Fatalf("bogus lease: got %v, want ErrUnknownLease", out[1].Err)
	}
	if out[0].Result.Status != task.Done || out[0].Result.Answer.WorkerID != "w" {
		t.Fatalf("outcome 0 = %+v", out[0].Result)
	}
	// The failed item's lease is still live: completing it works.
	if _, err := q.Complete(grants[1].Lease, answer(8), t0); err != nil {
		t.Fatalf("completing untouched lease: %v", err)
	}
}
