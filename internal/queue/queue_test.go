package queue

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"humancomp/internal/store"
	"humancomp/internal/task"
)

var t0 = time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)

func newTask(t *testing.T, id task.ID, priority, redundancy int) *task.Task {
	t.Helper()
	tk, err := task.New(id, task.Label, task.Payload{ImageID: int(id)}, redundancy, t0)
	if err != nil {
		t.Fatal(err)
	}
	tk.Priority = priority
	return tk
}

func answer(words ...int) task.Answer { return task.Answer{Words: words} }

func TestPriorityOrder(t *testing.T) {
	q := New(time.Minute)
	for i, pri := range []int{1, 5, 3} {
		if err := q.Add(newTask(t, task.ID(i), pri, 1)); err != nil {
			t.Fatal(err)
		}
	}
	wantOrder := []task.ID{1, 2, 0} // priorities 5, 3, 1
	for _, want := range wantOrder {
		tk, lease, err := q.Lease("w", t0)
		if err != nil {
			t.Fatal(err)
		}
		if tk.ID != want {
			t.Fatalf("leased %d, want %d", tk.ID, want)
		}
		if _, err := q.Complete(lease, answer(1), t0); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := q.Lease("w", t0); !errors.Is(err, ErrEmpty) {
		t.Fatalf("expected empty queue, got %v", err)
	}
}

func TestFIFOWithinPriority(t *testing.T) {
	q := New(time.Minute)
	early := newTask(t, 10, 0, 1)
	late := newTask(t, 5, 0, 1)
	late.CreatedAt = t0.Add(time.Second)
	if err := q.Add(late); err != nil {
		t.Fatal(err)
	}
	if err := q.Add(early); err != nil {
		t.Fatal(err)
	}
	tk, _, err := q.Lease("w", t0)
	if err != nil {
		t.Fatal(err)
	}
	if tk.ID != 10 {
		t.Fatalf("leased %d, want earlier-created 10", tk.ID)
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	q := New(time.Minute)
	if err := q.Add(newTask(t, 1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := q.Add(newTask(t, 1, 0, 1)); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("err = %v", err)
	}
}

func TestRedundancyLimitsConcurrentLeases(t *testing.T) {
	q := New(time.Minute)
	if err := q.Add(newTask(t, 1, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Lease("a", t0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Lease("b", t0); err != nil {
		t.Fatal(err)
	}
	// Third concurrent worker must not get the task: only 2 answers wanted.
	if _, _, err := q.Lease("c", t0); !errors.Is(err, ErrEmpty) {
		t.Fatalf("third lease: err = %v", err)
	}
}

func TestSameWorkerCannotHoldTaskTwice(t *testing.T) {
	q := New(time.Minute)
	if err := q.Add(newTask(t, 1, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Lease("w", t0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Lease("w", t0); !errors.Is(err, ErrEmpty) {
		t.Fatalf("second lease to same worker: err = %v", err)
	}
}

func TestWorkerCannotAnswerTwice(t *testing.T) {
	q := New(time.Minute)
	if err := q.Add(newTask(t, 1, 0, 3)); err != nil {
		t.Fatal(err)
	}
	_, lease, err := q.Lease("w", t0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Complete(lease, answer(1), t0); err != nil {
		t.Fatal(err)
	}
	// The same worker asking again must be skipped even though the task
	// still needs two more answers.
	if _, _, err := q.Lease("w", t0); !errors.Is(err, ErrEmpty) {
		t.Fatalf("lease after answering: err = %v", err)
	}
	if _, _, err := q.Lease("other", t0); err != nil {
		t.Fatalf("different worker should get the task: %v", err)
	}
}

func TestCompleteStampsLeaseWorker(t *testing.T) {
	q := New(time.Minute)
	if err := q.Add(newTask(t, 1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	tk, lease, err := q.Lease("w", t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tk.Answers) != 0 {
		t.Fatalf("lease snapshot already has answers: %+v", tk)
	}
	a := answer(1)
	a.WorkerID = "forged"
	res, err := q.Complete(lease, a, t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.WorkerID != "w" {
		t.Fatalf("answer WorkerID = %q, want lease holder", res.Answer.WorkerID)
	}
	if res.TaskID != 1 || res.Status != task.Done {
		t.Fatalf("complete result = %+v", res)
	}
	// The lease-time snapshot is immutable: completing must not have
	// appended to it.
	if len(tk.Answers) != 0 {
		t.Fatalf("lease snapshot mutated by Complete: %+v", tk.Answers)
	}
}

func TestLeaseExpiryRequeues(t *testing.T) {
	q := New(time.Minute)
	if err := q.Add(newTask(t, 1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	_, lease, err := q.Lease("a", t0)
	if err != nil {
		t.Fatal(err)
	}
	// Before expiry no one else can take it.
	if _, _, err := q.Lease("b", t0.Add(30*time.Second)); !errors.Is(err, ErrEmpty) {
		t.Fatalf("pre-expiry lease: err = %v", err)
	}
	// After expiry the task is available again and the old lease is dead.
	tk, _, err := q.Lease("b", t0.Add(61*time.Second))
	if err != nil || tk.ID != 1 {
		t.Fatalf("post-expiry lease: %v, %v", tk, err)
	}
	if _, err := q.Complete(lease, answer(1), t0.Add(61*time.Second)); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("complete on expired lease: err = %v", err)
	}
	if q.Stats().ExpiredLeases != 1 {
		t.Errorf("ExpiredLeases = %d", q.Stats().ExpiredLeases)
	}
}

func TestExpireLeasesExplicit(t *testing.T) {
	q := New(time.Minute)
	for i := 0; i < 3; i++ {
		if err := q.Add(newTask(t, task.ID(i), 0, 1)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := q.Lease(fmt.Sprintf("w%d", i), t0); err != nil {
			t.Fatal(err)
		}
	}
	if n := q.ExpireLeases(t0.Add(time.Second)); n != 0 {
		t.Fatalf("expired %d before TTL", n)
	}
	if n := q.ExpireLeases(t0.Add(2 * time.Minute)); n != 3 {
		t.Fatalf("expired %d, want 3", n)
	}
	if got := q.Stats(); got.InFlight != 0 || got.Open != 3 {
		t.Fatalf("stats after expiry: %+v", got)
	}
}

func TestRelease(t *testing.T) {
	q := New(time.Minute)
	if err := q.Add(newTask(t, 1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	_, lease, err := q.Lease("a", t0)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Release(lease, t0); err != nil {
		t.Fatal(err)
	}
	if err := q.Release(lease, t0); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("double release: err = %v", err)
	}
	// Released task immediately available, even to the same worker.
	if _, _, err := q.Lease("a", t0); err != nil {
		t.Fatalf("lease after release: %v", err)
	}
}

func TestCancelRemovesTask(t *testing.T) {
	q := New(time.Minute)
	if err := q.Add(newTask(t, 1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := q.Cancel(1, t0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Lease("w", t0); !errors.Is(err, ErrEmpty) {
		t.Fatalf("lease after cancel: err = %v", err)
	}
	if err := q.Cancel(99, t0); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("cancel unknown: err = %v", err)
	}
}

func TestNewPanicsOnBadTTL(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

// TestNoDoubleLeaseProperty drives random lease/complete/release/expire
// traffic and asserts the core safety property: a task never accumulates
// more answers than its redundancy, and no worker answers twice.
func TestNoDoubleLeaseProperty(t *testing.T) {
	f := func(ops []uint8, redundancyRaw uint8) bool {
		q := New(time.Minute)
		redundancy := int(redundancyRaw%4) + 1
		const nTasks = 5
		for i := 0; i < nTasks; i++ {
			tk, _ := task.New(task.ID(i), task.Label, task.Payload{}, redundancy, t0)
			if err := q.Add(tk); err != nil {
				return false
			}
		}
		now := t0
		held := map[LeaseID]bool{}
		workers := []string{"a", "b", "c", "d", "e", "f"}
		for _, op := range ops {
			now = now.Add(time.Duration(op%40) * time.Second)
			switch op % 3 {
			case 0:
				w := workers[int(op/3)%len(workers)]
				if _, l, err := q.Lease(w, now); err == nil {
					held[l] = true
				}
			case 1:
				for l := range held {
					_, _ = q.Complete(l, answer(int(op)), now)
					delete(held, l)
					break
				}
			case 2:
				for l := range held {
					_ = q.Release(l, now)
					delete(held, l)
					break
				}
			}
		}
		for i := 0; i < nTasks; i++ {
			tk, err := q.st.View(task.ID(i))
			if err != nil {
				return false
			}
			if len(tk.Answers) > redundancy {
				return false
			}
			seen := map[string]bool{}
			for _, a := range tk.Answers {
				if seen[a.WorkerID] {
					return false
				}
				seen[a.WorkerID] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentWorkersRace(t *testing.T) {
	q := New(time.Minute)
	const nTasks = 200
	for i := 0; i < nTasks; i++ {
		if err := q.Add(newTask(t, task.ID(i), 0, 2)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var completed sync.Map
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("worker-%d", w)
			for {
				tk, lease, err := q.Lease(id, t0)
				if errors.Is(err, ErrEmpty) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := q.Complete(lease, answer(w), t0); err != nil {
					t.Error(err)
					return
				}
				completed.Store(tk.ID, true)
			}
		}(w)
	}
	wg.Wait()
	n := 0
	completed.Range(func(_, _ any) bool { n++; return true })
	if n != nTasks {
		t.Fatalf("completed %d distinct tasks, want %d", n, nTasks)
	}
	if s := q.Stats(); s.Open != 0 || s.InFlight != 0 {
		t.Fatalf("queue not drained: %+v", s)
	}
}

func BenchmarkLeaseComplete(b *testing.B) {
	q := New(time.Minute)
	for i := 0; i < b.N; i++ {
		tk, _ := task.New(task.ID(i), task.Label, task.Payload{}, 1, t0)
		if err := q.Add(tk); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, lease, err := q.Lease("w", t0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := q.Complete(lease, answer(1), t0); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFinishEarly(t *testing.T) {
	q := New(time.Minute)
	tk, err := task.New(1, task.Judge, task.Payload{ClipA: 1, ClipB: 2}, 5, t0)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Add(tk); err != nil {
		t.Fatal(err)
	}
	v, lease, err := q.Lease("w1", t0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Complete(lease, task.Answer{Choice: 1}, t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers != 1 || res.Redundancy != 5 {
		t.Fatalf("CompleteResult counts: answers=%d redundancy=%d", res.Answers, res.Redundancy)
	}
	fv, ok := q.FinishEarly(v.ID, t0)
	if !ok {
		t.Fatal("FinishEarly refused an open task")
	}
	if fv.Status != task.Done || len(fv.Answers) != 1 {
		t.Fatalf("finished view: status=%v answers=%d", fv.Status, len(fv.Answers))
	}
	// Idempotent: a second finish (or finishing an unknown task) is a no-op.
	if _, ok := q.FinishEarly(v.ID, t0); ok {
		t.Fatal("FinishEarly finished a done task")
	}
	if _, ok := q.FinishEarly(999, t0); ok {
		t.Fatal("FinishEarly finished an unknown task")
	}
	// The finished task no longer leases out.
	if _, _, err := q.Lease("w2", t0); err == nil {
		t.Fatal("finished task still leasable")
	}
}

// TestLeaseTaskTargeted covers the targeted-lease path the session plane
// uses: lease a specific task regardless of priority order, honor the
// same eligibility rules as Lease, and feed the normal Complete path.
func TestLeaseTaskTargeted(t *testing.T) {
	q := New(time.Minute)
	if err := q.Add(newTask(t, 1, 9, 2)); err != nil {
		t.Fatal(err)
	}
	if err := q.Add(newTask(t, 2, 1, 2)); err != nil {
		t.Fatal(err)
	}
	// Target the low-priority task directly; Lease would have picked 1.
	v, lease, err := q.LeaseTask(2, "alice", t0)
	if err != nil || v.ID != 2 {
		t.Fatalf("LeaseTask(2) = %v, %v", v.ID, err)
	}
	// Same worker cannot double-hold the task.
	if _, _, err := q.LeaseTask(2, "alice", t0); !errors.Is(err, ErrEmpty) {
		t.Fatalf("double targeted lease: %v", err)
	}
	// A second worker takes the remaining redundancy slot; a third is
	// refused.
	if _, _, err := q.LeaseTask(2, "bob", t0); err != nil {
		t.Fatalf("second worker: %v", err)
	}
	if _, _, err := q.LeaseTask(2, "carol", t0); !errors.Is(err, ErrEmpty) {
		t.Fatalf("over-redundancy targeted lease: %v", err)
	}
	// Unknown task and empty worker are rejected.
	if _, _, err := q.LeaseTask(99, "alice", t0); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("unknown task: %v", err)
	}
	if _, _, err := q.LeaseTask(1, "", t0); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty worker: %v", err)
	}
	// The targeted lease completes like any other.
	res, err := q.Complete(lease, answer(7), t0.Add(time.Second))
	if err != nil || res.TaskID != 2 || res.Answer.WorkerID != "alice" {
		t.Fatalf("Complete = %+v, %v", res, err)
	}
	// A worker who already answered is no longer eligible.
	if _, _, err := q.LeaseTask(2, "alice", t0.Add(2*time.Second)); !errors.Is(err, ErrEmpty) {
		t.Fatalf("answered worker re-leased: %v", err)
	}
}

// TestLeaseTaskExpiresStaleLeases checks a targeted lease reclaims expired
// leases first, so a crashed holder does not block the slot.
func TestLeaseTaskExpiresStaleLeases(t *testing.T) {
	q := New(time.Minute)
	if err := q.Add(newTask(t, 1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.LeaseTask(1, "ghost", t0); err != nil {
		t.Fatal(err)
	}
	// Before expiry the slot is taken.
	if _, _, err := q.LeaseTask(1, "alice", t0.Add(time.Second)); !errors.Is(err, ErrEmpty) {
		t.Fatalf("want ErrEmpty while leased, got %v", err)
	}
	// After the ghost's lease expires the targeted lease succeeds.
	if _, _, err := q.LeaseTask(1, "alice", t0.Add(2*time.Minute)); err != nil {
		t.Fatalf("post-expiry targeted lease: %v", err)
	}
}

// TestCompleteSkipsSweepUntilALeaseIsDue: with 10 000 leases outstanding
// and none due, a Complete (like every Lease and Release) must not walk the
// lease table — and the one overdue lease among them must still be reclaimed
// by the first call made once it is due.
func TestCompleteSkipsSweepUntilALeaseIsDue(t *testing.T) {
	const n = 10_000
	q := New(time.Minute)
	for i := 1; i <= n+1; i++ {
		if err := q.Add(newTask(t, task.ID(i), 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// One lease taken 30 s before the others: the first to fall due.
	// (LeaseTask throughout: Lease scans past every fully leased entry.)
	early, _, err := q.LeaseTask(n+1, "early", t0.Add(-30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	leases := make([]LeaseID, n)
	for i := range leases {
		if _, leases[i], err = q.LeaseTask(task.ID(i+1), "w", t0); err != nil {
			t.Fatal(err)
		}
	}
	if q.sweeps != 0 {
		t.Fatalf("%d sweeps while granting leases with none due", q.sweeps)
	}
	if _, err := q.Complete(leases[0], answer(1), t0.Add(29*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := q.Release(leases[1], t0.Add(29*time.Second)); err != nil {
		t.Fatal(err)
	}
	if q.sweeps != 0 {
		t.Fatalf("Complete and Release swept the lease table %d times with nothing due", q.sweeps)
	}
	// The early lease is due at t0+30s. The next call — whatever it is —
	// reclaims it, and only it.
	if _, err := q.Complete(leases[2], answer(1), t0.Add(30*time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := q.Stats(); q.sweeps != 1 || got.ExpiredLeases != 1 || got.InFlight != n-3 {
		t.Fatalf("after the early lease fell due: %d sweeps, stats %+v; want 1 sweep, 1 expired, %d in flight", q.sweeps, got, n-3)
	}
	if tk, _, err := q.LeaseTask(early.ID, "late", t0.Add(30*time.Second)); err != nil || tk.ID != early.ID {
		t.Fatalf("reclaimed task not leasable again: %v, %v", tk, err)
	}
	// That sweep recomputed the bound from the survivors (all due at
	// t0+60s), so the table is left alone again until then.
	if _, err := q.Complete(leases[3], answer(1), t0.Add(59*time.Second)); err != nil {
		t.Fatal(err)
	}
	if q.sweeps != 1 {
		t.Fatalf("%d sweeps, want still 1 before the next lease is due", q.sweeps)
	}
	if reclaimed := q.ExpireLeases(t0.Add(60 * time.Second)); reclaimed != n-4 {
		t.Fatalf("reclaimed %d leases at their expiry, want %d", reclaimed, n-4)
	}
}

// TestConcurrentLeasesAreExactBestFirst: leases are granted under the one
// lock, in lease-ID order, so however many workers lease at once no grant
// ever passes over a strictly better task that was still unleased.
func TestConcurrentLeasesAreExactBestFirst(t *testing.T) {
	const nTasks, nWorkers = 400, 8 // a lease scans past every fully leased task: keep the backlog small
	q := New(time.Minute)
	r := rand.New(rand.NewSource(7))
	for i := 1; i <= nTasks; i++ {
		tk := newTask(t, task.ID(i), r.Intn(5), 1)
		tk.CreatedAt = t0.Add(time.Duration(r.Intn(50)) * time.Second)
		if err := q.Add(tk); err != nil {
			t.Fatal(err)
		}
	}
	granted := make([]*task.Task, nTasks+1) // by lease ID, which counts grants from 1
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(worker string) {
			defer wg.Done()
			for {
				v, lease, err := q.Lease(worker, t0)
				if err != nil {
					return
				}
				tk := task.Task(v)
				granted[lease] = &tk
			}
		}(fmt.Sprintf("w%d", w))
	}
	wg.Wait()
	h := taskHeap{granted[1], nil}
	for lease := 2; lease <= nTasks; lease++ {
		if granted[lease] == nil {
			t.Fatalf("lease %d of %d never granted", lease, nTasks)
		}
		h[1] = granted[lease]
		if h.Less(1, 0) {
			t.Fatalf("lease %d went to task %d (priority %d, created %v) while the better task %d (priority %d, created %v) of lease %d was unleased",
				lease-1, h[0].ID, h[0].Priority, h[0].CreatedAt, h[1].ID, h[1].Priority, h[1].CreatedAt, lease)
		}
		h[0] = h[1]
	}
}

// TestStatsOpenMatchesWalk drives a seeded mix of every operation that
// moves a task into or out of Open and checks the O(1) count against a
// brute-force walk over the store's open tasks after each step, and that
// the heap, which closed tasks
// leave lazily, stays within twice the open count plus 64 slots. Cancels
// and early finishes pick the newest tasks, last in line at their priority,
// where no scan reaches them; without the rebuild the bound breaks by step
// 2100.
func TestStatsOpenMatchesWalk(t *testing.T) {
	q := New(time.Minute)
	r := rand.New(rand.NewSource(11))
	now, next := t0, task.ID(1)
	var held []LeaseID
	for step := 0; step < 3000; step++ {
		now = now.Add(time.Duration(r.Intn(4)) * time.Second)
		// deep picks one of the newest tasks: last in line at its priority.
		deep := func() task.ID { return next - 1 - task.ID(r.Intn(min(int(next)-1, 48)+1)) }
		switch op := r.Intn(16); {
		case op < 3:
			if err := q.Add(newTask(t, next, r.Intn(3), 1+r.Intn(3))); err != nil {
				t.Fatal(err)
			}
			next++
		case op < 7:
			if _, l, err := q.Lease(fmt.Sprintf("w%d", r.Intn(6)), now); err == nil {
				held = append(held, l)
			}
		case op < 11:
			if len(held) > 0 {
				i := r.Intn(len(held))
				_, _ = q.Complete(held[i], answer(step), now) // an expired lease is refused: also a case
				held = append(held[:i], held[i+1:]...)
			}
		case op < 14:
			_ = q.Cancel(deep(), now)
		case op < 15:
			q.FinishEarly(deep(), now)
		default:
			now = now.Add(time.Minute) // let every outstanding lease fall due
			q.ExpireLeases(now)
		}
		open := q.Stats().Open
		if want := len(q.st.Tasks(task.Open)); open != want {
			t.Fatalf("step %d: Stats().Open = %d, a walk finds %d", step, open, want)
		}
		if n := len(q.heap); n > 2*open+64 {
			t.Fatalf("step %d: the heap holds %d slots for %d open tasks", step, n, open)
		}
	}
	if q.Stats().Open == 0 || int(next) < 500 {
		t.Fatalf("the mix left nothing to count: %+v after %d adds", q.Stats(), next-1)
	}
}

// TestStatsVisitsNoEntry: Stats runs on every /metrics scrape and every GET
// /v1/stats under the lock every lease and answer needs, so it must not
// walk the backlog. With 50 000 open tasks it allocates nothing, and it
// still answers exactly after every heap slot has been nilled — a walk
// would dereference them — and the store swapped for an empty one, which a
// count through the store would read as no open task.
func TestStatsVisitsNoEntry(t *testing.T) {
	const n = 50_000
	q := New(time.Minute)
	for i := 1; i <= n; i++ {
		if err := q.Add(newTask(t, task.ID(i), 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := q.Lease("w", t0); err != nil {
		t.Fatal(err)
	}
	clear(q.heap)
	q.st = store.New()
	want := Stats{Open: n, InFlight: 1}
	if allocs := testing.AllocsPerRun(10, func() {
		if got := q.Stats(); got != want {
			t.Fatalf("Stats() = %+v, want %+v", got, want)
		}
	}); allocs != 0 {
		t.Fatalf("Stats allocates %.0f times", allocs)
	}
}
