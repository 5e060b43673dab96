// Package queue implements the work queue at the heart of a human
// computation system: tasks wait in priority order, workers lease them for
// a bounded time, and redundancy is enforced by never handing one task to
// more concurrent workers than it still needs answers from. Expired leases
// return the task to the pool, so a player closing the browser tab mid-round
// never strands work.
//
// All methods take the current time explicitly, so the queue runs equally
// well under the discrete-event simulator's virtual clock and the dispatch
// service's wall clock. The queue is safe for concurrent use.
//
// One mutex guards the heap, the task table and the lease table; every
// operation is one hold of it, so a lease is always the exact best eligible
// task at the moment it is granted. A queued task costs the queue one
// pointer in the heap and one in the table: what is leased, and to whom, is
// read from the lease table.
package queue

import (
	"container/heap"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"humancomp/internal/task"
	"humancomp/internal/trace"
)

// Errors returned by queue operations.
var (
	ErrEmpty        = errors.New("queue: no task available for this worker")
	ErrUnknownLease = errors.New("queue: unknown or expired lease")
	ErrUnknownTask  = errors.New("queue: unknown task")
	ErrDuplicateID  = errors.New("queue: task ID already enqueued")
)

// LeaseID identifies one outstanding lease: a sequence number, never
// reused within a process and never persisted.
type LeaseID int64

// Lease records that a worker holds a task until Expiry. LeasedAt is when
// the lease was granted; the dispatch core turns the lease-to-answer span
// into live play-time metrics.
type Lease struct {
	ID       LeaseID
	TaskID   task.ID
	WorkerID string
	LeasedAt time.Time
	Expiry   time.Time

	next *Lease // the task's next outstanding lease, in Queue.held
}

// TaskLocks hands out the lock guarding a given task's stored contents.
// *store.Store satisfies it; the queue holds the task's lock while
// mutating task state so concurrent view readers never race with a
// mutation. Lock order is always queue lock → task lock; the store never
// calls back into the queue, so this ordering cannot deadlock.
type TaskLocks interface {
	LockerFor(id task.ID) sync.Locker
}

// Queue is a redundancy-aware priority work queue with leases.
//
// The queue owns all mutation of task state while the system runs: Record
// and Cancel are only ever called under mu (plus the task's store lock,
// when configured), and no method returns a live *task.Task — lookups hand
// out deep-copied task.View snapshots instead.
type Queue struct {
	ttl   time.Duration
	locks TaskLocks       // extra per-task lock held while mutating task state; nil for standalone queues
	rec   *trace.Recorder // lifecycle event sink; nil records nothing

	mu sync.Mutex
	// tasks holds the queued tasks, every one of them open: a task leaves
	// the table in the critical section in which it leaves Open (closeLocked),
	// so Stats reads occupancy off the table's length. Only a task closed
	// behind the queue's back — the tests do it, nothing else — is still
	// counted until a scan drains it.
	tasks map[task.ID]*task.Task
	// heap orders the queued tasks best-first by a key that never changes
	// while a task is queued. A closed task leaves it lazily: a scan drops
	// it when popped, and the heap is rebuilt from its open tasks whenever
	// it grows past twice the table (compactLocked).
	heap taskHeap
	// leases is the lease table; held indexes it by task, each value the
	// head of a list through Lease.next. A task has a key from its first
	// lease until it leaves the queue, nil once every lease on it is gone,
	// so a task without one has never been leased since it was enqueued.
	leases  map[LeaseID]*Lease
	held    map[task.ID]*Lease
	seq     int64 // last lease ID granted
	lockN   int64 // lock acquisitions through lock()
	expired int64 // total leases reclaimed by expiry

	// nextExpiry is no later than the earliest Expiry in leases: lowered by
	// every grant, recomputed by the sweep it lets through, and left alone
	// (early, so still a bound) when a lease is answered or released. While
	// now is before it no lease can be overdue and expireLocked returns
	// without looking at one. sweeps counts the times it did look.
	nextExpiry time.Time
	sweeps     int64
}

// lock acquires the queue mutex and counts the acquisition; the counter
// feeds the contention gauge on the admin /metrics endpoint.
func (q *Queue) lock() {
	q.mu.Lock()
	q.lockN++
}

// New returns an empty queue whose leases expire after ttl. It panics if
// ttl is not positive.
func New(ttl time.Duration) *Queue { return NewLocked(ttl, nil) }

// NewLocked returns an empty queue that additionally holds the task's
// lock (locks.LockerFor) while mutating task state (recording answers,
// canceling). Passing the store here is what makes the store's view reads
// race-free: every writer holds the store's write lock, every view reader
// copies under its read lock. A nil locks behaves like New.
func NewLocked(ttl time.Duration, locks TaskLocks) *Queue {
	if ttl <= 0 {
		panic("queue: lease TTL must be positive")
	}
	return &Queue{
		ttl:    ttl,
		locks:  locks,
		tasks:  make(map[task.ID]*task.Task),
		leases: make(map[LeaseID]*Lease),
		held:   make(map[task.ID]*Lease),
	}
}

// NewSharded is NewLocked. Kept for bench/ only, which is frozen while
// this lands; the next benchmark PR calls NewLocked and deletes it.
func NewSharded(ttl time.Duration, _ int, locks TaskLocks) *Queue { return NewLocked(ttl, locks) }

// SetRecorder attaches a lifecycle trace recorder. It must be called
// before the queue sees traffic (the core does so at construction); a nil
// recorder — the default — records nothing.
func (q *Queue) SetRecorder(rec *trace.Recorder) { q.rec = rec }

// LockCount returns how many times the queue lock has been acquired by an
// operation (reads through Task, Stats and LockCount itself not counted).
func (q *Queue) LockCount() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.lockN
}

// emit appends one lifecycle event to the attached recorder, if any. A
// non-zero tr links the event to the request-scoped span tree that caused
// it; maintenance paths (release, cancel, expiry) pass the zero ID.
func (q *Queue) emit(stage trace.Stage, id task.ID, worker string, at time.Time, tr trace.TraceID) {
	q.rec.Append(trace.Event{TaskID: id, Stage: stage, At: at, Worker: worker, Trace: tr})
}

// lockTraced is lock under a span handle: the wait for the mutex is recorded
// as the call's queue.lockwait span (attr: locks taken, always 1). Under the
// invalid handle — the untraced caller — Now is the zero time and Observe
// records nothing.
func (q *Queue) lockTraced(h trace.Handle) {
	start := h.Now()
	q.lock()
	h.Observe("queue.lockwait", trace.NoSpan, start, h.Now().Sub(start), 1)
}

// lockTask/unlockTask bracket in-place task mutations with the task's
// store lock, when one was configured.
func (q *Queue) lockTask(id task.ID) {
	if q.locks != nil {
		q.locks.LockerFor(id).Lock()
	}
}

func (q *Queue) unlockTask(id task.ID) {
	if q.locks != nil {
		q.locks.LockerFor(id).Unlock()
	}
}

// Add enqueues an open task. The queue takes ownership of the task; callers
// must not mutate it afterwards except through queue methods.
func (q *Queue) Add(t *task.Task) error {
	q.lock()
	defer q.mu.Unlock()
	return q.insertLocked(t, trace.TraceID{})
}

// insertLocked is the one enqueue step; caller holds the lock.
func (q *Queue) insertLocked(t *task.Task, tr trace.TraceID) error {
	if _, dup := q.tasks[t.ID]; dup {
		return ErrDuplicateID
	}
	if t.Status != task.Open {
		return fmt.Errorf("queue: cannot enqueue task %d with status %v", t.ID, t.Status)
	}
	q.tasks[t.ID] = t
	heap.Push(&q.heap, t)
	q.emit(trace.StageEnqueue, t.ID, "", t.CreatedAt, tr)
	return nil
}

// AddBatch enqueues many open tasks under one hold of the lock. A nil
// result means every task was enqueued; otherwise the slice is
// index-aligned with ts, a nil entry meaning that task was enqueued and a
// non-nil one carrying the error Add would have returned. One bad task
// never fails the rest of the batch.
func (q *Queue) AddBatch(ts []*task.Task) []error {
	return q.AddBatchTraced(ts, trace.Handle{})
}

// AddBatchTraced is AddBatch under a request-scoped span handle: the wait
// for the lock is the call's queue.lockwait child span and each enqueue
// lifecycle event carries the request's trace ID. The invalid handle makes
// it exactly AddBatch.
//
// The heap grows once for the whole batch, and a batch landing in an empty
// queue — the requeue after a restart — sizes the task table up front
// instead of growing it by doubling.
func (q *Queue) AddBatchTraced(ts []*task.Task, h trace.Handle) []error {
	var errs []error
	tr := h.Trace()
	q.lockTraced(h)
	defer q.mu.Unlock()
	if len(q.tasks) == 0 {
		q.tasks = make(map[task.ID]*task.Task, len(ts))
	}
	q.heap = slices.Grow(q.heap, len(ts))
	for i, t := range ts {
		if err := q.insertLocked(t, tr); err != nil {
			if errs == nil {
				errs = make([]error, len(ts))
			}
			errs[i] = err
		}
	}
	return errs
}

// Lease hands workerID the best available task and records a lease expiring
// at now.Add(ttl). A task is available when it is Open, has not already been
// answered by this worker, is not currently leased to this worker, and has
// fewer outstanding leases than answers it still needs. Returns ErrEmpty
// when nothing is eligible. The returned view is a snapshot taken under the
// lock; the caller can serialize it freely.
func (q *Queue) Lease(workerID string, now time.Time) (task.View, LeaseID, error) {
	return q.LeaseTraced(workerID, now, trace.Handle{})
}

// LeaseTraced is Lease under a span handle: the wait for the lock is the
// call's queue.lockwait span and the lease lifecycle event carries the
// request's trace ID.
func (q *Queue) LeaseTraced(workerID string, now time.Time, h trace.Handle) (task.View, LeaseID, error) {
	tr := h.Trace()
	q.lockTraced(h)
	defer q.mu.Unlock()
	q.expireLocked(now)
	var g LeaseGrant
	if q.scanLocked(workerID, 1, func(t *task.Task) { g.Task, g.Lease = q.leaseLocked(t, workerID, now, tr) }) == 0 {
		return task.View{}, 0, ErrEmpty
	}
	return g.Task, g.Lease, nil
}

// scanLocked is the one walk over the heap: tasks are popped best-first
// and take is called on each one workerID may lease, until want have been
// taken or the heap is exhausted. Open tasks the worker may not lease are
// skipped, closed ones are drained, and everything still open — taken or
// skipped — is pushed back, since a task stays in the heap while leased. It
// returns how many were taken. Caller holds the lock.
func (q *Queue) scanLocked(workerID string, want int, take func(*task.Task)) int {
	var few [8]*task.Task // a short scan keeps what it pops on the stack
	popped := few[:0]
	taken := 0
	for taken < want && q.heap.Len() > 0 {
		t := heap.Pop(&q.heap).(*task.Task)
		switch {
		case q.eligibleLocked(t, workerID):
			take(t)
			taken++
		case t.Status != task.Open:
			q.dropLocked(t)
			continue
		}
		popped = append(popped, t)
	}
	for _, t := range popped {
		heap.Push(&q.heap, t)
	}
	return taken
}

// LeaseTask leases the specific task id to workerID, bypassing priority
// selection — the targeted-lease path the live session plane uses to turn
// a completed agreement into answers on the task backing that item. The
// task must be eligible under exactly the Lease rules (Open, unanswered by
// this worker, redundancy slot free); an ineligible-but-known task returns
// ErrEmpty, an unknown one ErrUnknownTask.
func (q *Queue) LeaseTask(id task.ID, workerID string, now time.Time) (task.View, LeaseID, error) {
	if workerID == "" {
		return task.View{}, 0, ErrEmpty
	}
	q.lock()
	defer q.mu.Unlock()
	q.expireLocked(now)
	t, ok := q.tasks[id]
	if !ok {
		return task.View{}, 0, ErrUnknownTask
	}
	if !q.eligibleLocked(t, workerID) {
		return task.View{}, 0, ErrEmpty
	}
	v, lid := q.leaseLocked(t, workerID, now, trace.TraceID{})
	return v, lid, nil
}

// LeaseGrant is one lease handed out by LeaseBatch: the task snapshot and
// the lease that must be answered or released.
type LeaseGrant struct {
	Task  task.View
	Lease LeaseID
}

// LeaseBatch leases up to max eligible tasks to workerID under one hold of
// the lock: the same tasks, in the same best-first order, as max Lease
// calls. It returns however many grants were available (possibly none — an
// empty batch is not an error).
func (q *Queue) LeaseBatch(workerID string, max int, now time.Time) []LeaseGrant {
	return q.LeaseBatchTraced(workerID, max, now, trace.Handle{})
}

// LeaseBatchTraced is LeaseBatch under a span handle: the wait for the lock
// is the call's queue.lockwait span and every granted lease's lifecycle
// event carries the trace ID.
func (q *Queue) LeaseBatchTraced(workerID string, max int, now time.Time, h trace.Handle) []LeaseGrant {
	if max <= 0 || workerID == "" {
		return nil
	}
	tr := h.Trace()
	q.lockTraced(h)
	defer q.mu.Unlock()
	q.expireLocked(now)
	var out []LeaseGrant
	q.scanLocked(workerID, max, func(t *task.Task) {
		v, id := q.leaseLocked(t, workerID, now, tr)
		out = append(out, LeaseGrant{Task: v, Lease: id})
	})
	return out
}

// leaseLocked records a lease on t for workerID. The task stays in the
// heap while leased: other workers may take the remaining redundancy slots
// concurrently, and the heap key does not depend on lease state.
func (q *Queue) leaseLocked(t *task.Task, workerID string, now time.Time, tr trace.TraceID) (task.View, LeaseID) {
	first, leased := q.held[t.ID]
	if !leased { // never leased: its time in queue, from the enqueue event's At, ends here
		q.rec.ObserveStage(trace.StageLease, now.Sub(t.CreatedAt), tr)
	}
	q.seq++
	id := LeaseID(q.seq)
	l := &Lease{ID: id, TaskID: t.ID, WorkerID: workerID, LeasedAt: now, Expiry: now.Add(q.ttl), next: first}
	if len(q.leases) == 0 || l.Expiry.Before(q.nextExpiry) {
		q.nextExpiry = l.Expiry
	}
	q.leases[id] = l
	q.held[t.ID] = l
	q.emit(trace.StageLease, t.ID, workerID, now, tr)
	return t.View(), id
}

// eligibleLocked reports whether workerID may lease t: t is open, has a
// redundancy slot no outstanding lease holds, and neither holds a lease of
// workerID's nor carries an answer of theirs.
func (q *Queue) eligibleLocked(t *task.Task, workerID string) bool {
	if t.Status != task.Open {
		return false
	}
	inFlight := 0
	for l := q.held[t.ID]; l != nil; l = l.next {
		if l.WorkerID == workerID {
			return false
		}
		inFlight++
	}
	if inFlight >= t.Remaining() {
		return false
	}
	for _, a := range t.Answers {
		if a.WorkerID == workerID {
			return false
		}
	}
	return true
}

// CompleteResult reports the outcome of Complete without exposing the live
// task: everything the caller needs — which task, what kind, the status
// after recording, and the exact answer as recorded (worker stamped from
// the lease) — is returned by value, so callers never re-read the task's
// answer list unlocked.
type CompleteResult struct {
	TaskID     task.ID
	Kind       task.Kind
	Status     task.Status // status after recording; Done when redundancy is met
	Answer     task.Answer // the recorded answer, by value
	LeasedAt   time.Time   // when the completing lease was granted
	Answers    int         // answers on the task after recording
	Redundancy int         // the task's requested redundancy
}

// Complete records the leaseholder's answer and releases the lease. If the
// answer fulfills the task's redundancy the task leaves the queue as Done.
func (q *Queue) Complete(id LeaseID, a task.Answer, now time.Time) (CompleteResult, error) {
	q.lock()
	defer q.mu.Unlock()
	q.expireLocked(now)
	return q.completeLocked(id, a, now, trace.TraceID{})
}

// completeLocked is the body of Complete; caller holds the lock and has
// already expired overdue leases.
func (q *Queue) completeLocked(id LeaseID, a task.Answer, now time.Time, tr trace.TraceID) (CompleteResult, error) {
	l, ok := q.leases[id]
	if !ok {
		return CompleteResult{}, ErrUnknownLease
	}
	t, ok := q.tasks[l.TaskID]
	if !ok {
		// A task only leaves the table under an outstanding lease because it
		// finished or was cancelled: the same late answer Record refuses
		// while the task is still there.
		delete(q.leases, id)
		return CompleteResult{}, task.ErrWrongStatus
	}
	a.WorkerID = l.WorkerID
	q.lockTask(t.ID)
	err := t.Record(a, now)
	var res CompleteResult
	var firstAnswer time.Time
	if err == nil {
		firstAnswer = t.Answers[0].At
		res = CompleteResult{
			TaskID:     t.ID,
			Kind:       t.Kind,
			Status:     t.Status,
			Answer:     t.Answers[len(t.Answers)-1],
			LeasedAt:   l.LeasedAt,
			Answers:    len(t.Answers),
			Redundancy: t.Redundancy,
		}
	}
	q.unlockTask(t.ID)
	if err != nil {
		return CompleteResult{}, err
	}
	q.dropLeaseLocked(l)
	q.emit(trace.StageAnswer, res.TaskID, l.WorkerID, now, tr)
	q.rec.ObserveStage(trace.StageAnswer, now.Sub(l.LeasedAt), tr)
	if res.Status == task.Done {
		q.closeLocked(t)
		q.emit(trace.StageComplete, res.TaskID, "", now, tr)
		q.rec.ObserveStage(trace.StageComplete, now.Sub(firstAnswer), tr)
	}
	return res, nil
}

// CompleteItem is one lease-plus-answer of a CompleteBatch call.
type CompleteItem struct {
	Lease  LeaseID
	Answer task.Answer
}

// CompleteOutcome is the per-item result of CompleteBatch: Result is valid
// exactly when Err is nil.
type CompleteOutcome struct {
	Result CompleteResult
	Err    error
}

// CompleteBatch records many answers under one hold of the lock. The
// returned slice is index-aligned with items; one bad item (unknown lease,
// repeat worker) never fails the rest.
func (q *Queue) CompleteBatch(items []CompleteItem, now time.Time) []CompleteOutcome {
	return q.CompleteBatchTraced(items, now, trace.Handle{})
}

// CompleteBatchTraced is CompleteBatch under a span handle: the wait for
// the lock is the call's queue.lockwait span and every answer/complete
// lifecycle event carries the trace ID.
func (q *Queue) CompleteBatchTraced(items []CompleteItem, now time.Time, h trace.Handle) []CompleteOutcome {
	out := make([]CompleteOutcome, len(items))
	tr := h.Trace()
	q.lockTraced(h)
	defer q.mu.Unlock()
	q.expireLocked(now)
	for i := range items {
		out[i].Result, out[i].Err = q.completeLocked(items[i].Lease, items[i].Answer, now, tr)
	}
	return out
}

// Release returns a leased task to the pool without an answer (the worker
// skipped or disconnected cleanly).
func (q *Queue) Release(id LeaseID, now time.Time) error {
	q.lock()
	defer q.mu.Unlock()
	q.expireLocked(now)
	l, ok := q.leases[id]
	if !ok {
		return ErrUnknownLease
	}
	q.dropLeaseLocked(l)
	q.emit(trace.StageRelease, l.TaskID, l.WorkerID, now, trace.TraceID{})
	return nil
}

// dropLeaseLocked retires a lease and gives its slot back to the task, if
// the task is still queued.
func (q *Queue) dropLeaseLocked(l *Lease) {
	delete(q.leases, l.ID)
	first := q.held[l.TaskID]
	if first == l {
		q.held[l.TaskID] = l.next
		return
	}
	for p := first; p != nil; p = p.next {
		if p.next == l {
			p.next = l.next
			return
		}
	}
}

// Cancel removes an open task from the queue.
func (q *Queue) Cancel(id task.ID, now time.Time) error {
	q.lock()
	defer q.mu.Unlock()
	t, ok := q.tasks[id]
	if !ok {
		return ErrUnknownTask
	}
	q.lockTask(id)
	err := t.Cancel(now)
	q.unlockTask(id)
	if err != nil {
		return err
	}
	q.closeLocked(t)
	q.emit(trace.StageCancel, id, "", now, trace.TraceID{})
	return nil
}

// FinishEarly completes an open task before it has collected its full
// redundancy — the quality plane's confidence-crossed path. The returned
// view is the finished task. ok is false when the task is unknown to the
// queue or no longer open (e.g. a racing answer just completed it), which
// callers treat as "nothing to do", keeping the call idempotent.
// Outstanding leases on the task are left to expire; their late answers
// are rejected by the task's status check.
func (q *Queue) FinishEarly(id task.ID, now time.Time) (task.View, bool) {
	q.lock()
	defer q.mu.Unlock()
	t, ok := q.tasks[id]
	if !ok {
		return task.View{}, false
	}
	q.lockTask(id)
	err := t.Finish(now)
	var v task.View
	if err == nil {
		v = t.View()
	}
	q.unlockTask(id)
	if err != nil {
		return task.View{}, false
	}
	q.closeLocked(t)
	q.emit(trace.StageComplete, id, "", now, trace.TraceID{})
	if len(v.Answers) > 0 {
		q.rec.ObserveStage(trace.StageComplete, now.Sub(v.Answers[0].At), trace.TraceID{})
	}
	return v, true
}

// ExpireLeases reclaims all leases that expired at or before now and
// returns how many were reclaimed. Lease and Complete call this
// implicitly; it is exported for callers that want eager reclamation (e.g.
// a ticker in the dispatch service).
func (q *Queue) ExpireLeases(now time.Time) int {
	q.lock()
	defer q.mu.Unlock()
	before := q.expired
	q.expireLocked(now)
	return int(q.expired - before)
}

// expireLocked reclaims the overdue leases. Every lease, complete and
// release calls it first, so it must cost nothing while nothing is due: the
// walk over the lease table — O(outstanding leases), thousands with a real
// crowd — runs only once now has reached nextExpiry.
func (q *Queue) expireLocked(now time.Time) {
	if len(q.leases) == 0 || now.Before(q.nextExpiry) {
		return
	}
	q.sweeps++
	var next time.Time
	for _, l := range q.leases {
		if l.Expiry.After(now) {
			if next.IsZero() || l.Expiry.Before(next) {
				next = l.Expiry
			}
			continue
		}
		q.dropLeaseLocked(l)
		q.expired++
		q.emit(trace.StageExpire, l.TaskID, l.WorkerID, now, trace.TraceID{})
	}
	q.nextExpiry = next
}

// closeLocked takes a task that has just left Open out of the queue: out of
// the table and the lease index at once, out of the heap lazily.
func (q *Queue) closeLocked(t *task.Task) {
	q.dropLocked(t)
	q.compactLocked()
}

// dropLocked deletes a closed task's table and lease-index keys. Its
// outstanding leases stay in the lease table until answered, released or
// expired; an answer on one is refused.
func (q *Queue) dropLocked(t *task.Task) {
	delete(q.tasks, t.ID)
	delete(q.held, t.ID)
}

// compactLocked rebuilds the heap from its open tasks once closed ones
// outnumber them by more than 64, which keeps the heap within twice the
// table plus 64 slots at a cost amortized over the closes that filled it.
func (q *Queue) compactLocked() {
	if len(q.heap) <= 2*len(q.tasks)+64 {
		return
	}
	open := q.heap[:0]
	for _, t := range q.heap {
		if t.Status == task.Open {
			open = append(open, t)
		} else {
			q.dropLocked(t)
		}
	}
	clear(q.heap[len(open):])
	q.heap = open
	heap.Init(&q.heap)
}

// Task returns a snapshot of the task with the given ID regardless of
// status, or ErrUnknownTask if the queue never saw it or has already
// dropped it.
func (q *Queue) Task(id task.ID) (task.View, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.tasks[id]
	if !ok {
		return task.View{}, ErrUnknownTask
	}
	return t.View(), nil
}

// Stats is a snapshot of queue occupancy.
type Stats struct {
	Open          int   // tasks still collecting answers
	InFlight      int   // outstanding leases
	ExpiredLeases int64 // cumulative reclaimed leases
}

// Stats returns a snapshot of queue occupancy: three reads under the
// lock, whatever the backlog — it runs on every /metrics scrape.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{Open: len(q.tasks), InFlight: len(q.leases), ExpiredLeases: q.expired}
}

// taskHeap orders tasks by priority (desc), then creation time (asc), then
// ID (asc) for determinism.
type taskHeap []*task.Task

func (h taskHeap) Len() int { return len(h) }

func (h taskHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if !a.CreatedAt.Equal(b.CreatedAt) {
		return a.CreatedAt.Before(b.CreatedAt)
	}
	return a.ID < b.ID
}

func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *taskHeap) Push(x any) { *h = append(*h, x.(*task.Task)) }

func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
