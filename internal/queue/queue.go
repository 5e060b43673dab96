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
// One mutex guards the heap, the entry table and the lease table; every
// operation is one hold of it, so a lease is always the exact best eligible
// task at the moment it is granted.
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
}

type entry struct {
	t        *task.Task
	inFlight int             // outstanding leases on this task
	index    int             // heap index, -1 when not in heap
	holders  map[string]bool // workers currently holding a lease on this task; nil until the first lease
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
	// entries holds the queued tasks, every one of them open: an entry
	// leaves the table in the critical section in which its task leaves Open
	// (fixLocked), so Stats reads occupancy off the table's length. Only a
	// task closed behind the queue's back — the tests do it, nothing else —
	// is still counted until the next scan drains it.
	entries map[task.ID]*entry
	heap    taskHeap
	leases  map[LeaseID]*Lease
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
		ttl:     ttl,
		locks:   locks,
		entries: make(map[task.ID]*entry),
		leases:  make(map[LeaseID]*Lease),
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
	if _, dup := q.entries[t.ID]; dup {
		return ErrDuplicateID
	}
	if t.Status != task.Open {
		return fmt.Errorf("queue: cannot enqueue task %d with status %v", t.ID, t.Status)
	}
	e := &entry{t: t, index: -1}
	q.entries[t.ID] = e
	heap.Push(&q.heap, e)
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
// queue — the requeue after a restart — sizes the entry table up front
// instead of growing it by doubling.
func (q *Queue) AddBatchTraced(ts []*task.Task, h trace.Handle) []error {
	var errs []error
	tr := h.Trace()
	q.lockTraced(h)
	defer q.mu.Unlock()
	if len(q.entries) == 0 {
		q.entries = make(map[task.ID]*entry, len(ts))
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
	if q.scanLocked(workerID, 1, func(e *entry) { g.Task, g.Lease = q.leaseEntryLocked(e, workerID, now, tr) }) == 0 {
		return task.View{}, 0, ErrEmpty
	}
	return g.Task, g.Lease, nil
}

// scanLocked is the one walk over the heap: entries are popped best-first
// and take is called on each one workerID may lease, until want have been
// taken or the heap is exhausted. Open entries the worker may not lease are
// skipped, finished ones are drained from the table, and everything still
// open — taken or skipped — is pushed back, since an entry stays in the heap
// while leased. It returns how many were taken. Caller holds the lock.
func (q *Queue) scanLocked(workerID string, want int, take func(*entry)) int {
	var popped []*entry
	taken := 0
	for taken < want && q.heap.Len() > 0 {
		e := heap.Pop(&q.heap).(*entry)
		switch {
		case q.eligibleLocked(e, workerID):
			take(e)
			taken++
		case e.t.Status != task.Open:
			delete(q.entries, e.t.ID)
			continue
		}
		popped = append(popped, e)
	}
	for _, e := range popped {
		heap.Push(&q.heap, e)
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
	e, ok := q.entries[id]
	if !ok {
		return task.View{}, 0, ErrUnknownTask
	}
	if !q.eligibleLocked(e, workerID) {
		return task.View{}, 0, ErrEmpty
	}
	v, lid := q.leaseEntryLocked(e, workerID, now, trace.TraceID{})
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
	q.scanLocked(workerID, max, func(e *entry) {
		v, id := q.leaseEntryLocked(e, workerID, now, tr)
		out = append(out, LeaseGrant{Task: v, Lease: id})
	})
	return out
}

// leaseEntryLocked records a lease on e for workerID. The entry stays in
// the heap while leased: other workers may take the remaining redundancy
// slots concurrently, and the heap key does not depend on lease state.
func (q *Queue) leaseEntryLocked(e *entry, workerID string, now time.Time, tr trace.TraceID) (task.View, LeaseID) {
	e.inFlight++
	if e.holders == nil { // never leased: its time in queue, from the enqueue event's At, ends here
		q.rec.ObserveStage(trace.StageLease, now.Sub(e.t.CreatedAt), tr)
		e.holders = make(map[string]bool)
	}
	e.holders[workerID] = true
	q.seq++
	id := LeaseID(q.seq)
	l := &Lease{ID: id, TaskID: e.t.ID, WorkerID: workerID, LeasedAt: now, Expiry: now.Add(q.ttl)}
	if len(q.leases) == 0 || l.Expiry.Before(q.nextExpiry) {
		q.nextExpiry = l.Expiry
	}
	q.leases[id] = l
	q.emit(trace.StageLease, e.t.ID, workerID, now, tr)
	return e.t.View(), id
}

func (q *Queue) eligibleLocked(e *entry, workerID string) bool {
	if e.t.Status != task.Open {
		return false
	}
	if e.inFlight >= e.t.Remaining() {
		return false
	}
	if e.holders[workerID] {
		return false
	}
	for _, a := range e.t.Answers {
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
	e, ok := q.entries[l.TaskID]
	if !ok {
		// An entry only leaves the table under an outstanding lease because
		// its task finished or was cancelled: the same late answer Record
		// refuses while the entry is still there.
		delete(q.leases, id)
		return CompleteResult{}, task.ErrWrongStatus
	}
	a.WorkerID = l.WorkerID
	q.lockTask(e.t.ID)
	err := e.t.Record(a, now)
	var res CompleteResult
	var firstAnswer time.Time
	if err == nil {
		firstAnswer = e.t.Answers[0].At
		res = CompleteResult{
			TaskID:     e.t.ID,
			Kind:       e.t.Kind,
			Status:     e.t.Status,
			Answer:     e.t.Answers[len(e.t.Answers)-1],
			LeasedAt:   l.LeasedAt,
			Answers:    len(e.t.Answers),
			Redundancy: e.t.Redundancy,
		}
	}
	q.unlockTask(e.t.ID)
	if err != nil {
		return CompleteResult{}, err
	}
	delete(q.leases, id)
	e.inFlight--
	delete(e.holders, l.WorkerID)
	q.fixLocked(e)
	q.emit(trace.StageAnswer, res.TaskID, l.WorkerID, now, tr)
	q.rec.ObserveStage(trace.StageAnswer, now.Sub(l.LeasedAt), tr)
	if res.Status == task.Done {
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

// dropLeaseLocked retires an unanswered lease and gives its slot back to
// the task, if the task is still queued.
func (q *Queue) dropLeaseLocked(l *Lease) {
	delete(q.leases, l.ID)
	if e, ok := q.entries[l.TaskID]; ok {
		e.inFlight--
		delete(e.holders, l.WorkerID)
		q.fixLocked(e)
	}
}

// Cancel removes an open task from the queue.
func (q *Queue) Cancel(id task.ID, now time.Time) error {
	q.lock()
	defer q.mu.Unlock()
	e, ok := q.entries[id]
	if !ok {
		return ErrUnknownTask
	}
	q.lockTask(id)
	err := e.t.Cancel(now)
	q.unlockTask(id)
	if err != nil {
		return err
	}
	q.fixLocked(e)
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
	e, ok := q.entries[id]
	if !ok {
		return task.View{}, false
	}
	q.lockTask(id)
	err := e.t.Finish(now)
	var v task.View
	if err == nil {
		v = e.t.View()
	}
	q.unlockTask(id)
	if err != nil {
		return task.View{}, false
	}
	q.fixLocked(e)
	q.emit(trace.StageComplete, id, "", now, trace.TraceID{})
	if len(v.Answers) > 0 {
		q.rec.ObserveStage(trace.StageComplete, now.Sub(v.Answers[0].At), trace.TraceID{})
	}
	return v, true
}

// Remove withdraws a task from the queue entirely without touching its
// status — the rollback half of Add for submissions that fail partway.
// Outstanding leases on the task (none exist on the submit path) are left
// to expire.
func (q *Queue) Remove(id task.ID) error {
	q.lock()
	defer q.mu.Unlock()
	e, ok := q.entries[id]
	if !ok {
		return ErrUnknownTask
	}
	if e.index >= 0 {
		heap.Remove(&q.heap, e.index)
	}
	delete(q.entries, id)
	return nil
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

// fixLocked re-establishes heap order for e after its scheduling state
// changed, removing it when it is no longer Open.
func (q *Queue) fixLocked(e *entry) {
	if e.index < 0 {
		return
	}
	if e.t.Status != task.Open {
		heap.Remove(&q.heap, e.index)
		delete(q.entries, e.t.ID)
		return
	}
	heap.Fix(&q.heap, e.index)
}

// Task returns a snapshot of the task with the given ID regardless of
// status, or ErrUnknownTask if the queue never saw it or has already
// dropped it.
func (q *Queue) Task(id task.ID) (task.View, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	e, ok := q.entries[id]
	if !ok {
		return task.View{}, ErrUnknownTask
	}
	return e.t.View(), nil
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
	return Stats{Open: len(q.entries), InFlight: len(q.leases), ExpiredLeases: q.expired}
}

// taskHeap orders entries by priority (desc), then creation time (asc),
// then ID (asc) for determinism.
type taskHeap []*entry

func (h taskHeap) Len() int { return len(h) }

func (h taskHeap) Less(i, j int) bool {
	a, b := h[i].t, h[j].t
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if !a.CreatedAt.Equal(b.CreatedAt) {
		return a.CreatedAt.Before(b.CreatedAt)
	}
	return a.ID < b.ID
}

func (h taskHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *taskHeap) Push(x any) {
	e := x.(*entry)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}
