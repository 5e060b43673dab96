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
// One mutex guards the two heaps and the lease table; every operation is
// one hold of it, so a lease is always the exact best eligible task at the
// moment it is granted. The task heap holds only the open tasks someone
// could lease — those with a redundancy slot no lease holds — and the
// deadline heap holds every lease, earliest expiry first, so a lease pops
// no task another worker has filled and an expiry visits only what is due:
// both cost O(log n) whatever is in flight. The queue keeps no index of
// its own: it is built over the task store, which is the one ID → task
// index, and a submit stores and enqueues its tasks in one hold of the
// queue lock, so on a writable node a task is open in the store exactly
// when the queue holds it — in the heap, or leased to its last slot — each
// time the lock is released. A queued task costs the queue at most one
// pointer, its heap slot: what is leased, and to whom, is read from the
// lease table.
//
// The queue is the journal's one writer. A submit is written first, without
// the lock (Journal), and only then stored and enqueued. An answer, cancel
// or early finish is decided under the queue lock, applied through
// store.Apply — the function replay and followers apply the log with — and
// written to the journal before the lock is released, so the log holds
// every task's changes in the order they were applied. No fsync ever runs
// under the lock: the wait for one comes after it is released.
package queue

import (
	"container/heap"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"humancomp/internal/store"
	"humancomp/internal/task"
	"humancomp/internal/trace"
)

// Errors returned by queue operations.
var (
	ErrEmpty        = errors.New("queue: no task available for this worker")
	ErrUnknownLease = errors.New("queue: unknown or expired lease")
	ErrUnknownTask  = errors.New("queue: unknown task")
	ErrDuplicateID  = errors.New("queue: task ID already stored")
)

// Journal is the log the queue writes what it applies to, in two halves.
// WriteEvents frames the events and hands them to the OS as one group,
// returning the positive sequence number of the last; it is called under
// the queue lock and must not fsync. WaitDurable returns once every event
// up to seq is durable, reporting how long it waited (zero when the
// journal's policy does not wait); it is called with the lock released.
// The events are acknowledged as a unit once both have returned nil — a
// failed write or wait acknowledges none of them. The events, and the tasks
// and answers they point at, are the caller's again once WriteEvents
// returns. *store.WAL satisfies it.
type Journal interface {
	WriteEvents(events []store.Event) (seq int64, err error)
	WaitDurable(seq int64) (wait time.Duration, err error)
}

// LeaseID identifies one outstanding lease: a sequence number, never
// reused within a process and never persisted.
type LeaseID int64

// Lease records that a worker holds a task until Expiry. LeasedAt is when
// the lease was granted; the answer's lease-to-answer span, observed from
// it, feeds only hc_task_lease_to_answer_seconds.
type Lease struct {
	ID       LeaseID
	WorkerID string
	LeasedAt time.Time
	Expiry   time.Time

	task *task.Task // the leased task: an answer needs no lookup
	next *Lease     // the task's next outstanding lease, in Queue.held
	at   int        // the lease's index in Queue.due
}

// detailLease is a lease on a task whose payload has a Detail, allocated
// together with the copy of that Detail in the view the lease hands out, so
// the view costs no allocation of its own beyond the taboo list.
type detailLease struct {
	Lease
	detail task.Detail
}

// Queue is a redundancy-aware priority work queue with leases.
//
// The queue owns all mutation of task state while the system runs: every
// change goes through store.Apply under mu, and no method returns a live
// *task.Task — lookups hand out deep-copied task.View snapshots instead.
// Lock order is queue → store and queue → journal; neither calls back into
// the queue, so it cannot deadlock.
type Queue struct {
	ttl     time.Duration
	st      *store.Store    // the one ID → task index; holds every queued task
	journal Journal         // where applied changes are written; nil writes nothing
	rec     *trace.Recorder // lifecycle event sink; nil records nothing

	mu sync.Mutex
	// open counts the queued tasks, every one of them open: it moves in the
	// critical section in which a task is enqueued (insertLocked) or leaves
	// Open (closeLocked), so Stats reads occupancy without a walk. A task
	// closed behind the queue's back — the tests do it, nothing else; a
	// follower applies to the store and never enqueues — is drained from
	// the heap by the next scan that pops it but stays counted.
	open int
	// heap orders, best-first by a key that never changes while a task is
	// queued, the open tasks with a free slot: fewer outstanding leases
	// than answers still needed (Remaining). The grant that fills a task's
	// last slot leaves it out, and the release or expiry that frees one
	// puts it back; an answer lowers both counts at once and moves nothing.
	// A closed task leaves lazily: a scan drops it when popped, and the
	// heap is rebuilt from its open tasks whenever it grows past twice the
	// open count (compactLocked).
	heap taskHeap
	// due holds the lease table's leases, earliest Expiry first; each
	// lease keeps its index, so an answer or a release takes it out at once
	// and expireLocked pops only what is due.
	due leaseHeap
	// leases is the lease table; held indexes it by task, each value the
	// head of a list through Lease.next. A task has a key from its first
	// lease until it leaves the queue, nil once every lease on it is gone,
	// so a task without one has never been leased since it was enqueued.
	leases  map[LeaseID]*Lease
	held    map[task.ID]*Lease
	seq     int64 // last lease ID granted
	lockN   int64 // lock acquisitions through lock()
	expired int64 // total leases reclaimed by expiry
	pops    int64 // tasks popped from the heap by lease scans
}

// lock acquires the queue mutex and counts the acquisition; the counter
// feeds the contention gauge on the admin /metrics endpoint.
func (q *Queue) lock() {
	q.mu.Lock()
	q.lockN++
}

// NewLocked returns an empty queue over st, which must not be nil, writing
// each answer, cancel and early finish it applies to j; a nil j writes
// nothing. The queue stores what it enqueues in st, resolves task IDs
// through it and changes tasks only through st.Apply, which holds the
// store's write lock — what makes the store's view reads, which copy under
// the read lock, race-free.
func NewLocked(ttl time.Duration, st *store.Store, j Journal) *Queue {
	if ttl <= 0 {
		panic("queue: lease TTL must be positive")
	}
	return &Queue{
		ttl:     ttl,
		st:      st,
		journal: j,
		leases:  make(map[LeaseID]*Lease),
		held:    make(map[task.ID]*Lease),
	}
}

// NewSharded is NewLocked without a journal. Kept for bench/ only, which is
// frozen while this lands; the next benchmark PR calls NewLocked and
// deletes it.
func NewSharded(ttl time.Duration, _ int, st *store.Store) *Queue { return NewLocked(ttl, st, nil) }

// SetRecorder attaches a lifecycle trace recorder. It must be called
// before the queue sees traffic (the core does so at construction); a nil
// recorder — the default — records nothing.
func (q *Queue) SetRecorder(rec *trace.Recorder) { q.rec = rec }

// LockCount returns how many times the queue lock has been acquired by an
// operation (reads through Stats and LockCount itself not counted).
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

// Journal writes events to the journal and waits until they are durable,
// without the lock: a submit's journal step, taken before its tasks are
// stored and enqueued, or before an agreement's done task is stored.
func (q *Queue) Journal(h trace.Handle, events []store.Event) error {
	return q.writeThen(h, events, func() {})
}

// writeThen hands events to the journal, as the call's wal.append span
// (attr: events in the group), calls release, then waits until they are
// durable, as its wal.fsync span when the journal waited. Called with
// q.mu.Unlock it ends a critical section that applied the events: writing
// them before the lock is released is what makes log order apply order,
// and only the fsync wait, if the journal has one, runs outside it.
// Without a journal, or events, it only releases.
func (q *Queue) writeThen(h trace.Handle, events []store.Event, release func()) error {
	if q.journal == nil || len(events) == 0 {
		release()
		return nil
	}
	start := h.Now()
	seq, err := q.journal.WriteEvents(events)
	h.ObserveSince("wal.append", trace.NoSpan, start, int64(len(events)))
	release()
	if err != nil {
		return err
	}
	start = h.Now()
	wait, err := q.journal.WaitDurable(seq)
	if wait > 0 {
		h.Observe("wal.fsync", trace.NoSpan, start, wait, 0)
	}
	return err
}

// Add stores a copy of an open task and enqueues the stored task; t itself
// is not kept, and the task changes from then on only through queue
// methods. A task whose record the store already holds under its ID — the
// stored task, or a caller's own copy of what it Put — is only enqueued;
// it must not be in the queue already.
func (q *Queue) Add(t *task.Task) error {
	if errs := q.AddBatch([]*task.Task{t}); errs != nil {
		return errs[0]
	}
	return nil
}

// AddBatch stores and enqueues many open tasks under one hold of the lock,
// replacing each entry of ts it enqueues with the stored task. A nil
// result means every task was enqueued; otherwise the slice is
// index-aligned with ts, a nil entry meaning that task was enqueued and a
// non-nil one carrying the error Add would have returned: ErrDuplicateID
// when the store holds a different record under its ID. One bad task never
// fails the rest of the batch.
func (q *Queue) AddBatch(ts []*task.Task) []error {
	return q.AddBatchTraced(ts, trace.Handle{})
}

// AddBatchTraced is AddBatch under a request-scoped span handle: the wait
// for the lock is the call's queue.lockwait child span and each enqueue
// lifecycle event carries the request's trace ID. The invalid handle makes
// it exactly AddBatch. The store's write lock is taken once for the batch
// and the heap grows once.
func (q *Queue) AddBatchTraced(ts []*task.Task, h trace.Handle) []error {
	var errs []error
	tr := h.Trace()
	q.lockTraced(h)
	defer q.mu.Unlock()
	refused := q.st.Insert(ts)
	if len(refused) > 0 {
		errs = make([]error, len(ts))
		for _, i := range refused {
			errs[i] = ErrDuplicateID
			if t := ts[i]; t.Status != task.Open {
				errs[i] = fmt.Errorf("queue: cannot enqueue task %d with status %v", t.ID, t.Status)
			}
		}
	}
	q.heap = slices.Grow(q.heap, len(ts)-len(refused))
	for i, t := range ts {
		if errs == nil || errs[i] == nil {
			q.insertLocked(t, tr)
		}
	}
	return errs
}

// insertLocked is the one enqueue step, for a stored open task; caller
// holds the lock.
func (q *Queue) insertLocked(t *task.Task, tr trace.TraceID) {
	heap.Push(&q.heap, t)
	q.open++
	q.emit(trace.StageEnqueue, t.ID, "", t.CreatedAt.Time(), tr)
}

// RequeueOpen makes the store's open tasks the heap, with one heap.Init
// over the list the store hands out: the requeue after a restore or a
// replay, and at a follower's promotion. It is for a queue that holds no
// open task — a follower never enqueues — and does nothing to one that
// does, which on a writable node holds every open task already.
func (q *Queue) RequeueOpen() {
	q.lock()
	defer q.mu.Unlock()
	if q.open > 0 {
		return
	}
	q.heap = q.st.Tasks(task.Open)
	q.open = len(q.heap)
	for _, t := range q.heap {
		q.emit(trace.StageEnqueue, t.ID, "", t.CreatedAt.Time(), trace.TraceID{})
	}
	heap.Init(&q.heap)
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
	if workerID == "" || q.scanLocked(workerID, 1, func(t *task.Task) { g.Task, g.Lease = q.leaseLocked(t, workerID, now, tr) }) == 0 {
		return task.View{}, 0, ErrEmpty
	}
	return g.Task, g.Lease, nil
}

// scanLocked is the one walk over the heap: tasks are popped best-first
// and take is called on each one workerID may lease, until want have been
// taken or the heap is exhausted. Closed tasks are drained; every open one
// is pushed back unless its grant took its last free slot. Every task in
// the heap has a free slot, so the open tasks a scan skips are the
// worker's own — those it holds a lease on or has answered — and a scan
// pops at most want + that many, plus closed tasks not yet drained, each
// of which is drained once. It returns how many were taken. Caller holds
// the lock.
func (q *Queue) scanLocked(workerID string, want int, take func(*task.Task)) int {
	var few [8]*task.Task // a short scan keeps what it pops on the stack
	popped := few[:0]
	taken := 0
	for taken < want && q.heap.Len() > 0 {
		t := heap.Pop(&q.heap).(*task.Task)
		q.pops++
		free := q.freeLocked(t, workerID)
		switch {
		case t.Status != task.Open:
			delete(q.held, t.ID)
			continue
		case free > 0:
			take(t)
			taken++
			if free == 1 { // the grant took its last free slot
				continue
			}
		}
		popped = append(popped, t)
	}
	for _, t := range popped {
		heap.Push(&q.heap, t)
	}
	return taken
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

// leaseLocked records a lease on t for workerID.
func (q *Queue) leaseLocked(t *task.Task, workerID string, now time.Time, tr trace.TraceID) (task.View, LeaseID) {
	first, leased := q.held[t.ID]
	// Never leased: its time in queue, from the enqueue event's At, ends
	// here. A stored Stamp keeps no monotonic reading, so this is wall-clock
	// time, as it always was for a task recovered after a restart.
	if !leased {
		q.rec.ObserveStage(trace.StageLease, now.Sub(t.CreatedAt.Time()), tr)
	}
	q.seq++
	id := LeaseID(q.seq)
	var l *Lease
	var d *task.Detail
	if t.Payload.Detail != nil {
		dl := new(detailLease)
		l, d = &dl.Lease, &dl.detail
	} else {
		l = new(Lease)
	}
	*l = Lease{ID: id, WorkerID: workerID, LeasedAt: now, Expiry: now.Add(q.ttl), task: t, next: first, at: len(q.due)}
	heap.Push(&q.due, l)
	q.leases[id] = l
	q.held[t.ID] = l
	q.emit(trace.StageLease, t.ID, workerID, now, tr)
	return t.ViewIn(d), id
}

// freeLocked returns how many of t's redundancy slots — the answers it
// still needs — no outstanding lease holds, or 0 when workerID may not
// lease t: t is not open, or holds a lease of workerID's or an answer of
// theirs. workerID may lease t exactly when the result is positive. The
// empty workerID, which is never granted a lease, reads t's free slots.
func (q *Queue) freeLocked(t *task.Task, workerID string) int {
	if t.Status != task.Open {
		return 0
	}
	free := t.Remaining()
	for l := q.held[t.ID]; l != nil; l = l.next {
		if l.WorkerID == workerID {
			return 0
		}
		free--
	}
	for _, a := range t.Answers() {
		if a.WorkerID == workerID {
			return 0
		}
	}
	return max(free, 0)
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
	Answers    int         // answers on the task after recording
	Redundancy int         // the task's requested redundancy
}

// Complete records the leaseholder's answer, journals it and releases the
// lease: a CompleteBatch of one. If the answer fulfills the task's
// redundancy the task leaves the queue as Done.
func (q *Queue) Complete(id LeaseID, a task.Answer, now time.Time) (CompleteResult, error) {
	var out [1]CompleteOutcome
	q.completeAll([]CompleteItem{{Lease: id, Answer: a}}, now, trace.Handle{}, out[:])
	return out[0].Result, out[0].Err
}

// completeLocked applies the answer a to the task leased as id and returns
// the result and the answer event as recorded, for the journal; caller
// holds the lock and has already expired overdue leases.
func (q *Queue) completeLocked(id LeaseID, a task.Answer, now time.Time, tr trace.TraceID) (CompleteResult, store.Event, error) {
	l, ok := q.leases[id]
	if !ok {
		return CompleteResult{}, store.Event{}, ErrUnknownLease
	}
	a.WorkerID = l.WorkerID
	t, err := q.st.Apply(store.EventAnswer, l.task.ID, &a, now)
	if errors.Is(err, task.ErrWrongStatus) {
		// Finished or cancelled under an outstanding lease: the answer is
		// late, and the lease goes with it.
		q.dropLeaseLocked(l)
	}
	if err != nil {
		return CompleteResult{}, store.Event{}, err
	}
	// The journal gets the answer as the task holds it, stamped: a pointer
	// into the task's answer list, which only grows, and only under this
	// lock.
	answers := t.Answers()
	recorded := &answers[len(answers)-1]
	res := CompleteResult{
		TaskID:     t.ID,
		Kind:       t.Kind,
		Status:     t.Status,
		Answer:     *recorded,
		Answers:    len(answers),
		Redundancy: int(t.Redundancy),
	}
	q.dropLeaseLocked(l)
	q.emit(trace.StageAnswer, t.ID, l.WorkerID, now, tr)
	q.rec.ObserveStage(trace.StageAnswer, now.Sub(l.LeasedAt), tr)
	if t.Status == task.Done {
		q.closeLocked(t)
		q.emit(trace.StageComplete, t.ID, "", now, tr)
		q.rec.ObserveStage(trace.StageComplete, now.Sub(answers[0].At.Time()), tr)
	}
	return res, store.Event{Kind: store.EventAnswer, At: now, TaskID: t.ID, Answer: recorded}, nil
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

// CompleteBatch records and journals many answers under one hold of the
// lock. The returned slice is index-aligned with items; one bad item
// (unknown lease, repeat worker) never fails the rest. The recorded answers
// are journalled as one group: when the journal refuses it, every one of
// them reports that error.
func (q *Queue) CompleteBatch(items []CompleteItem, now time.Time) []CompleteOutcome {
	return q.CompleteBatchTraced(items, now, trace.Handle{})
}

// CompleteBatchTraced is CompleteBatch under a span handle: the wait for
// the lock is the call's queue.lockwait span, the journal write and wait
// its wal.append and wal.fsync spans, and every answer/complete lifecycle
// event carries the trace ID.
func (q *Queue) CompleteBatchTraced(items []CompleteItem, now time.Time, h trace.Handle) []CompleteOutcome {
	out := make([]CompleteOutcome, len(items))
	q.completeAll(items, now, h, out)
	return out
}

// completeAll is the one answer body: apply each item, then journal the
// applied ones in the same hold of the lock. out is index-aligned with
// items.
func (q *Queue) completeAll(items []CompleteItem, now time.Time, h trace.Handle, out []CompleteOutcome) {
	var events []store.Event
	if q.journal != nil { // a queue that journals nothing does not build the group
		events = make([]store.Event, 0, len(items))
	}
	tr := h.Trace()
	q.lockTraced(h)
	q.expireLocked(now)
	for i := range items {
		var e store.Event
		out[i].Result, e, out[i].Err = q.completeLocked(items[i].Lease, items[i].Answer, now, tr)
		if out[i].Err == nil && q.journal != nil {
			events = append(events, e)
		}
	}
	if err := q.writeThen(h, events, q.mu.Unlock); err != nil {
		for i := range out {
			if out[i].Err == nil {
				out[i].Err = err
			}
		}
	}
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
	q.reclaimLocked(l)
	q.emit(trace.StageRelease, l.task.ID, l.WorkerID, now, trace.TraceID{})
	return nil
}

// reclaimLocked retires a lease that ends without an answer — a release or
// an expiry — and puts its task back in the heap when that frees the
// task's only free slot: an open task whose leases covered Remaining.
func (q *Queue) reclaimLocked(l *Lease) {
	full := l.task.Status == task.Open && q.freeLocked(l.task, "") == 0
	q.dropLeaseLocked(l)
	if full {
		heap.Push(&q.heap, l.task)
	}
}

// dropLeaseLocked retires a lease: out of the lease table, the deadline
// heap and its task's list, if the task is still queued.
func (q *Queue) dropLeaseLocked(l *Lease) {
	delete(q.leases, l.ID)
	heap.Remove(&q.due, l.at)
	first := q.held[l.task.ID]
	if first == l {
		q.held[l.task.ID] = l.next
		return
	}
	for p := first; p != nil; p = p.next {
		if p.next == l {
			p.next = l.next
			return
		}
	}
}

// Cancel removes an open task from the queue and journals the cancel. A
// task the store does not hold is ErrUnknownTask; one that is no longer
// open, task.ErrWrongStatus.
func (q *Queue) Cancel(id task.ID, now time.Time) error {
	q.lock()
	if _, err := q.closeTaskLocked(store.EventCancel, id, now); err != nil {
		q.mu.Unlock()
		return err
	}
	q.emit(trace.StageCancel, id, "", now, trace.TraceID{})
	return q.writeThen(trace.Handle{}, []store.Event{{Kind: store.EventCancel, At: now, TaskID: id}}, q.mu.Unlock)
}

// FinishEarly completes an open task before it has collected its full
// redundancy — the quality plane's confidence-crossed path — and journals
// the finish. The returned view is the finished task. ok is false when the
// task is unknown to the store or no longer open (e.g. a racing answer just
// completed it), which callers treat as "nothing to do", keeping the call
// idempotent. A finish the journal refuses stays applied, and ok: a WAL
// that refuses a write has failed for good and reports it, and its log
// replays the task open, for the completion rule to finish again.
// Outstanding leases on the task are left to expire; their late answers
// are rejected by the task's status check.
func (q *Queue) FinishEarly(id task.ID, now time.Time) (task.View, bool) {
	q.lock()
	t, err := q.closeTaskLocked(store.EventFinish, id, now)
	if err != nil {
		q.mu.Unlock()
		return task.View{}, false
	}
	v := t.View()
	q.emit(trace.StageComplete, id, "", now, trace.TraceID{})
	if answers := v.Answers(); len(answers) > 0 {
		q.rec.ObserveStage(trace.StageComplete, now.Sub(answers[0].At.Time()), trace.TraceID{})
	}
	_ = q.writeThen(trace.Handle{}, []store.Event{{Kind: store.EventFinish, At: now, TaskID: id}}, q.mu.Unlock)
	return v, true
}

// closeTaskLocked applies a cancel or finish to the task id and takes it
// out of the queue; caller holds the lock.
func (q *Queue) closeTaskLocked(kind store.EventKind, id task.ID, now time.Time) (*task.Task, error) {
	t, err := q.st.Apply(kind, id, nil, now)
	if errors.Is(err, store.ErrNotFound) {
		return nil, ErrUnknownTask
	}
	if err != nil {
		return nil, err
	}
	q.closeLocked(t)
	return t, nil
}

// ExpireLeases reclaims all leases that expired at or before now and
// returns how many were reclaimed. Every lease, answer, release and Stats
// call does so first; a node calls this before its shutdown snapshot.
func (q *Queue) ExpireLeases(now time.Time) int {
	q.lock()
	defer q.mu.Unlock()
	return q.expireLocked(now)
}

// expireLocked reclaims the leases due at now, popping them off the
// deadline heap — O(log n) each, and a look at the heap's top when none
// is — and returns how many.
func (q *Queue) expireLocked(now time.Time) (n int) {
	for ; q.due.Len() > 0 && !q.due[0].Expiry.After(now); n++ {
		l := q.due[0]
		q.reclaimLocked(l)
		q.expired++
		q.emit(trace.StageExpire, l.task.ID, l.WorkerID, now, trace.TraceID{})
	}
	return n
}

// closeLocked takes a task that has just left Open out of the queue: out of
// the open count and the lease index at once, out of the heap lazily.
func (q *Queue) closeLocked(t *task.Task) {
	q.open--
	delete(q.held, t.ID) // its outstanding leases stay until answered (and refused), released or expired
	q.compactLocked()
}

// compactLocked rebuilds the heap from its open tasks once closed ones
// outnumber them by more than 64, which keeps the heap within twice the
// open count plus 64 slots at a cost amortized over the closes that filled
// it.
func (q *Queue) compactLocked() {
	if len(q.heap) <= 2*q.open+64 {
		return
	}
	open := q.heap[:0]
	for _, t := range q.heap {
		if t.Status == task.Open {
			open = append(open, t)
		} else {
			delete(q.held, t.ID)
		}
	}
	clear(q.heap[len(open):])
	q.heap = open
	heap.Init(&q.heap)
}

// Stats is a snapshot of queue occupancy.
type Stats struct {
	Open          int   // tasks still collecting answers
	InFlight      int   // outstanding leases
	ExpiredLeases int64 // cumulative reclaimed leases
	LeasePops     int64 `json:"-"` // cumulative tasks popped by lease scans; /metrics only
}

// Stats reclaims the leases due at now, then returns a snapshot of queue
// occupancy: four reads under the lock, whatever the backlog. It runs on
// every /metrics scrape and GET /v1/stats, so while no worker calls those
// reclaim what is due.
func (q *Queue) Stats(now time.Time) Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked(now)
	return Stats{Open: q.open, InFlight: len(q.leases), ExpiredLeases: q.expired, LeasePops: q.pops}
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
	if c := a.CreatedAt.Compare(&b.CreatedAt); c != 0 {
		return c < 0
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

// leaseHeap is a container/heap min-heap on Expiry. Each lease keeps its
// index: set to the end of the heap when it is pushed (leaseLocked), moved
// by Swap.
type leaseHeap []*Lease

func (h leaseHeap) Len() int           { return len(h) }
func (h leaseHeap) Less(i, j int) bool { return h[i].Expiry.Before(h[j].Expiry) }
func (h leaseHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].at, h[j].at = i, j
}
func (h *leaseHeap) Push(x any) { *h = append(*h, x.(*Lease)) }
func (h *leaseHeap) Pop() any {
	old := *h
	l := old[len(old)-1]
	*h = old[:len(old)-1]
	return l
}
