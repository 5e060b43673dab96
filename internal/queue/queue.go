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
// Internally the queue is sharded by task ID across a power-of-two number
// of independently locked shards (default: GOMAXPROCS rounded up). A
// task's heap entry and every lease on it live on the shard id & mask
// selects, and lease IDs carry the shard index in their low bits, so every
// mutation touches exactly one shard lock. Lease scans shards one at a
// time — never holding two shard locks at once — and picks the globally
// best eligible task, so single-threaded lease order is identical to a
// one-shard queue.
package queue

import (
	"container/heap"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
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

// LeaseID identifies one outstanding lease. The shard index of the leased
// task is packed into the low bits, so lease operations find their shard
// without any global map.
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
// mutation. Lock order is always queue-shard → task lock (store shard),
// and the queue never holds two task locks at once.
type TaskLocks interface {
	LockerFor(id task.ID) sync.Locker
}

// qshard is one independently locked slice of the queue: its own heap,
// entry table and lease table. All tasks whose ID maps to this shard —
// and all leases on them — live here.
type qshard struct {
	mu      sync.Mutex
	entries map[task.ID]*entry
	heap    taskHeap
	leases  map[LeaseID]*Lease
	seq     int64 // per-shard lease sequence, guarded by mu
	lockN   int64 // lock acquisitions through lock(), guarded by mu

	// nextExpiry is no later than the earliest Expiry in leases: lowered by
	// every grant, recomputed by the sweep it lets through, and left alone
	// (early, so still a bound) when a lease is answered or released. While
	// now is before it no lease can be overdue and expireShardLocked
	// returns without looking at one. sweeps counts the times it did look.
	nextExpiry time.Time
	sweeps     int64
}

// lock acquires the shard mutex and counts the acquisition; the counter
// feeds the per-shard contention gauges on the admin /metrics endpoint.
func (sh *qshard) lock() {
	sh.mu.Lock()
	sh.lockN++
}

// Queue is a redundancy-aware priority work queue with leases.
//
// The queue owns all mutation of task state while the system runs: Record
// and Cancel are only ever called under the owning shard's lock (plus the
// task's store lock, when configured), and no method returns a live
// *task.Task — lookups hand out deep-copied task.View snapshots instead.
type Queue struct {
	ttl       time.Duration
	locks     TaskLocks // extra per-task lock held while mutating task state; nil for standalone queues
	shards    []*qshard
	mask      uint64
	shardBits uint

	expired atomic.Int64    // total leases reclaimed by expiry
	leaseRR atomic.Uint64   // rotating start shard for LeaseBatch fairness
	rec     *trace.Recorder // lifecycle event sink; nil records nothing
}

// New returns an empty queue with the default (auto) shard count whose
// leases expire after ttl. It panics if ttl is not positive.
func New(ttl time.Duration) *Queue { return NewSharded(ttl, 0, nil) }

// NewLocked returns an empty queue that additionally holds the task's
// lock (locks.LockerFor) while mutating task state (recording answers,
// canceling). Passing the store here is what makes the store's view reads
// race-free: every writer holds the task's store-shard write lock, every
// view reader copies under its read lock. A nil locks behaves like New.
func NewLocked(ttl time.Duration, locks TaskLocks) *Queue { return NewSharded(ttl, 0, locks) }

// NewSharded returns an empty queue with n shards, rounded up to a power
// of two; n <= 0 selects the auto default (GOMAXPROCS rounded up, capped
// at 64). NewSharded(ttl, 1, locks) behaves exactly like the historical
// single-lock queue, including sequential lease IDs.
func NewSharded(ttl time.Duration, n int, locks TaskLocks) *Queue {
	if ttl <= 0 {
		panic("queue: lease TTL must be positive")
	}
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
		if n > 64 {
			n = 64
		}
	}
	p := 1
	for p < n {
		p <<= 1
	}
	q := &Queue{
		ttl:       ttl,
		locks:     locks,
		shards:    make([]*qshard, p),
		mask:      uint64(p - 1),
		shardBits: uint(bits.TrailingZeros(uint(p))),
	}
	for i := range q.shards {
		q.shards[i] = &qshard{
			entries: make(map[task.ID]*entry),
			leases:  make(map[LeaseID]*Lease),
		}
	}
	return q
}

// Shards returns the number of shards the queue was built with.
func (q *Queue) Shards() int { return len(q.shards) }

// SetRecorder attaches a lifecycle trace recorder. It must be called
// before the queue sees traffic (the core does so at construction); a nil
// recorder — the default — records nothing.
func (q *Queue) SetRecorder(rec *trace.Recorder) { q.rec = rec }

// ShardLockCounts returns how many times each shard's lock has been
// acquired, indexed by shard.
func (q *Queue) ShardLockCounts() []int64 {
	out := make([]int64, len(q.shards))
	for i, sh := range q.shards {
		sh.mu.Lock()
		out[i] = sh.lockN
		sh.mu.Unlock()
	}
	return out
}

// shardFor returns the shard owning the given task ID.
func (q *Queue) shardFor(id task.ID) *qshard { return q.shards[uint64(id)&q.mask] }

// shardIndex returns the shard index a task ID maps to.
func (q *Queue) shardIndex(id task.ID) int { return int(uint64(id) & q.mask) }

// emit appends one lifecycle event to the attached recorder, if any. A
// non-zero tr links the event to the request-scoped span tree that caused
// it; maintenance paths (release, cancel, expiry) pass the zero ID.
func (q *Queue) emit(stage trace.Stage, id task.ID, worker string, at time.Time, tr trace.TraceID) {
	q.rec.Append(trace.Event{TaskID: id, Stage: stage, At: at, Shard: q.shardIndex(id), Worker: worker, Trace: tr})
}

// lockwait accumulates the shard-lock waits of one queue call and records
// them as the call's single queue.lockwait span (attr: shard locks taken —
// 1 for a one-item call, the shards touched for a batch, every scan and
// retry for a lease). Under the invalid handle — the untraced caller — Now
// is the zero time, every wait is zero and done records nothing.
type lockwait struct {
	h     trace.Handle
	start time.Time
	wait  time.Duration
	locks int64
}

func waitsOf(h trace.Handle) lockwait { return lockwait{h: h, start: h.Now()} }

func (lw *lockwait) lock(sh *qshard) {
	t0 := lw.h.Now()
	sh.lock()
	lw.wait += lw.h.Now().Sub(t0)
	lw.locks++
}

func (lw *lockwait) done() {
	lw.h.Observe("queue.lockwait", trace.NoSpan, lw.start, lw.wait, lw.locks)
}

// leaseShard returns the shard a lease ID was allocated on.
func (q *Queue) leaseShard(id LeaseID) *qshard { return q.shards[uint64(id)&q.mask] }

// lockTask/unlockTask bracket in-place task mutations with the task's
// store-shard lock, when one was configured. Lock order is always
// queue-shard → store-shard; the store never calls back into the queue,
// so this ordering cannot deadlock.
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
	sh := q.shardFor(t.ID)
	sh.lock()
	defer sh.mu.Unlock()
	return q.insertLocked(sh, t, trace.TraceID{})
}

// insertLocked is the one enqueue step; caller holds sh's lock.
func (q *Queue) insertLocked(sh *qshard, t *task.Task, tr trace.TraceID) error {
	if _, dup := sh.entries[t.ID]; dup {
		return ErrDuplicateID
	}
	if t.Status != task.Open {
		return fmt.Errorf("queue: cannot enqueue task %d with status %v", t.ID, t.Status)
	}
	e := &entry{t: t, index: -1}
	sh.entries[t.ID] = e
	heap.Push(&sh.heap, e)
	q.emit(trace.StageEnqueue, t.ID, "", t.CreatedAt, tr)
	return nil
}

// AddBatch enqueues many open tasks, taking each shard's lock at most once
// per call. A nil result means every task was enqueued; otherwise the slice
// is index-aligned with ts, a nil entry meaning that task was enqueued and
// a non-nil one carrying the error Add would have returned. One bad task
// never fails the rest of the batch.
func (q *Queue) AddBatch(ts []*task.Task) []error {
	return q.AddBatchTraced(ts, trace.Handle{})
}

// AddBatchTraced is AddBatch under a request-scoped span handle: the waits
// for every shard lock the batch touches accumulate into one queue.lockwait
// child span and each enqueue lifecycle event carries the request's trace
// ID. The invalid handle makes it exactly AddBatch. Shards are visited in
// index order, each picking its own tasks out of ts, so a batch of one
// costs what Add costs.
func (q *Queue) AddBatchTraced(ts []*task.Task, h trace.Handle) []error {
	var errs []error
	lw, tr := waitsOf(h), h.Trace()
	for si, sh := range q.shards {
		locked := false
		for i, t := range ts {
			if q.shardIndex(t.ID) != si {
				continue
			}
			if !locked {
				lw.lock(sh)
				locked = true
			}
			if err := q.insertLocked(sh, t, tr); err != nil {
				if errs == nil {
					errs = make([]error, len(ts))
				}
				errs[i] = err
			}
		}
		if locked {
			sh.mu.Unlock()
		}
	}
	lw.done()
	return errs
}

// leaseKey is the heap ordering key of a candidate entry, captured under
// its shard's lock so the global best can be chosen with no lock held.
type leaseKey struct {
	priority int
	created  time.Time
	id       task.ID
}

func keyOf(t *task.Task) leaseKey {
	return leaseKey{priority: t.Priority, created: t.CreatedAt, id: t.ID}
}

// before mirrors taskHeap.Less: higher priority first, then older, then
// smaller ID.
func (k leaseKey) before(o leaseKey) bool {
	if k.priority != o.priority {
		return k.priority > o.priority
	}
	if !k.created.Equal(o.created) {
		return k.created.Before(o.created)
	}
	return k.id < o.id
}

// Lease hands workerID the best available task and records a lease expiring
// at now.Add(ttl). A task is available when it is Open, has not already been
// answered by this worker, is not currently leased to this worker, and has
// fewer outstanding leases than answers it still needs. Returns ErrEmpty
// when nothing is eligible. The returned view is a snapshot taken under the
// owning shard's lock; the caller can serialize it freely.
//
// Candidate selection visits shards one at a time, peeking each shard's
// best eligible entry under that shard's lock, then leases from the
// globally best shard after re-verifying eligibility. Sequentially this
// yields exactly the one-shard order; under concurrent mutation a
// candidate can be taken between peek and lease, in which case the scan
// retries, degrading to first-eligible order rather than blocking.
func (q *Queue) Lease(workerID string, now time.Time) (task.View, LeaseID, error) {
	return q.LeaseTraced(workerID, now, trace.Handle{})
}

// LeaseTraced is Lease under a span handle: the waits for every shard
// lock the scan takes accumulate into one queue.lockwait span and the
// lease lifecycle event carries the request's trace ID.
func (q *Queue) LeaseTraced(workerID string, now time.Time, h trace.Handle) (task.View, LeaseID, error) {
	lw, tr := waitsOf(h), h.Trace()
	defer lw.done()
	const exactAttempts = 4
	for attempt := 0; attempt <= exactAttempts; attempt++ {
		best := -1
		var bestKey leaseKey
		for i, sh := range q.shards {
			lw.lock(sh)
			q.expireShardLocked(sh, now)
			if attempt == exactAttempts {
				// Racing writers kept invalidating the peeked candidates:
				// take the first shard's best directly so Lease terminates.
				var g LeaseGrant
				n := q.scanLocked(sh, workerID, 1, func(e *entry) {
					g.Task, g.Lease = q.leaseEntryLocked(sh, e, workerID, now, tr)
				})
				sh.mu.Unlock()
				if n > 0 {
					return g.Task, g.Lease, nil
				}
				continue
			}
			var k leaseKey
			if q.scanLocked(sh, workerID, 1, func(e *entry) { k = keyOf(e.t) }) > 0 && (best < 0 || k.before(bestKey)) {
				best, bestKey = i, k
			}
			sh.mu.Unlock()
		}
		if best < 0 {
			break
		}
		sh := q.shards[best]
		lw.lock(sh)
		if e, ok := sh.entries[bestKey.id]; ok && q.eligibleLocked(e, workerID) {
			v, id := q.leaseEntryLocked(sh, e, workerID, now, tr)
			sh.mu.Unlock()
			return v, id, nil
		}
		sh.mu.Unlock()
		// The peeked candidate was taken or finished between scans; retry.
	}
	return task.View{}, 0, ErrEmpty
}

// scanLocked is the one walk over a shard's heap: entries are popped
// best-first and take is called on each one workerID may lease, until want
// have been taken or the heap is exhausted. Open entries the worker may not
// lease are skipped, finished ones are drained from the table, and
// everything still open — taken or skipped — is pushed back, since an entry
// stays in the heap while leased. It returns how many were taken. Caller
// holds sh's lock.
func (q *Queue) scanLocked(sh *qshard, workerID string, want int, take func(*entry)) int {
	var popped []*entry
	taken := 0
	for taken < want && sh.heap.Len() > 0 {
		e := heap.Pop(&sh.heap).(*entry)
		switch {
		case q.eligibleLocked(e, workerID):
			take(e)
			taken++
		case e.t.Status != task.Open:
			delete(sh.entries, e.t.ID)
			continue
		}
		popped = append(popped, e)
	}
	for _, e := range popped {
		heap.Push(&sh.heap, e)
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
	sh := q.shardFor(id)
	sh.lock()
	defer sh.mu.Unlock()
	q.expireShardLocked(sh, now)
	e, ok := sh.entries[id]
	if !ok {
		return task.View{}, 0, ErrUnknownTask
	}
	if !q.eligibleLocked(e, workerID) {
		return task.View{}, 0, ErrEmpty
	}
	v, lid := q.leaseEntryLocked(sh, e, workerID, now, trace.TraceID{})
	return v, lid, nil
}

// LeaseGrant is one lease handed out by LeaseBatch: the task snapshot and
// the lease that must be answered or released.
type LeaseGrant struct {
	Task  task.View
	Lease LeaseID
}

// LeaseBatch leases up to max eligible tasks to workerID in one call,
// taking each shard's lock at most twice instead of once per lease. It
// returns however many grants were available (possibly none — an empty
// batch is not an error).
//
// Shard visiting starts at a rotating index and runs two passes: the first
// caps each shard's contribution at ceil(max/shards), so when every shard
// has eligible work a batch draws evenly across shards instead of draining
// the first one; the second pass tops the batch up from whatever is left
// when work is skewed. Within a shard, tasks come out best-first (the
// single-lease heap order); across shards a batch does not interleave by
// global priority — that is the documented relaxation that buys
// one-lock-per-shard batching.
func (q *Queue) LeaseBatch(workerID string, max int, now time.Time) []LeaseGrant {
	return q.LeaseBatchTraced(workerID, max, now, trace.Handle{})
}

// LeaseBatchTraced is LeaseBatch under a span handle: shard-lock waits
// accumulate into one queue.lockwait span and every granted lease's
// lifecycle event carries the trace ID.
func (q *Queue) LeaseBatchTraced(workerID string, max int, now time.Time, h trace.Handle) []LeaseGrant {
	lw, tr := waitsOf(h), h.Trace()
	defer lw.done()
	if max <= 0 || workerID == "" {
		return nil
	}
	n := len(q.shards)
	start := int(q.leaseRR.Add(1)-1) % n
	quota := (max + n - 1) / n
	var out []LeaseGrant
	for pass := 0; pass < 2 && len(out) < max; pass++ {
		for i := 0; i < n && len(out) < max; i++ {
			sh := q.shards[(start+i)%n]
			want := max - len(out)
			if pass == 0 && want > quota {
				want = quota
			}
			lw.lock(sh)
			if pass == 0 {
				q.expireShardLocked(sh, now)
			}
			q.scanLocked(sh, workerID, want, func(e *entry) {
				v, id := q.leaseEntryLocked(sh, e, workerID, now, tr)
				out = append(out, LeaseGrant{Task: v, Lease: id})
			})
			sh.mu.Unlock()
		}
	}
	return out
}

// leaseEntryLocked records a lease on e for workerID. The entry stays in
// the heap while leased: other workers may take the remaining redundancy
// slots concurrently, and the heap key does not depend on lease state.
func (q *Queue) leaseEntryLocked(sh *qshard, e *entry, workerID string, now time.Time, tr trace.TraceID) (task.View, LeaseID) {
	e.inFlight++
	if e.holders == nil {
		e.holders = make(map[string]bool)
	}
	e.holders[workerID] = true
	sh.seq++
	id := LeaseID(sh.seq<<q.shardBits | int64(uint64(e.t.ID)&q.mask))
	l := &Lease{ID: id, TaskID: e.t.ID, WorkerID: workerID, LeasedAt: now, Expiry: now.Add(q.ttl)}
	if len(sh.leases) == 0 || l.Expiry.Before(sh.nextExpiry) {
		sh.nextExpiry = l.Expiry
	}
	sh.leases[id] = l
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
	sh := q.leaseShard(id)
	sh.lock()
	defer sh.mu.Unlock()
	q.expireShardLocked(sh, now)
	return q.completeLocked(sh, id, a, now, trace.TraceID{})
}

// completeLocked is the body of Complete; caller holds sh's lock and has
// already expired overdue leases on it.
func (q *Queue) completeLocked(sh *qshard, id LeaseID, a task.Answer, now time.Time, tr trace.TraceID) (CompleteResult, error) {
	l, ok := sh.leases[id]
	if !ok {
		return CompleteResult{}, ErrUnknownLease
	}
	e, ok := sh.entries[l.TaskID]
	if !ok {
		// An entry only leaves the table under an outstanding lease because
		// its task finished or was cancelled: the same late answer Record
		// refuses while the entry is still there.
		delete(sh.leases, id)
		return CompleteResult{}, task.ErrWrongStatus
	}
	a.WorkerID = l.WorkerID
	q.lockTask(e.t.ID)
	err := e.t.Record(a, now)
	var res CompleteResult
	if err == nil {
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
	delete(sh.leases, id)
	e.inFlight--
	delete(e.holders, l.WorkerID)
	q.fixLocked(sh, e)
	q.emit(trace.StageAnswer, res.TaskID, l.WorkerID, now, tr)
	if res.Status == task.Done {
		q.emit(trace.StageComplete, res.TaskID, "", now, tr)
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

// CompleteBatch records many answers in one call, taking the lock of each
// shard a lease lives on once per batch. The returned slice is
// index-aligned with items; one bad item (unknown lease, repeat worker)
// never fails the rest.
func (q *Queue) CompleteBatch(items []CompleteItem, now time.Time) []CompleteOutcome {
	return q.CompleteBatchTraced(items, now, trace.Handle{})
}

// CompleteBatchTraced is CompleteBatch under a span handle: shard-lock
// waits accumulate into one queue.lockwait span and every answer/complete
// lifecycle event carries the trace ID. Shards are visited in index order,
// each picking its own leases out of items, so a batch of one costs what
// Complete costs.
func (q *Queue) CompleteBatchTraced(items []CompleteItem, now time.Time, h trace.Handle) []CompleteOutcome {
	out := make([]CompleteOutcome, len(items))
	lw, tr := waitsOf(h), h.Trace()
	for si, sh := range q.shards {
		locked := false
		for i := range items {
			if int(uint64(items[i].Lease)&q.mask) != si {
				continue
			}
			if !locked {
				lw.lock(sh)
				q.expireShardLocked(sh, now)
				locked = true
			}
			out[i].Result, out[i].Err = q.completeLocked(sh, items[i].Lease, items[i].Answer, now, tr)
		}
		if locked {
			sh.mu.Unlock()
		}
	}
	lw.done()
	return out
}

// Release returns a leased task to the pool without an answer (the worker
// skipped or disconnected cleanly).
func (q *Queue) Release(id LeaseID, now time.Time) error {
	sh := q.leaseShard(id)
	sh.lock()
	defer sh.mu.Unlock()
	q.expireShardLocked(sh, now)
	l, ok := sh.leases[id]
	if !ok {
		return ErrUnknownLease
	}
	delete(sh.leases, id)
	if e, ok := sh.entries[l.TaskID]; ok {
		e.inFlight--
		delete(e.holders, l.WorkerID)
		q.fixLocked(sh, e)
	}
	q.emit(trace.StageRelease, l.TaskID, l.WorkerID, now, trace.TraceID{})
	return nil
}

// Cancel removes an open task from the queue.
func (q *Queue) Cancel(id task.ID, now time.Time) error {
	sh := q.shardFor(id)
	sh.lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[id]
	if !ok {
		return ErrUnknownTask
	}
	q.lockTask(id)
	err := e.t.Cancel(now)
	q.unlockTask(id)
	if err != nil {
		return err
	}
	q.fixLocked(sh, e)
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
	sh := q.shardFor(id)
	sh.lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[id]
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
	q.fixLocked(sh, e)
	q.emit(trace.StageComplete, id, "", now, trace.TraceID{})
	return v, true
}

// Remove withdraws a task from the queue entirely without touching its
// status — the rollback half of Add for submissions that fail partway.
// Outstanding leases on the task (none exist on the submit path) are left
// to expire.
func (q *Queue) Remove(id task.ID) error {
	sh := q.shardFor(id)
	sh.lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[id]
	if !ok {
		return ErrUnknownTask
	}
	if e.index >= 0 {
		heap.Remove(&sh.heap, e.index)
	}
	delete(sh.entries, id)
	return nil
}

// ExpireLeases reclaims all leases that expired at or before now and
// returns how many were reclaimed. Lease and Complete call this implicitly
// for the shards they touch; it is exported for callers that want eager
// reclamation (e.g. a ticker in the dispatch service).
func (q *Queue) ExpireLeases(now time.Time) int {
	before := q.expired.Load()
	for _, sh := range q.shards {
		sh.lock()
		q.expireShardLocked(sh, now)
		sh.mu.Unlock()
	}
	return int(q.expired.Load() - before)
}

// expireShardLocked reclaims the shard's overdue leases. Every lease,
// complete and release calls it first, so it must cost nothing while nothing
// is due: the walk over the lease table — O(outstanding leases), thousands
// with a real crowd — runs only once now has reached sh.nextExpiry.
func (q *Queue) expireShardLocked(sh *qshard, now time.Time) {
	if len(sh.leases) == 0 || now.Before(sh.nextExpiry) {
		return
	}
	sh.sweeps++
	var next time.Time
	for id, l := range sh.leases {
		if l.Expiry.After(now) {
			if next.IsZero() || l.Expiry.Before(next) {
				next = l.Expiry
			}
			continue
		}
		delete(sh.leases, id)
		q.expired.Add(1)
		if e, ok := sh.entries[l.TaskID]; ok {
			e.inFlight--
			delete(e.holders, l.WorkerID)
			q.fixLocked(sh, e)
		}
		q.emit(trace.StageExpire, l.TaskID, l.WorkerID, now, trace.TraceID{})
	}
	sh.nextExpiry = next
}

// fixLocked re-establishes heap order for e after its scheduling state
// changed, removing it when it is no longer Open.
func (q *Queue) fixLocked(sh *qshard, e *entry) {
	if e.index < 0 {
		return
	}
	if e.t.Status != task.Open {
		heap.Remove(&sh.heap, e.index)
		delete(sh.entries, e.t.ID)
		return
	}
	heap.Fix(&sh.heap, e.index)
}

// Task returns a snapshot of the task with the given ID regardless of
// status, or ErrUnknownTask if the queue never saw it or has already
// dropped it.
func (q *Queue) Task(id task.ID) (task.View, error) {
	sh := q.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[id]
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

// Stats returns a snapshot of queue occupancy. Shards are visited one at
// a time, so counts are per-shard consistent (exact when the queue is
// quiescent).
func (q *Queue) Stats() Stats {
	var st Stats
	for _, sh := range q.shards {
		sh.mu.Lock()
		for _, e := range sh.entries {
			if e.t.Status == task.Open {
				st.Open++
			}
		}
		st.InFlight += len(sh.leases)
		sh.mu.Unlock()
	}
	st.ExpiredLeases = q.expired.Load()
	return st
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
