// Package core assembles the substrates into the human-computation system
// the paper describes: work arrives as tasks, a redundancy-aware queue
// leases them to workers, gold probes with known answers calibrate each
// worker's reputation, and reputation-weighted voting aggregates redundant
// answers into trusted results. The dispatch package serves exactly this
// API over HTTP; the examples and experiments drive it directly.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"humancomp/internal/metrics"
	"humancomp/internal/quality"
	"humancomp/internal/queue"
	"humancomp/internal/sim"
	"humancomp/internal/store"
	"humancomp/internal/task"
	"humancomp/internal/trace"
)

// Config parameterizes a System.
type Config struct {
	// LeaseTTL is how long a worker may hold a task before it is
	// reclaimed.
	LeaseTTL time.Duration
	// ReputationPrior and ReputationWeight seed the worker reputation
	// tracker (see quality.NewReputation).
	ReputationPrior  float64
	ReputationWeight float64
	// Clock supplies time; defaults to the wall clock. The simulator
	// injects its virtual clock here.
	Clock sim.Clock
	// Journal, when set, receives every state-changing event (submit,
	// answer, cancel) before the call returns success — the ack barrier
	// that lets a crashed service recover snapshot + journal tail.
	// *store.WAL satisfies it.
	Journal Journal
	// Shards selects how many lock shards the store and queue are split
	// into (rounded up to a power of two). 0 selects the auto default:
	// GOMAXPROCS rounded up. 1 reproduces the historical single-lock
	// behavior exactly.
	Shards int
	// TraceCapacity bounds the lifecycle trace ring buffer (total events
	// retained). 0 selects trace.DefaultCapacity; negative disables
	// tracing entirely.
	TraceCapacity int
	// OnlineQuality enables the streaming quality plane: an online
	// Dawid–Skene estimator fed from the answer path that maintains
	// per-worker confusion matrices and per-task posteriors for
	// Compare/Judge tasks, O(votes-on-task) per answer.
	OnlineQuality bool
	// ConfidenceTarget, when positive (and OnlineQuality is on), completes
	// a choice task as soon as its posterior confidence reaches the target
	// — even before redundancy is met. The completion rule is confidence
	// OR redundancy, whichever crosses first. 0 disables early completion.
	ConfidenceTarget float64
	// QualityMinAnswers is the minimum answers a task must carry before
	// the confidence target may complete it early (guards against one
	// highly-reputed vote deciding a task alone). 0 selects 2.
	QualityMinAnswers int
	// Spans configures the request-scoped span plane (tail-sampled span
	// trees served at /v1/debug/spans). The zero value leaves it disabled.
	Spans trace.SpanConfig
}

// Journal is the event sink a System writes through (see store.WAL).
type Journal interface {
	Append(store.Event) error
}

// BatchJournal is the optional batched extension of Journal: the events
// are appended as one group, sharing one write and (under a sync-always
// policy) one fsync. *store.WAL satisfies it; journals without it fall
// back to per-event Append.
type BatchJournal interface {
	AppendBatch([]store.Event) error
}

// ObservedJournal is the optional timing extension of Journal: the append
// reports how long the write+flush and the fsync-group wait took, so a
// traced request records wal.append and wal.fsync as separate child
// spans. *store.WAL satisfies it; journals without it are timed as one
// undifferentiated wal.append span.
type ObservedJournal interface {
	AppendObserved(store.Event) (write, sync time.Duration, err error)
}

// ObservedBatchJournal is the batched ObservedJournal. *store.WAL
// satisfies it.
type ObservedBatchJournal interface {
	AppendBatchObserved([]store.Event) (write, sync time.Duration, err error)
}

// DefaultConfig returns production-shaped defaults: two-minute leases and
// a 0.75/4 reputation prior.
func DefaultConfig() Config {
	return Config{
		LeaseTTL:         2 * time.Minute,
		ReputationPrior:  0.75,
		ReputationWeight: 4,
		Clock:            sim.WallClock{},
	}
}

// System is one running human-computation service instance.
type System struct {
	cfg   Config
	store *store.Store
	queue *queue.Queue
	rep   *quality.Reputation
	clock sim.Clock

	mu   sync.RWMutex // guards gold; read-mostly (checked on every answer)
	gold map[task.ID]task.Answer

	trace *trace.Recorder      // lifecycle event ring; nil when disabled
	spans *trace.SpanPlane     // request-scoped span trees; nil when disabled
	gwap  *metrics.ShardedGWAP // live play metrics derived from leases
	qp    *qualityPlane        // streaming quality plane; nil when disabled

	tasksSubmitted metrics.Counter
	answersTotal   metrics.Counter
	goldChecked    metrics.Counter

	// readOnly fences every mutating entry point (replication followers
	// serve reads from replayed state until promoted).
	readOnly atomic.Bool
}

// ErrReadOnly is returned by every mutating call while the system is in
// read-only (follower) mode. The dispatch layer maps it to 503 plus a
// leader hint.
var ErrReadOnly = errors.New("core: system is read-only (follower)")

// New returns an empty system.
func New(cfg Config) *System {
	if cfg.LeaseTTL <= 0 {
		panic("core: LeaseTTL must be positive")
	}
	if cfg.Clock == nil {
		cfg.Clock = sim.WallClock{}
	}
	// The queue holds the write lock of the store shard owning a task
	// while mutating its state, so every store-side view read (handlers,
	// snapshots, aggregators) is race-free under that shard's read lock.
	// Store and queue use the same shard count and the same id&mask
	// placement, so a task's queue entry, its leases and its stored
	// record always live on the same shard index.
	st := store.NewSharded(cfg.Shards)
	s := &System{
		cfg:   cfg,
		store: st,
		queue: queue.NewSharded(cfg.LeaseTTL, st.Shards(), st),
		rep:   quality.NewReputation(cfg.ReputationPrior, cfg.ReputationWeight),
		clock: cfg.Clock,
		gold:  make(map[task.ID]task.Answer),
		gwap:  metrics.NewShardedGWAP(),
	}
	// Lifecycle tracing is on by default: the ring is bounded and every
	// append is one striped lock, cheap enough for the hot path. A
	// negative capacity opts out (the recorder stays nil; every emit
	// site is nil-safe).
	if cfg.TraceCapacity >= 0 {
		s.trace = trace.NewRecorder(cfg.TraceCapacity)
		s.store.SetRecorder(s.trace)
		s.queue.SetRecorder(s.trace)
	}
	if cfg.OnlineQuality {
		s.qp = newQualityPlane(s.rep, cfg.QualityMinAnswers)
	}
	s.spans = trace.NewSpanPlane(cfg.Spans)
	return s
}

// SetReadOnly flips follower fencing: while true, every mutating call
// (submit, lease, answer, release, cancel) fails with ErrReadOnly and the
// read paths — task views, posteriors, traces, aggregates — keep serving
// the replicated state. Promotion flips it back off.
func (s *System) SetReadOnly(v bool) { s.readOnly.Store(v) }

// ReadOnly reports whether the system is fenced read-only.
func (s *System) ReadOnly() bool { return s.readOnly.Load() }

// Spans exposes the request-scoped span plane; nil when disabled.
func (s *System) Spans() *trace.SpanPlane { return s.spans }

// Reputation exposes the worker reputation tracker.
func (s *System) Reputation() *quality.Reputation { return s.rep }

// SubmitTask creates and enqueues a task, returning its ID. On any
// failure after the task reaches the store, the partial state is rolled
// back so store, queue and journal never disagree about which tasks exist.
func (s *System) SubmitTask(kind task.Kind, p task.Payload, redundancy, priority int) (task.ID, error) {
	return s.submit(kind, p, redundancy, priority, nil, trace.Handle{})
}

// SubmitTaskCtx is SubmitTask under the span handle carried by ctx: the
// core work runs inside a core.submit child span, with queue.lockwait and
// wal.append/wal.fsync children beneath it. A context without a handle
// behaves exactly like SubmitTask.
func (s *System) SubmitTaskCtx(ctx context.Context, kind task.Kind, p task.Payload, redundancy, priority int) (task.ID, error) {
	h, ref := startOp(trace.FromContext(ctx), "core.submit")
	id, err := s.submit(kind, p, redundancy, priority, nil, h)
	endOp(h, ref, err)
	return id, err
}

// startOp opens the core-op child span named op and rebases the handle
// under it, so every span the callee records nests beneath the op span.
// Invalid handles pass through untouched at zero cost.
func startOp(h trace.Handle, op string) (trace.Handle, trace.SpanRef) {
	if !h.Valid() {
		return h, trace.NoSpan
	}
	ref := h.StartSpan(op, trace.NoSpan)
	return h.Under(ref), ref
}

// endOp closes the op span opened by startOp, marking it failed when err
// is non-nil.
func endOp(h trace.Handle, ref trace.SpanRef, err error) {
	if ref < 0 {
		return
	}
	if err != nil {
		h.FailSpan(ref, err.Error())
	} else {
		h.EndSpan(ref)
	}
}

// submit is the shared submit path. A non-nil gold answer registers the
// task as a reputation probe *before* it becomes leasable — a worker who
// leases and answers the probe in the window between Add and registration
// would otherwise escape scoring — and rides in the journal event so the
// probe survives replay.
func (s *System) submit(kind task.Kind, p task.Payload, redundancy, priority int, gold *task.Answer, h trace.Handle) (task.ID, error) {
	if s.readOnly.Load() {
		return 0, ErrReadOnly
	}
	now := s.clock.Now()
	t, err := task.New(s.store.NextID(), kind, p, redundancy, now)
	if err != nil {
		return 0, err
	}
	t.Priority = priority
	s.emit(trace.StageSubmit, t.ID, "", now, h.Trace())
	// Snapshot for the journal before the task becomes leasable: once Add
	// succeeds a concurrent worker may already be mutating t.
	clean := task.Task(t.View())
	s.store.Put(t)
	if gold != nil {
		s.mu.Lock()
		s.gold[t.ID] = *gold
		s.mu.Unlock()
	}
	dropGold := func() {
		if gold != nil {
			s.mu.Lock()
			delete(s.gold, t.ID)
			s.mu.Unlock()
		}
	}
	if err := s.queue.AddTraced(t, h); err != nil {
		s.store.Delete(t.ID)
		dropGold()
		return 0, err
	}
	if err := s.journalTraced(h, store.Event{Kind: store.EventSubmit, At: now, Task: &clean, Gold: gold}); err != nil {
		// Unacknowledged and unjournaled: a crash here would lose the task
		// anyway, so withdraw it rather than strand it half-submitted.
		_ = s.queue.Remove(t.ID)
		s.store.Delete(t.ID)
		dropGold()
		return 0, err
	}
	s.tasksSubmitted.Inc()
	return t.ID, nil
}

// journal writes e to the configured journal, if any.
func (s *System) journal(e store.Event) error {
	if s.cfg.Journal == nil {
		return nil
	}
	return s.cfg.Journal.Append(e)
}

// journalTraced is journal under a span handle: through an
// ObservedJournal the append splits into wal.append (write+flush) and
// wal.fsync (group-commit wait) child spans; other journals get one
// wal.append span covering the whole call. An invalid handle makes it
// exactly journal.
func (s *System) journalTraced(h trace.Handle, e store.Event) error {
	if s.cfg.Journal == nil {
		return nil
	}
	if !h.Valid() {
		return s.cfg.Journal.Append(e)
	}
	if oj, ok := s.cfg.Journal.(ObservedJournal); ok {
		start := time.Now()
		w, sy, err := oj.AppendObserved(e)
		h.Observe("wal.append", trace.NoSpan, start, w, 1)
		if sy > 0 {
			h.Observe("wal.fsync", trace.NoSpan, start.Add(w), sy, 0)
		}
		return err
	}
	start := time.Now()
	err := s.cfg.Journal.Append(e)
	h.Observe("wal.append", trace.NoSpan, start, time.Since(start), 1)
	return err
}

// journalBatch writes events to the configured journal, preferring the
// batched append. It returns how many leading events were acknowledged:
// all of them on success, all-or-nothing through a BatchJournal, and the
// prefix before the first failure through the per-event fallback — the
// caller rolls back exactly the unacknowledged suffix.
func (s *System) journalBatch(events []store.Event) (int, error) {
	if s.cfg.Journal == nil || len(events) == 0 {
		return len(events), nil
	}
	if bj, ok := s.cfg.Journal.(BatchJournal); ok {
		if err := bj.AppendBatch(events); err != nil {
			return 0, err
		}
		return len(events), nil
	}
	for i, e := range events {
		if err := s.cfg.Journal.Append(e); err != nil {
			return i, err
		}
	}
	return len(events), nil
}

// journalBatchTraced is journalBatch under a span handle, with the same
// wal.append/wal.fsync split as journalTraced (attr on wal.append: events
// in the group).
func (s *System) journalBatchTraced(h trace.Handle, events []store.Event) (int, error) {
	if s.cfg.Journal == nil || len(events) == 0 {
		return len(events), nil
	}
	if !h.Valid() {
		return s.journalBatch(events)
	}
	if obj, ok := s.cfg.Journal.(ObservedBatchJournal); ok {
		start := time.Now()
		w, sy, err := obj.AppendBatchObserved(events)
		h.Observe("wal.append", trace.NoSpan, start, w, int64(len(events)))
		if sy > 0 {
			h.Observe("wal.fsync", trace.NoSpan, start.Add(w), sy, 0)
		}
		if err != nil {
			return 0, err
		}
		return len(events), nil
	}
	start := time.Now()
	n, err := s.journalBatch(events)
	h.Observe("wal.append", trace.NoSpan, start, time.Since(start), int64(len(events)))
	return n, err
}

// SubmitSpec is one task of a SubmitBatch call.
type SubmitSpec struct {
	Kind       task.Kind
	Payload    task.Payload
	Redundancy int
	Priority   int
	// Gold marks the task as a reputation probe expecting Expected.
	Gold     bool
	Expected task.Answer
}

// SubmitOutcome is the per-item result of SubmitBatch: ID is valid exactly
// when Err is nil.
type SubmitOutcome struct {
	ID  task.ID
	Err error
}

// SubmitBatch creates and enqueues many tasks in one pass: tasks are
// grouped by shard so each store and queue shard lock is taken once per
// batch instead of once per task, and all journal events are appended as
// one group (one write, one fsync under sync-always). The returned slice
// is index-aligned with specs; an invalid item never fails the rest. Items
// whose journal append was not acknowledged are withdrawn, so store, queue
// and journal agree about which tasks exist — exactly the single-submit
// contract, batched.
func (s *System) SubmitBatch(specs []SubmitSpec) []SubmitOutcome {
	return s.submitBatch(specs, trace.Handle{})
}

// SubmitBatchCtx is SubmitBatch under the span handle carried by ctx; the
// whole batch runs inside one core.submit_batch child span.
func (s *System) SubmitBatchCtx(ctx context.Context, specs []SubmitSpec) []SubmitOutcome {
	h, ref := startOp(trace.FromContext(ctx), "core.submit_batch")
	out := s.submitBatch(specs, h)
	endOp(h, ref, nil)
	return out
}

func (s *System) submitBatch(specs []SubmitSpec, h trace.Handle) []SubmitOutcome {
	out := make([]SubmitOutcome, len(specs))
	if len(specs) == 0 {
		return out
	}
	if s.readOnly.Load() {
		for i := range out {
			out[i].Err = ErrReadOnly
		}
		return out
	}
	tr := h.Trace()
	now := s.clock.Now()
	tasks := make([]*task.Task, 0, len(specs))
	specIdx := make([]int, 0, len(specs)) // spec index of each created task
	for i, sp := range specs {
		if sp.Gold {
			// A malformed gold expectation would score every honest worker
			// wrong; reject it before the task exists anywhere.
			if err := task.ValidateAnswer(sp.Kind, sp.Expected); err != nil {
				out[i].Err = err
				continue
			}
		}
		t, err := task.New(s.store.NextID(), sp.Kind, sp.Payload, sp.Redundancy, now)
		if err != nil {
			out[i].Err = err
			continue
		}
		t.Priority = sp.Priority
		s.emit(trace.StageSubmit, t.ID, "", now, tr)
		tasks = append(tasks, t)
		specIdx = append(specIdx, i)
	}
	if len(tasks) == 0 {
		return out
	}
	// Snapshot for the journal before the tasks become leasable: once
	// AddBatch succeeds a concurrent worker may already be mutating them.
	cleans := make([]task.Task, len(tasks))
	events := make([]store.Event, len(tasks))
	golds := make([]*task.Answer, len(tasks))
	for j, t := range tasks {
		cleans[j] = task.Task(t.View())
		events[j] = store.Event{Kind: store.EventSubmit, At: now, Task: &cleans[j]}
		if sp := specs[specIdx[j]]; sp.Gold {
			g := sp.Expected
			golds[j] = &g
			events[j].Gold = golds[j]
		}
	}
	s.store.PutBatch(tasks)
	// Gold expectations register before the tasks become leasable, so no
	// worker can answer a probe unscored (mirrors the single-submit path).
	s.mu.Lock()
	for j, g := range golds {
		if g != nil {
			s.gold[tasks[j].ID] = *g
		}
	}
	s.mu.Unlock()
	dropGold := func(id task.ID, g *task.Answer) {
		if g != nil {
			s.mu.Lock()
			delete(s.gold, id)
			s.mu.Unlock()
		}
	}
	addErrs := s.queue.AddBatchTraced(tasks, h)
	okTasks := make([]*task.Task, 0, len(tasks))
	okEvents := make([]store.Event, 0, len(tasks))
	okGolds := make([]*task.Answer, 0, len(tasks))
	okIdx := make([]int, 0, len(tasks))
	for j, t := range tasks {
		if addErrs[j] != nil {
			s.store.Delete(t.ID)
			dropGold(t.ID, golds[j])
			out[specIdx[j]].Err = addErrs[j]
			continue
		}
		okTasks = append(okTasks, t)
		okEvents = append(okEvents, events[j])
		okGolds = append(okGolds, golds[j])
		okIdx = append(okIdx, specIdx[j])
	}
	acked, jerr := s.journalBatchTraced(h, okEvents)
	for j, t := range okTasks {
		if j >= acked {
			// Unacknowledged and unjournaled: withdraw rather than strand
			// half-submitted (mirrors the single-submit rollback).
			_ = s.queue.Remove(t.ID)
			s.store.Delete(t.ID)
			dropGold(t.ID, okGolds[j])
			out[okIdx[j]].Err = jerr
			continue
		}
		out[okIdx[j]].ID = t.ID
		s.tasksSubmitted.Inc()
	}
	return out
}

// emit appends one lifecycle event to the trace recorder, if tracing is on.
// Core-level events carry the task's store-shard index, which matches the
// queue-shard index by construction (same count, same id&mask placement).
// A non-zero tr links the event to the request-scoped span tree.
func (s *System) emit(stage trace.Stage, id task.ID, worker string, at time.Time, tr trace.TraceID) {
	s.trace.Append(trace.Event{
		TaskID: id, Stage: stage, At: at, Worker: worker,
		Shard: int(id) & (s.store.Shards() - 1),
		Trace: tr,
	})
}

// SubmitGold creates a gold probe: a task whose answer is already known.
// Workers cannot tell it apart from real work; their answers update their
// reputation instead of producing new results. The expected answer is
// validated like any worker answer — a malformed expectation would score
// every honest worker wrong and silently poison reputations.
func (s *System) SubmitGold(kind task.Kind, p task.Payload, redundancy, priority int, expected task.Answer) (task.ID, error) {
	if err := task.ValidateAnswer(kind, expected); err != nil {
		return 0, err
	}
	return s.submit(kind, p, redundancy, priority, &expected, trace.Handle{})
}

// SubmitGoldCtx is SubmitGold under the span handle carried by ctx.
func (s *System) SubmitGoldCtx(ctx context.Context, kind task.Kind, p task.Payload, redundancy, priority int, expected task.Answer) (task.ID, error) {
	if err := task.ValidateAnswer(kind, expected); err != nil {
		return 0, err
	}
	h, ref := startOp(trace.FromContext(ctx), "core.submit")
	id, err := s.submit(kind, p, redundancy, priority, &expected, h)
	endOp(h, ref, err)
	return id, err
}

// IsGold reports whether id is a gold probe.
func (s *System) IsGold(id task.ID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.gold[id]
	return ok
}

// Shards returns the effective shard count of the dispatch data plane.
func (s *System) Shards() int { return s.store.Shards() }

// NextTask leases the best available task to workerID, returning an
// immutable snapshot of it. It returns queue.ErrEmpty when nothing is
// available.
func (s *System) NextTask(workerID string) (task.View, queue.LeaseID, error) {
	if workerID == "" {
		return task.View{}, 0, errors.New("core: worker ID required")
	}
	if s.readOnly.Load() {
		return task.View{}, 0, ErrReadOnly
	}
	return s.queue.Lease(workerID, s.clock.Now())
}

// NextTaskCtx is NextTask under the span handle carried by ctx: the lease
// runs inside a core.lease child span with the queue's shard-lock wait
// recorded beneath it. queue.ErrEmpty does not mark the span failed — an
// empty queue is an answer, not an error.
func (s *System) NextTaskCtx(ctx context.Context, workerID string) (task.View, queue.LeaseID, error) {
	if workerID == "" {
		return task.View{}, 0, errors.New("core: worker ID required")
	}
	if s.readOnly.Load() {
		return task.View{}, 0, ErrReadOnly
	}
	h, ref := startOp(trace.FromContext(ctx), "core.lease")
	v, id, err := s.queue.LeaseTraced(workerID, s.clock.Now(), h)
	if errors.Is(err, queue.ErrEmpty) {
		endOp(h, ref, nil)
	} else {
		endOp(h, ref, err)
	}
	return v, id, err
}

// LeaseTaskFor leases the specific task id to workerID — the targeted
// path that lets the session plane attach a completed agreement to the
// task backing its item, flowing through the same lease/answer machinery
// (and therefore the same WAL, quality plane, and GWAP accounting) as any
// worker answer. Eligibility rules are exactly NextTask's: an Open task
// this worker has not answered, with a redundancy slot free.
func (s *System) LeaseTaskFor(id task.ID, workerID string) (task.View, queue.LeaseID, error) {
	if workerID == "" {
		return task.View{}, 0, errors.New("core: worker ID required")
	}
	if s.readOnly.Load() {
		return task.View{}, 0, ErrReadOnly
	}
	return s.queue.LeaseTask(id, workerID, s.clock.Now())
}

// LeaseBatch leases up to max available tasks to workerID in one call
// (each queue shard lock taken at most twice per batch). It returns
// however many grants were available; an empty batch is not an error.
// Within a shard grants come out best-first; across shards the batch
// draws round-robin from a rotating start, trading exact global priority
// order for one-lock-per-shard batching (see queue.LeaseBatch).
func (s *System) LeaseBatch(workerID string, max int) []queue.LeaseGrant {
	if workerID == "" || s.readOnly.Load() {
		return nil
	}
	return s.queue.LeaseBatch(workerID, max, s.clock.Now())
}

// LeaseBatchCtx is LeaseBatch under the span handle carried by ctx; the
// batch runs inside one core.lease_batch child span.
func (s *System) LeaseBatchCtx(ctx context.Context, workerID string, max int) []queue.LeaseGrant {
	if workerID == "" || s.readOnly.Load() {
		return nil
	}
	h, ref := startOp(trace.FromContext(ctx), "core.lease_batch")
	out := s.queue.LeaseBatchTraced(workerID, max, s.clock.Now(), h)
	endOp(h, ref, nil)
	return out
}

// SubmitAnswer records the leaseholder's answer. Gold probes additionally
// update the worker's reputation. The journal record and the gold check
// both use the answer the queue returned by value — core never re-reads
// the task's answer list, so two interleaved submissions can never journal
// or credit each other's answers.
func (s *System) SubmitAnswer(lease queue.LeaseID, a task.Answer) error {
	return s.submitAnswer(lease, a, trace.Handle{})
}

// SubmitAnswerCtx is SubmitAnswer under the span handle carried by ctx:
// the work runs inside a core.answer child span, with queue.lockwait,
// wal.append/wal.fsync and quality.update children beneath it.
func (s *System) SubmitAnswerCtx(ctx context.Context, lease queue.LeaseID, a task.Answer) error {
	h, ref := startOp(trace.FromContext(ctx), "core.answer")
	err := s.submitAnswer(lease, a, h)
	endOp(h, ref, err)
	return err
}

func (s *System) submitAnswer(lease queue.LeaseID, a task.Answer, h trace.Handle) error {
	if s.readOnly.Load() {
		return ErrReadOnly
	}
	now := s.clock.Now()
	res, err := s.queue.CompleteTraced(lease, a, now, h)
	if err != nil {
		return err
	}
	recorded := res.Answer
	if err := s.journalTraced(h, store.Event{Kind: store.EventAnswer, At: now, TaskID: res.TaskID, Answer: &recorded}); err != nil {
		return err
	}
	s.answersTotal.Inc()
	// Live GWAP accounting: the lease-to-answer span is this worker's play
	// time for the round, and a task reaching redundancy is one solved
	// problem instance. Throughput, ALP and expected contribution on the
	// admin /metrics endpoint derive from exactly these two records.
	s.gwap.RecordSession(res.Answer.WorkerID, now.Sub(res.LeasedAt))
	if res.Status == task.Done {
		s.gwap.RecordOutputs(1)
	}
	if h.Valid() {
		qs := time.Now()
		s.checkGold(res, h.Trace())
		s.observeAnswer(res, now)
		h.Observe("quality.update", trace.NoSpan, qs, time.Since(qs), 0)
	} else {
		s.checkGold(res, trace.TraceID{})
		s.observeAnswer(res, now)
	}
	return nil
}

// AnswerBatch records many lease answers in one call: the queue groups
// items by shard (one lock per shard per batch) and the journal receives
// all answer events as one group append. The returned slice is
// index-aligned with items; one bad item (unknown lease, repeat worker)
// never fails the rest. Items whose journal append was not acknowledged
// report that error, exactly as a single SubmitAnswer would.
func (s *System) AnswerBatch(items []queue.CompleteItem) []error {
	outcomes := s.AnswerBatchDetailed(items)
	errs := make([]error, len(outcomes))
	for i, o := range outcomes {
		errs[i] = o.Err
	}
	return errs
}

// AnswerOutcome is the per-item result of AnswerBatchDetailed. The quality
// fields are populated only when the online estimator observed the answer
// (a Compare/Judge task on a quality-enabled system): Posterior is the
// task's class posterior after this answer, Confidence its maximum, and
// EarlyDone reports that this answer pushed the posterior past the
// configured confidence target and completed the task before redundancy.
type AnswerOutcome struct {
	Err        error
	TaskID     task.ID
	Status     task.Status
	Confidence float64
	Posterior  []float64
	EarlyDone  bool
}

// AnswerBatchDetailed is AnswerBatch returning per-item outcomes with the
// quality plane's posterior view of each answered task.
func (s *System) AnswerBatchDetailed(items []queue.CompleteItem) []AnswerOutcome {
	return s.answerBatchDetailed(items, trace.Handle{})
}

// AnswerBatchDetailedCtx is AnswerBatchDetailed under the span handle
// carried by ctx; the batch runs inside one core.answer_batch child span
// with a single quality.update span covering the whole post-journal pass.
func (s *System) AnswerBatchDetailedCtx(ctx context.Context, items []queue.CompleteItem) []AnswerOutcome {
	h, ref := startOp(trace.FromContext(ctx), "core.answer_batch")
	out := s.answerBatchDetailed(items, h)
	endOp(h, ref, nil)
	return out
}

func (s *System) answerBatchDetailed(items []queue.CompleteItem, h trace.Handle) []AnswerOutcome {
	out := make([]AnswerOutcome, len(items))
	if len(items) == 0 {
		return out
	}
	if s.readOnly.Load() {
		for i := range out {
			out[i].Err = ErrReadOnly
		}
		return out
	}
	now := s.clock.Now()
	outcomes := s.queue.CompleteBatchTraced(items, now, h)
	// recorded answers need stable addresses for the journal events; the
	// slice is pre-sized so appends never reallocate.
	recorded := make([]task.Answer, 0, len(items))
	events := make([]store.Event, 0, len(items))
	okIdx := make([]int, 0, len(items))
	for i, o := range outcomes {
		if o.Err != nil {
			out[i].Err = o.Err
			continue
		}
		recorded = append(recorded, o.Result.Answer)
		events = append(events, store.Event{
			Kind: store.EventAnswer, At: now,
			TaskID: o.Result.TaskID, Answer: &recorded[len(recorded)-1],
		})
		okIdx = append(okIdx, i)
	}
	acked, jerr := s.journalBatchTraced(h, events)
	var qs time.Time
	tr := h.Trace()
	if h.Valid() {
		qs = time.Now()
	}
	for j, i := range okIdx {
		if j >= acked {
			out[i].Err = jerr
			continue
		}
		res := outcomes[i].Result
		s.answersTotal.Inc()
		s.gwap.RecordSession(res.Answer.WorkerID, now.Sub(res.LeasedAt))
		if res.Status == task.Done {
			s.gwap.RecordOutputs(1)
		}
		s.checkGold(res, tr)
		conf, post, early := s.observeAnswer(res, now)
		out[i].TaskID = res.TaskID
		out[i].Status = res.Status
		out[i].Confidence = conf
		out[i].Posterior = post
		out[i].EarlyDone = early
		if early {
			out[i].Status = task.Done
		}
	}
	if h.Valid() {
		h.Observe("quality.update", trace.NoSpan, qs, time.Since(qs), int64(len(okIdx)))
	}
	return out
}

// checkGold scores a just-recorded answer against its task's gold
// expectation, if any.
func (s *System) checkGold(res queue.CompleteResult, tr trace.TraceID) {
	s.mu.RLock()
	expected, ok := s.gold[res.TaskID]
	s.mu.RUnlock()
	if !ok {
		return
	}
	s.rep.Record(res.Answer.WorkerID, AnswerMatches(res.Kind, expected, res.Answer))
	s.goldChecked.Inc()
	s.emit(trace.StageGold, res.TaskID, res.Answer.WorkerID, res.Answer.At, tr)
}

// AnswerMatches reports whether a matches the expected gold answer for a
// task of the given kind:
//
//   - Label/Describe: any submitted word appears in the expected set;
//   - Locate: the boxes overlap with IoU above 0.5;
//   - Transcribe: case-insensitive text equality;
//   - Compare/Judge: choice equality.
func AnswerMatches(kind task.Kind, expected, got task.Answer) bool {
	switch kind {
	case task.Label, task.Describe:
		want := make(map[int]bool, len(expected.Words))
		for _, w := range expected.Words {
			want[w] = true
		}
		for _, w := range got.Words {
			if want[w] {
				return true
			}
		}
		return false
	case task.Locate:
		return expected.Box.IoU(got.Box) > 0.5
	case task.Transcribe:
		return strings.EqualFold(strings.TrimSpace(expected.Text), strings.TrimSpace(got.Text))
	case task.Compare, task.Judge:
		return expected.Choice == got.Choice
	default:
		return false
	}
}

// ReleaseTask returns a leased task to the pool unanswered.
func (s *System) ReleaseTask(lease queue.LeaseID) error {
	if s.readOnly.Load() {
		return ErrReadOnly
	}
	return s.queue.Release(lease, s.clock.Now())
}

// CancelTask cancels an open task. Canceling a task that already finished
// (done or canceled) returns task.ErrWrongStatus; a task the system never
// saw returns queue.ErrUnknownTask.
func (s *System) CancelTask(id task.ID) error {
	if s.readOnly.Load() {
		return ErrReadOnly
	}
	now := s.clock.Now()
	err := s.queue.Cancel(id, now)
	if errors.Is(err, queue.ErrUnknownTask) {
		// The queue drops finished tasks; the store remembers them.
		if v, serr := s.store.View(id); serr == nil && v.Status != task.Open {
			return task.ErrWrongStatus
		}
	}
	if err != nil {
		return err
	}
	return s.journal(store.Event{Kind: store.EventCancel, At: now, TaskID: id})
}

// Task returns an immutable snapshot of the stored task (any status).
func (s *System) Task(id task.ID) (task.View, error) { return s.store.View(id) }

// Store exposes the underlying store (snapshot/restore).
func (s *System) Store() *store.Store { return s.store }

// Trace exposes the lifecycle trace recorder; nil when tracing is disabled.
func (s *System) Trace() *trace.Recorder { return s.trace }

// TaskTrace returns the retained lifecycle events for a task, oldest
// first, or nil when tracing is disabled or nothing is retained.
func (s *System) TaskTrace(id task.ID) []trace.Event { return s.trace.TaskEvents(id) }

// GWAP returns the live play metrics derived from dispatch traffic:
// lease-to-answer spans as play time, completed tasks as outputs.
func (s *System) GWAP() metrics.Report { return s.gwap.Report() }

// ShardLockCounts returns the per-shard lock-acquisition counts of the
// queue and the store, the raw material of the contention gauges on the
// admin /metrics endpoint.
func (s *System) ShardLockCounts() (queueLocks, storeLocks []int64) {
	return s.queue.ShardLockCounts(), s.store.ShardLockCounts()
}

// RequeueOpen re-enqueues every open task in the store. It is used after a
// snapshot restore to rebuild the dispatch queue; tasks already enqueued
// are left alone.
func (s *System) RequeueOpen() error {
	for _, id := range s.store.IDs(task.Open) {
		t, err := s.store.Get(id)
		if err != nil {
			continue // deleted since the IDs were listed
		}
		if err := s.queue.Add(t); err != nil && !errors.Is(err, queue.ErrDuplicateID) {
			return err
		}
	}
	return nil
}

// ExpireLeases reclaims overdue leases; the dispatch service calls this
// periodically.
func (s *System) ExpireLeases() int { return s.queue.ExpireLeases(s.clock.Now()) }

// ChoiceResult is the aggregated outcome of a Compare or Judge task.
type ChoiceResult struct {
	Choice     int     `json:"choice"`
	Confidence float64 `json:"confidence"` // winning weight share
	Votes      int     `json:"votes"`
}

// ErrWrongKind is returned when an aggregation is asked of an unsuitable task.
var ErrWrongKind = errors.New("core: aggregation not defined for this task kind")

// AggregateChoice combines the answers of a Compare/Judge task by
// reputation-weighted vote. It aggregates over a snapshot, so it can run
// while workers keep answering.
func (s *System) AggregateChoice(id task.ID) (ChoiceResult, error) {
	t, err := s.store.View(id)
	if err != nil {
		return ChoiceResult{}, err
	}
	if t.Kind != task.Compare && t.Kind != task.Judge {
		return ChoiceResult{}, fmt.Errorf("%w: %v", ErrWrongKind, t.Kind)
	}
	if len(t.Answers) == 0 {
		return ChoiceResult{}, errors.New("core: no answers yet")
	}
	votes := make([]quality.Vote, len(t.Answers))
	totalW := 0.0
	for i, a := range t.Answers {
		votes[i] = quality.Vote{Worker: a.WorkerID, Class: a.Choice}
		w := s.rep.Weight(a.WorkerID)
		if w < 1e-6 {
			w = 1e-6
		}
		totalW += w
	}
	class, weight, _ := quality.Weighted(votes, s.rep.Weight)
	s.emit(trace.StageAggregate, id, "", s.clock.Now(), trace.TraceID{})
	return ChoiceResult{Choice: class, Confidence: weight / totalW, Votes: len(votes)}, nil
}

// WordCount is an aggregated word vote.
type WordCount struct {
	Word  int `json:"word"`
	Count int `json:"count"`
}

// AggregateWords tallies the words submitted to a Label/Describe task,
// most supported first. It aggregates over a snapshot, so it can run while
// workers keep answering.
func (s *System) AggregateWords(id task.ID) ([]WordCount, error) {
	t, err := s.store.View(id)
	if err != nil {
		return nil, err
	}
	if t.Kind != task.Label && t.Kind != task.Describe {
		return nil, fmt.Errorf("%w: %v", ErrWrongKind, t.Kind)
	}
	counts := map[int]int{}
	for _, a := range t.Answers {
		seen := map[int]bool{}
		for _, w := range a.Words {
			if !seen[w] { // one vote per worker per word
				counts[w]++
				seen[w] = true
			}
		}
	}
	out := make([]WordCount, 0, len(counts))
	for w, c := range counts {
		out = append(out, WordCount{Word: w, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Word < out[j].Word
	})
	s.emit(trace.StageAggregate, id, "", s.clock.Now(), trace.TraceID{})
	return out, nil
}

// Stats is a snapshot of system activity.
type Stats struct {
	TasksSubmitted int64        `json:"tasks_submitted"`
	AnswersTotal   int64        `json:"answers_total"`
	GoldChecked    int64        `json:"gold_checked"`
	Queue          queue.Stats  `json:"queue"`
	StoredTasks    int          `json:"stored_tasks"`
	Quality        QualityStats `json:"quality"`
}

// Stats returns a snapshot of system activity.
func (s *System) Stats() Stats {
	return Stats{
		TasksSubmitted: s.tasksSubmitted.Value(),
		AnswersTotal:   s.answersTotal.Value(),
		GoldChecked:    s.goldChecked.Value(),
		Queue:          s.queue.Stats(),
		StoredTasks:    s.store.Len(),
		Quality:        s.QualityStats(),
	}
}
