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
	// answer, cancel, early finish) before the call returns success — the
	// ack barrier that lets a crashed service recover snapshot + journal
	// tail. *store.WAL satisfies it.
	Journal Journal
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

// Journal is the event sink a System writes through, in the queue's two
// halves (see queue.Journal): a write, which for answers, cancels and
// early finishes runs in the queue critical section that applied them, so
// log order is apply order, and a wait until the write is durable, which
// never does. A traced request records them as its wal.append and
// wal.fsync spans. *store.WAL satisfies it.
type Journal = queue.Journal

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

	trace *trace.Recorder  // lifecycle event ring; nil when disabled
	spans *trace.SpanPlane // request-scoped span trees; nil when disabled
	gwap  *metrics.GWAP    // live play metrics derived from leases
	qp    *qualityPlane    // streaming quality plane; nil when disabled

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
	// The queue stores what it enqueues and changes a task only through
	// store.Apply, under the store's write lock, so every store-side view
	// read (handlers, snapshots, aggregators) is race-free under the read
	// lock; it journals each change before it releases its own.
	st := store.New()
	s := &System{
		cfg:   cfg,
		store: st,
		queue: queue.NewLocked(cfg.LeaseTTL, st, cfg.Journal),
		rep:   quality.NewReputation(cfg.ReputationPrior, cfg.ReputationWeight),
		clock: cfg.Clock,
		gold:  make(map[task.ID]task.Answer),
		gwap:  metrics.NewGWAP(),
	}
	// Lifecycle tracing is on by default: the ring is bounded and every
	// append takes one lock, cheap enough for the hot path. A
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

// SubmitTask is SubmitTaskCtx without a request context.
func (s *System) SubmitTask(kind task.Kind, p task.Payload, redundancy, priority int) (task.ID, error) {
	return s.SubmitTaskCtx(context.Background(), kind, p, redundancy, priority)
}

// SubmitTaskCtx creates and enqueues a task, returning its ID: a
// SubmitBatchCtx of one under the span handle carried by ctx, inside a
// core.submit child span that is marked failed when the submit is. A
// context without a handle records nothing.
func (s *System) SubmitTaskCtx(ctx context.Context, kind task.Kind, p task.Payload, redundancy, priority int) (task.ID, error) {
	return s.submitOne(ctx, SubmitSpec{Kind: kind, Payload: p, Redundancy: redundancy, Priority: priority})
}

// SubmitGold is SubmitGoldCtx without a request context.
func (s *System) SubmitGold(kind task.Kind, p task.Payload, redundancy, priority int, expected task.Answer) (task.ID, error) {
	return s.SubmitGoldCtx(context.Background(), kind, p, redundancy, priority, expected)
}

// SubmitGoldCtx creates a gold probe: a task whose answer is already known.
// Workers cannot tell it apart from real work; their answers update their
// reputation instead of producing new results. The expected answer is
// validated like any worker answer — a malformed expectation would score
// every honest worker wrong and silently poison reputations.
func (s *System) SubmitGoldCtx(ctx context.Context, kind task.Kind, p task.Payload, redundancy, priority int, expected task.Answer) (task.ID, error) {
	return s.submitOne(ctx, SubmitSpec{Kind: kind, Payload: p, Redundancy: redundancy, Priority: priority, Gold: true, Expected: expected})
}

// submitOne runs submitAll on a batch of one under the single route's op
// span; spec and outcome stay on the stack.
func (s *System) submitOne(ctx context.Context, spec SubmitSpec) (task.ID, error) {
	h, ref := startOp(trace.FromContext(ctx), "core.submit")
	var out [1]SubmitOutcome
	s.submitAll(h, []SubmitSpec{spec}, out[:])
	endOp(h, ref, out[0].Err)
	return out[0].ID, out[0].Err
}

// startOp opens the core-op child span named op and rebases the handle
// under it, so every span the callee records nests beneath the op span.
// The invalid handle — the untraced caller — passes through untouched.
func startOp(h trace.Handle, op string) (trace.Handle, trace.SpanRef) {
	ref := h.StartSpan(op, trace.NoSpan)
	return h.Under(ref), ref
}

// endOp closes the op span opened by startOp, marking it failed when err
// is non-nil.
func endOp(h trace.Handle, ref trace.SpanRef, err error) {
	if err != nil {
		h.FailSpan(ref, err.Error())
	} else {
		h.EndSpan(ref)
	}
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

// SubmitBatch is SubmitBatchCtx without a request context.
func (s *System) SubmitBatch(specs []SubmitSpec) []SubmitOutcome {
	return s.SubmitBatchCtx(context.Background(), specs)
}

// SubmitBatchCtx creates and enqueues many tasks in one pass, inside one
// core.submit_batch child span of the handle carried by ctx: the store and
// queue locks are taken once per batch instead of once per task, and all
// journal events are appended as one group (one write, one fsync under
// sync-always). The returned slice is index-aligned with specs; an invalid
// item never fails the rest. When the journal refuses the group no task in
// it is stored or enqueued, so store, queue and journal never disagree
// about which tasks exist.
func (s *System) SubmitBatchCtx(ctx context.Context, specs []SubmitSpec) []SubmitOutcome {
	h, ref := startOp(trace.FromContext(ctx), "core.submit_batch")
	out := make([]SubmitOutcome, len(specs))
	s.submitAll(h, specs, out)
	endOp(h, ref, nil)
	return out
}

// submitItem is one valid task on its way through submitAll.
type submitItem struct {
	at   int          // index of its spec and outcome
	t    *task.Task   // the live task, owned by the queue once enqueued
	gold *task.Answer // expected answer of a gold probe
}

// submitAll is the one submit body, for a batch of any size (a single
// submit is a batch of one): validate → journal → register gold → store and
// enqueue, the last in one hold of the queue lock. out is index-aligned
// with specs. A task is on the log before any worker can lease it, or
// cancel it, so no answer or cancel can be journalled ahead of its task,
// and the journal event reads the task itself: nothing else holds it yet. A
// gold expectation rides in the journal event, so the probe survives
// replay, and is registered *before* its task becomes leasable — a worker
// who leased and answered the probe between enqueue and registration would
// escape scoring.
func (s *System) submitAll(h trace.Handle, specs []SubmitSpec, out []SubmitOutcome) {
	if s.readOnly.Load() {
		for i := range out {
			out[i].Err = ErrReadOnly
		}
		return
	}
	tr, now := h.Trace(), s.clock.Now()
	items := make([]submitItem, 0, len(specs))
	for i := range specs {
		sp := &specs[i]
		it := submitItem{at: i}
		if sp.Gold {
			// A malformed expectation would score every honest worker wrong;
			// reject it before the task exists anywhere.
			if out[i].Err = task.ValidateAnswer(sp.Kind, sp.Expected); out[i].Err != nil {
				continue
			}
			expected := sp.Expected
			it.gold = &expected
		}
		if it.t, out[i].Err = task.New(s.store.NextID(), sp.Kind, sp.Payload, sp.Redundancy, now); out[i].Err != nil {
			continue
		}
		it.t.Priority = sp.Priority
		s.emit(trace.StageSubmit, it.t.ID, "", now, tr)
		items = append(items, it)
	}
	if len(items) == 0 {
		return
	}
	var events []store.Event
	if s.cfg.Journal != nil { // a system that journals nothing does not build the group
		events = make([]store.Event, len(items))
		for j, it := range items {
			events[j] = store.Event{Kind: store.EventSubmit, At: now, Task: it.t, Gold: it.gold}
		}
	}
	if err := s.queue.Journal(h, events); err != nil {
		// Unacknowledged and unjournaled: the tasks exist nowhere else yet.
		for _, it := range items {
			out[it.at].Err = err
		}
		return
	}
	var few [8]*task.Task // a batch this small keeps its task list on the stack
	tasks := few[:0]
	for j := range items {
		tasks = append(tasks, items[j].t)
	}
	s.setGold(items)
	// The queue refuses only a task that is not open or whose ID the store
	// holds, and every task here is open under an ID fresh from NextID.
	s.queue.AddBatchTraced(tasks, h)
	for _, it := range items {
		out[it.at].ID = it.t.ID
		s.tasksSubmitted.Inc()
	}
}

// setGold registers the gold expectations among items, taking the gold
// lock only when there is one.
func (s *System) setGold(items []submitItem) {
	locked := false
	for j := range items {
		if items[j].gold == nil {
			continue
		}
		if !locked {
			s.mu.Lock()
			locked = true
		}
		s.gold[items[j].t.ID] = *items[j].gold
	}
	if locked {
		s.mu.Unlock()
	}
}

// emit appends one lifecycle event to the trace recorder, if tracing is on.
// A non-zero tr links the event to the request-scoped span tree.
func (s *System) emit(stage trace.Stage, id task.ID, worker string, at time.Time, tr trace.TraceID) {
	s.trace.Append(trace.Event{TaskID: id, Stage: stage, At: at, Worker: worker, Trace: tr})
}

// IsGold reports whether id is a gold probe.
func (s *System) IsGold(id task.ID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.gold[id]
	return ok
}

// NextTask is NextTaskCtx without a request context.
func (s *System) NextTask(workerID string) (task.View, queue.LeaseID, error) {
	return s.NextTaskCtx(context.Background(), workerID)
}

// NextTaskCtx leases the best available task to workerID, returning an
// immutable snapshot of it, or queue.ErrEmpty when nothing is available.
// Under the span handle carried by ctx the lease runs inside a core.lease
// child span with the queue's lock wait recorded beneath it.
// queue.ErrEmpty does not mark the span failed — an empty queue is an
// answer, not an error.
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

// LeaseBatch is LeaseBatchCtx without a request context.
func (s *System) LeaseBatch(workerID string, max int) []queue.LeaseGrant {
	return s.LeaseBatchCtx(context.Background(), workerID, max)
}

// LeaseBatchCtx leases up to max available tasks to workerID in one call
// (one hold of the queue lock), inside one core.lease_batch child span of
// the handle carried by ctx. It returns however many grants were available,
// best first; an empty batch is not an error.
func (s *System) LeaseBatchCtx(ctx context.Context, workerID string, max int) []queue.LeaseGrant {
	if workerID == "" || s.readOnly.Load() {
		return nil
	}
	h, ref := startOp(trace.FromContext(ctx), "core.lease_batch")
	out := s.queue.LeaseBatchTraced(workerID, max, s.clock.Now(), h)
	endOp(h, ref, nil)
	return out
}

// SubmitAnswer is SubmitAnswerCtx without a request context.
func (s *System) SubmitAnswer(lease queue.LeaseID, a task.Answer) error {
	return s.SubmitAnswerCtx(context.Background(), lease, a)
}

// SubmitAnswerCtx records the leaseholder's answer: an
// AnswerBatchDetailedCtx of one under the span handle carried by ctx,
// inside a core.answer child span that is marked failed when the answer
// is, with queue.lockwait, wal.append/wal.fsync and quality.update
// children beneath it.
func (s *System) SubmitAnswerCtx(ctx context.Context, lease queue.LeaseID, a task.Answer) error {
	h, ref := startOp(trace.FromContext(ctx), "core.answer")
	var out [1]AnswerOutcome
	s.answerAll(h, []queue.CompleteItem{{Lease: lease, Answer: a}}, out[:])
	endOp(h, ref, out[0].Err)
	return out[0].Err
}

// AnswerBatch records many lease answers in one call: the queue takes its
// lock once per batch and writes all answer events to the journal as one
// group before it releases it. The returned slice is index-aligned with
// items; one bad item (unknown lease, repeat worker) never fails the rest.
// When the journal refuses the group, every item in it reports that error,
// exactly as a single SubmitAnswer would.
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

// AnswerBatchDetailed is AnswerBatchDetailedCtx without a request context.
func (s *System) AnswerBatchDetailed(items []queue.CompleteItem) []AnswerOutcome {
	return s.AnswerBatchDetailedCtx(context.Background(), items)
}

// AnswerBatchDetailedCtx is AnswerBatch returning per-item outcomes with
// the quality plane's posterior view of each answered task; the batch runs
// inside one core.answer_batch child span of the handle carried by ctx.
func (s *System) AnswerBatchDetailedCtx(ctx context.Context, items []queue.CompleteItem) []AnswerOutcome {
	h, ref := startOp(trace.FromContext(ctx), "core.answer_batch")
	out := make([]AnswerOutcome, len(items))
	s.answerAll(h, items, out)
	endOp(h, ref, nil)
	return out
}

// answerAll is the one answer body, for a batch of any size (a single
// answer is a batch of one): record and journal in the queue → count,
// score gold, feed the quality plane. out is index-aligned with items. The
// gold check uses the answer the queue returned by value — core never
// re-reads the task's answer list, so two interleaved submissions can
// never credit each other's answers. The pass over the acknowledged
// answers is one quality.update span (attr: answers acknowledged),
// recorded only when there were any.
func (s *System) answerAll(h trace.Handle, items []queue.CompleteItem, out []AnswerOutcome) {
	if s.readOnly.Load() {
		for i := range out {
			out[i].Err = ErrReadOnly
		}
		return
	}
	now := s.clock.Now()
	recorded := s.queue.CompleteBatchTraced(items, now, h)
	acked := 0
	for i := range recorded {
		if out[i].Err = recorded[i].Err; out[i].Err == nil {
			acked++
		}
	}
	if acked == 0 {
		return
	}
	qs, tr := h.Now(), h.Trace()
	for i := range recorded {
		if out[i].Err != nil {
			continue
		}
		res := recorded[i].Result
		s.answersTotal.Inc()
		// Live GWAP accounting: the lease-to-answer span is this worker's play
		// time for the round, and a task reaching redundancy is one solved
		// problem instance. Throughput, ALP and expected contribution on the
		// admin /metrics endpoint derive from exactly these two records. A
		// clock reading before the lease (a stepped wall clock) counts as
		// zero play.
		s.gwap.RecordSession(res.Answer.WorkerID, max(0, now.Sub(res.LeasedAt)))
		if res.Status == task.Done {
			s.gwap.RecordOutputs(1)
		}
		s.checkGold(res, tr)
		conf, post, early := s.observeAnswer(res, now)
		out[i] = AnswerOutcome{TaskID: res.TaskID, Status: res.Status, Confidence: conf, Posterior: post, EarlyDone: early}
		if early {
			out[i].Status = task.Done
		}
	}
	h.ObserveSince("quality.update", trace.NoSpan, qs, int64(acked))
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
	return s.queue.Cancel(id, s.clock.Now())
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

// LockCounts returns the lock-acquisition counts of the queue and the
// store, the raw material of the contention gauges on the admin /metrics
// endpoint.
func (s *System) LockCounts() (queueLocks, storeLocks int64) {
	return s.queue.LockCount(), s.store.LockCount()
}

// ShardLockCounts is LockCounts as one-element slices. Kept for bench/
// only, which is frozen while this lands; the next benchmark PR calls
// LockCounts and deletes it.
func (s *System) ShardLockCounts() (queueLocks, storeLocks []int64) {
	q, st := s.LockCounts()
	return []int64{q}, []int64{st}
}

// RequeueOpen enqueues every open task in the store. It is used after a
// snapshot restore or WAL replay, and at promotion, to rebuild the dispatch
// queue; on a queue that already holds open tasks it does nothing. The
// store's list of open tasks becomes the queue's heap: nothing is copied.
func (s *System) RequeueOpen() { s.queue.RequeueOpen() }

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
