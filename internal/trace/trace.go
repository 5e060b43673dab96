// Package trace records the lifecycle of every task flowing through the
// dispatch core — submit → persist → enqueue → lease → answer →
// agreement → complete/cancel/expire — into a bounded, striped ring
// buffer. The recorder is the auditability substrate the dispatch service
// exposes at GET /v1/tasks/{id}/trace: cheap enough to stay on in
// production (one striped append per event, no allocation beyond the
// pre-sized ring), bounded by construction, and queryable per task.
//
// Events for one task always land on the stripe its ID hashes to, so a
// per-task query locks exactly one stripe and returns events already in
// append order. A global atomic sequence number gives every event a total
// order that survives merging stripes.
//
// The recorder also derives the three stage-latency distributions the GWAP
// evaluation cares about — time-in-queue (enqueue → first lease),
// lease-to-answer (per worker), and answers-to-completion (first answer →
// done) — from the event stream itself, under the same stripe lock the
// append already holds, so no second lock is ever taken on the hot path.
//
// All methods are nil-safe: a nil *Recorder records nothing and answers
// every query empty, so call sites never need a guard.
package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"humancomp/internal/metrics"
	"humancomp/internal/task"
)

// Stage names one step of a task's lifecycle.
type Stage string

// Lifecycle stages, in the order a healthy task visits them. Release and
// Expire interleave with Lease; Gold fires on agreement checks against a
// gold probe; Aggregate fires when a consumer reads the combined answers.
const (
	StageSubmit    Stage = "submit"
	StagePersist   Stage = "persist"
	StageEnqueue   Stage = "enqueue"
	StageLease     Stage = "lease"
	StageAnswer    Stage = "answer"
	StageRelease   Stage = "release"
	StageExpire    Stage = "expire"
	StageGold      Stage = "gold"
	StageAggregate Stage = "aggregate"
	StageComplete  Stage = "complete"
	StageCancel    Stage = "cancel"
)

// Event is one recorded lifecycle step. Trace, when non-zero, links the
// event to the request-scoped span tree that caused it, joining the
// per-task timeline to GET /v1/debug/spans.
type Event struct {
	Seq    uint64    `json:"seq"`
	TaskID task.ID   `json:"task_id"`
	Stage  Stage     `json:"stage"`
	At     time.Time `json:"at"`
	Worker string    `json:"worker,omitempty"`
	Trace  TraceID   `json:"trace,omitempty"`
}

// traceStripes is the number of independently locked ring stripes. Power
// of two so stripe selection is a mask.
const traceStripes = 16

// DefaultCapacity is the total event capacity a zero-configured recorder
// gets: enough for the recent history of tens of thousands of task steps
// at ~64 bytes per slot.
const DefaultCapacity = 1 << 14

// pending carries the per-task timestamps the stage-latency histograms are
// derived from. It lives in the stripe map only while the task is open and
// is recycled through the stripe's freelist afterwards, so steady-state
// tracing allocates nothing. The single outstanding lease of the common
// case is held inline; concurrent extra leases spill to a lazily
// allocated overflow map.
type pending struct {
	enqueuedAt  time.Time
	firstAnswer time.Time
	leased      bool // first lease observed
	// Inline slot for one outstanding lease.
	has0 bool
	w0   string
	t0   time.Time
	// Overflow for additional concurrent leases; nil until needed.
	more map[string]time.Time
}

// setLease records an outstanding lease for the worker.
func (p *pending) setLease(worker string, at time.Time) {
	if !p.has0 || p.w0 == worker {
		p.has0, p.w0, p.t0 = true, worker, at
		return
	}
	if p.more == nil {
		p.more = make(map[string]time.Time, 2)
	}
	p.more[worker] = at
}

// takeLease removes and returns the worker's outstanding lease time.
func (p *pending) takeLease(worker string) (time.Time, bool) {
	if p.has0 && p.w0 == worker {
		p.has0 = false
		return p.t0, true
	}
	if at, ok := p.more[worker]; ok {
		delete(p.more, worker)
		return at, true
	}
	return time.Time{}, false
}

// reset clears the entry for reuse, keeping the overflow map's storage.
func (p *pending) reset() {
	for w := range p.more {
		delete(p.more, w)
	}
	*p = pending{more: p.more}
}

// stripe is one independently locked slice of the recorder: a fixed-size
// ring of events plus the open-task latency table for the task IDs that
// hash here.
type stripe struct {
	mu   sync.Mutex
	ring []Event // fixed capacity, len == cap once full
	next int     // ring slot the next event overwrites
	full bool
	open map[task.ID]*pending
	free []*pending // recycled pending entries, bounded by maxPending

	_ [32]byte // keep adjacent stripe mutexes off one cache line
}

// getPending returns a cleared entry, reusing a recycled one when possible.
func (s *stripe) getPending() *pending {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free = s.free[:n-1]
		return p
	}
	return &pending{}
}

// putPending recycles an entry closed by complete/cancel.
func (s *stripe) putPending(p *pending, limit int) {
	if len(s.free) < limit {
		p.reset()
		s.free = append(s.free, p)
	}
}

// Recorder is a bounded, striped ring buffer of task lifecycle events.
type Recorder struct {
	seq        atomic.Uint64
	perStripe  int // ring slots per stripe
	maxPending int // open-task latency entries per stripe
	stripes    [traceStripes]stripe

	inQueue       *metrics.LatencyHist // enqueue → first lease
	leaseToAnswer *metrics.LatencyHist // lease → answer per worker
	toCompletion  *metrics.LatencyHist // first answer → done

	// Exemplars pair each stage histogram with the trace ID of the most
	// recent observation per bucket, fed from Event.Trace.
	exInQueue       metrics.ExemplarSet
	exLeaseToAnswer metrics.ExemplarSet
	exToCompletion  metrics.ExemplarSet
}

// NewRecorder returns a recorder bounded at capacity events in total
// (rounded up to a multiple of the stripe count); capacity <= 0 selects
// DefaultCapacity.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	per := (capacity + traceStripes - 1) / traceStripes
	r := &Recorder{
		perStripe:     per,
		maxPending:    per,
		inQueue:       new(metrics.LatencyHist),
		leaseToAnswer: new(metrics.LatencyHist),
		toCompletion:  new(metrics.LatencyHist),
	}
	for i := range r.stripes {
		r.stripes[i].ring = make([]Event, 0, per)
		r.stripes[i].open = make(map[task.ID]*pending)
	}
	return r
}

// Capacity returns the total number of ring slots, 0 on a nil recorder.
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return r.perStripe * traceStripes
}

func (r *Recorder) stripeFor(id task.ID) *stripe {
	return &r.stripes[uint64(id)&(traceStripes-1)]
}

// Append records one lifecycle event, stamping its global sequence number.
// The oldest event on the owning stripe is evicted once the stripe's ring
// is full. Nil-safe and allocation-free on the steady-state path.
func (r *Recorder) Append(e Event) {
	if r == nil {
		return
	}
	s := r.stripeFor(e.TaskID)
	s.mu.Lock()
	// Drawn under the stripe lock: a task's events all land on one stripe,
	// so its ring order is its seq order.
	e.Seq = r.seq.Add(1)
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, e)
	} else {
		s.full = true
		s.ring[s.next] = e
		s.next++
		if s.next == cap(s.ring) {
			s.next = 0
		}
	}
	r.observeLocked(s, e)
	s.mu.Unlock()
}

// observeLocked updates the open-task latency table for e and feeds the
// stage histograms. Called with the stripe lock held.
func (r *Recorder) observeLocked(s *stripe, e Event) {
	switch e.Stage {
	case StageEnqueue:
		if len(s.open) < r.maxPending {
			p := s.getPending()
			p.enqueuedAt = e.At
			s.open[e.TaskID] = p
		}
	case StageLease:
		p := s.open[e.TaskID]
		if p == nil {
			return
		}
		if !p.leased {
			p.leased = true
			d := e.At.Sub(p.enqueuedAt)
			r.inQueue.Observe(d)
			if !e.Trace.IsZero() {
				r.exInQueue.Observe(d, e.Trace.Hex())
			}
		}
		p.setLease(e.Worker, e.At)
	case StageAnswer:
		p := s.open[e.TaskID]
		if p == nil {
			return
		}
		if at, ok := p.takeLease(e.Worker); ok {
			d := e.At.Sub(at)
			r.leaseToAnswer.Observe(d)
			if !e.Trace.IsZero() {
				r.exLeaseToAnswer.Observe(d, e.Trace.Hex())
			}
		}
		if p.firstAnswer.IsZero() {
			p.firstAnswer = e.At
		}
	case StageRelease, StageExpire:
		if p := s.open[e.TaskID]; p != nil {
			p.takeLease(e.Worker)
		}
	case StageComplete:
		if p := s.open[e.TaskID]; p != nil {
			if !p.firstAnswer.IsZero() {
				d := e.At.Sub(p.firstAnswer)
				r.toCompletion.Observe(d)
				if !e.Trace.IsZero() {
					r.exToCompletion.Observe(d, e.Trace.Hex())
				}
			}
			delete(s.open, e.TaskID)
			s.putPending(p, r.maxPending)
		}
	case StageCancel:
		if p := s.open[e.TaskID]; p != nil {
			delete(s.open, e.TaskID)
			s.putPending(p, r.maxPending)
		}
	}
}

// TaskEvents returns every retained event for the task, oldest first.
// Eviction trims from the front of a task's timeline, never the middle, so
// what remains is always a contiguous suffix of the true lifecycle.
func (r *Recorder) TaskEvents(id task.ID) []Event {
	if r == nil {
		return nil
	}
	s := r.stripeFor(id)
	var out []Event
	s.mu.Lock()
	// Ring order is append order: [next, len) is the older half once the
	// ring has wrapped, [0, next) the newer.
	if s.full {
		for _, e := range s.ring[s.next:] {
			if e.TaskID == id {
				out = append(out, e)
			}
		}
		for _, e := range s.ring[:s.next] {
			if e.TaskID == id {
				out = append(out, e)
			}
		}
	} else {
		for _, e := range s.ring {
			if e.TaskID == id {
				out = append(out, e)
			}
		}
	}
	s.mu.Unlock()
	return out
}

// Len returns the number of events currently retained across all stripes.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		n += len(s.ring)
		s.mu.Unlock()
	}
	return n
}

// Latencies exposes the stage-latency histograms: time-in-queue (enqueue
// → first lease), lease-to-answer, and answers-to-completion (first
// answer → done). Nil on a nil recorder.
func (r *Recorder) Latencies() (inQueue, leaseToAnswer, answersToCompletion *metrics.LatencyHist) {
	if r == nil {
		return nil, nil, nil
	}
	return r.inQueue, r.leaseToAnswer, r.toCompletion
}

// StageExemplars exposes the exemplar sets paired with the stage
// histograms, in the same order as Latencies. Nil on a nil recorder.
func (r *Recorder) StageExemplars() (inQueue, leaseToAnswer, answersToCompletion *metrics.ExemplarSet) {
	if r == nil {
		return nil, nil, nil
	}
	return &r.exInQueue, &r.exLeaseToAnswer, &r.exToCompletion
}
