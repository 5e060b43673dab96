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
// The recorder also holds the three stage-latency distributions the GWAP
// evaluation cares about — time-in-queue (enqueue → first lease),
// lease-to-answer (per worker), and answers-to-completion (first answer →
// done). The queue measures each from the task and lease state it already
// holds and hands it over as the stage ends (ObserveStage), so the recorder
// keeps nothing per task and every open task is measured, however many.
//
// All methods are nil-safe: a nil *Recorder records nothing and answers
// every query empty, so call sites never need a guard.
package trace

import (
	"slices"
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

// stages maps a stage to the byte a ring slot holds it as: its index.
// Index 0 is the empty stage, which also stands for any stage not listed.
var stages = [...]Stage{"", StageSubmit, StagePersist, StageEnqueue, StageLease, StageAnswer,
	StageRelease, StageExpire, StageGold, StageAggregate, StageComplete, StageCancel}

// stageCode is the index of st in stages.
func stageCode(st Stage) uint8 { return uint8(max(slices.Index(stages[:], st), 0)) }

// Event is one recorded lifecycle step. Trace, when non-zero, links the
// event to the request-scoped span tree that caused it, joining the
// per-task timeline to GET /v1/debug/spans.
type Event struct {
	Seq    uint64    `json:"seq"`
	TaskID task.ID   `json:"task_id"`
	Stage  Stage     `json:"stage"`
	At     time.Time `json:"at"`
	Worker string    `json:"worker,omitempty"`
	Trace  TraceID   `json:"trace,omitzero"`
}

// traceStripes is the number of independently locked ring stripes. Power
// of two so stripe selection is a mask.
const traceStripes = 16

// DefaultCapacity is the total event capacity a zero-configured recorder
// gets: enough for the recent history of tens of thousands of task steps
// at 64 bytes per slot.
const DefaultCapacity = 1 << 14

// slot is an Event as the ring holds it: 64 B where an Event is 88. The
// stage is its index in stages, and At is a task.Stamp, which keeps the
// instant and the zone offset in whole minutes, the part of the zone that
// the time's JSON form shows, and comes back as Stamp.Time describes. A
// monotonic clock reading is not kept.
type slot struct {
	seq    uint64
	taskID task.ID
	trace  TraceID
	worker string
	at     task.Stamp
	stage  uint8
}

func newSlot(e *Event) slot {
	return slot{taskID: e.TaskID, trace: e.Trace, worker: e.Worker, at: task.StampOf(e.At), stage: stageCode(e.Stage)}
}

// event rebuilds the Event the slot was made from.
func (s *slot) event() Event {
	return Event{Seq: s.seq, TaskID: s.taskID, Stage: stages[s.stage], At: s.at.Time(), Worker: s.worker, Trace: s.trace}
}

// stripe is one independently locked slice of the recorder: a fixed-size
// ring of slots for the task IDs that hash here.
type stripe struct {
	mu   sync.Mutex
	ring []slot // fixed capacity, len == cap once full
	next int    // ring slot the next event overwrites
	full bool

	_ [32]byte // keep adjacent stripe mutexes off one cache line
}

// Recorder is a bounded, striped ring buffer of task lifecycle events,
// plus the three stage-latency distributions.
type Recorder struct {
	seq       atomic.Uint64
	perStripe int // ring slots per stripe
	stripes   [traceStripes]stripe

	inQueue       metrics.LatencyHist // enqueue → first lease
	leaseToAnswer metrics.LatencyHist // lease → answer per worker
	toCompletion  metrics.LatencyHist // first answer → done
}

// NewRecorder returns a recorder bounded at capacity events in total
// (rounded up to a multiple of the stripe count); capacity <= 0 selects
// DefaultCapacity.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	per := (capacity + traceStripes - 1) / traceStripes
	r := &Recorder{perStripe: per}
	for i := range r.stripes {
		r.stripes[i].ring = make([]slot, 0, per)
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
// is full. Only the stages declared above are kept; any other is recorded
// as the empty stage. Nil-safe and allocation-free on the steady-state path.
func (r *Recorder) Append(e Event) {
	if r == nil {
		return
	}
	sl := newSlot(&e)
	s := r.stripeFor(e.TaskID)
	s.mu.Lock()
	// Drawn under the stripe lock: a task's events all land on one stripe,
	// so its ring order is its seq order.
	sl.seq = r.seq.Add(1)
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, sl)
	} else {
		s.full = true
		s.ring[s.next] = sl
		s.next++
		if s.next == cap(s.ring) {
			s.next = 0
		}
	}
	s.mu.Unlock()
}

// ObserveStage records one stage latency as the stage ends: StageLease
// observes time-in-queue (enqueue → first lease), StageAnswer
// lease-to-answer, StageComplete answers-to-completion (first answer →
// done); any other stage is ignored. A non-zero tr becomes the bucket's
// exemplar. The queue calls it with timestamps it already holds under its
// own lock, so the recorder keeps no per-task state. Nil-safe.
func (r *Recorder) ObserveStage(stage Stage, d time.Duration, tr TraceID) {
	if r == nil {
		return
	}
	var h *metrics.LatencyHist
	switch stage {
	case StageLease:
		h = &r.inQueue
	case StageAnswer:
		h = &r.leaseToAnswer
	case StageComplete:
		h = &r.toCompletion
	default:
		return
	}
	h.ObserveTraced(d, tr)
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
	older, newer := s.ring[:0], s.ring
	if s.full {
		older, newer = s.ring[s.next:], s.ring[:s.next]
	}
	for _, half := range [2][]slot{older, newer} {
		for i := range half {
			if half[i].taskID == id {
				out = append(out, half[i].event())
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
	return &r.inQueue, &r.leaseToAnswer, &r.toCompletion
}
