// Package task defines the unit of human computation: a Task describing
// work a human can do in seconds (label an image, locate an object,
// transcribe a word, compare two items), the Answer a worker returns, and
// the lifecycle both move through. The queue, dispatch service and games
// all speak in these types.
package task

import (
	"errors"
	"fmt"
	"time"

	"humancomp/internal/vocab"
)

// Kind identifies what kind of human computation a task asks for. It is a
// byte, as Status is, so the two share one word of a stored Task.
type Kind uint8

// The task kinds used by the GWAPs and the reCAPTCHA pipeline.
const (
	// Label asks for free-text tags describing an image (ESP Game).
	Label Kind = iota
	// Locate asks where in an image a named object is (Peekaboom).
	Locate
	// Describe asks for facts about a concept (Verbosity).
	Describe
	// Transcribe asks for the text in a distorted word image (reCAPTCHA).
	Transcribe
	// Compare asks which of two items the worker prefers (Matchin).
	Compare
	// Judge asks whether two descriptions refer to the same item (TagATune).
	Judge
	numKinds
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case Label:
		return "label"
	case Locate:
		return "locate"
	case Describe:
		return "describe"
	case Transcribe:
		return "transcribe"
	case Compare:
		return "compare"
	case Judge:
		return "judge"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind returns the Kind named by s, or an error.
func ParseKind(s string) (Kind, error) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("task: unknown kind %q", s)
}

// ID uniquely identifies a task within one system instance.
type ID int64

// Status is a task's position in its lifecycle.
type Status uint8

// Task lifecycle states. Tasks move Open → Done or Open → Canceled;
// leasing is tracked by the queue, not by the task itself.
const (
	Open Status = iota
	Done
	Canceled
)

// String returns the lowercase name of the status.
func (s Status) String() string {
	switch s {
	case Open:
		return "open"
	case Done:
		return "done"
	case Canceled:
		return "canceled"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Payload carries the kind-specific inputs of a task; only the fields its
// Kind uses are set. ImageID and ImageB are held in place: they are all the
// image kinds a backlog is mostly made of (Label, Compare) need. The inputs
// only the other kinds use are behind Detail, nil on a task that has none,
// so a stored image task does not carry them as zeros. encoding/json
// promotes Detail's fields into the payload object, so the wire format is
// one flat, self-describing object either way, and a payload that sets a
// Detail field decodes with a Detail.
type Payload struct {
	ImageID int `json:"image_id,omitempty"` // Label, Locate, Compare (first image)
	ImageB  int `json:"image_b,omitempty"`  // Compare (second image)
	*Detail
}

// Detail holds the payload inputs only some kinds use: the Word of Locate
// and Describe, Transcribe's WordImg, Judge's two clips and a Label task's
// taboo list. Compare uses none of them, nor does a Label task without
// taboo words. A task owns its Detail once submitted.
type Detail struct {
	Word    int    `json:"word,omitempty"`     // Locate (object to find), Describe (concept)
	WordImg string `json:"word_img,omitempty"` // Transcribe (degraded rendering)
	Taboo   []int  `json:"taboo,omitempty"`    // Label (off-limits words)
	ClipA   int    `json:"clip_a,omitempty"`   // Judge
	ClipB   int    `json:"clip_b,omitempty"`   // Judge
}

// Task is one unit of human computation: 64 B, the runtime's 64-B size
// class, in this order. ID is one word. Kind, Status, Redundancy and the
// 11-byte CreatedAt fill the next two. Payload is three words and Priority
// one. The last word points to what only an answered or ended task holds,
// its DoneAt and its answers, and is nil until the task's first answer,
// cancel or early finish: an open task in a backlog carries none of it.
//
// Its JSON is the task codec's (codec.go): the fields' names in the
// encoding, in order, are id, kind, status, created_at, done_at, payload,
// redundancy, priority and answers, with done_at left out while DoneAt is
// zero and answers while there are none.
type Task struct {
	ID         ID
	Kind       Kind
	Status     Status
	Redundancy uint16 // independent answers wanted, 1 to MaxRedundancy
	CreatedAt  Stamp
	Payload    Payload
	Priority   int // higher is scheduled first

	end *ended
}

// MaxRedundancy is the most answers a task can ask for: its Redundancy is
// 16 bits.
const MaxRedundancy = 1<<16 - 1

// ended is what a task holds once it has an answer or has ended: the time
// it ended, and its answers. It is allocated together with room for the
// answers the task wants (see newEnded).
type ended struct {
	doneAt  Stamp
	answers []Answer
}

// withRoom is an ended record and the array its answers start out in, as
// one allocation.
type withRoom[A any] struct {
	ended
	room A
}

// newEnded returns an ended record with room for n answers: one
// allocation for up to eight.
func newEnded(n int) *ended {
	switch n {
	case 0:
		return new(ended)
	case 1:
		r := new(withRoom[[1]Answer])
		r.answers = r.room[:0]
		return &r.ended
	case 2:
		r := new(withRoom[[2]Answer])
		r.answers = r.room[:0]
		return &r.ended
	case 3:
		r := new(withRoom[[3]Answer])
		r.answers = r.room[:0]
		return &r.ended
	case 4:
		r := new(withRoom[[4]Answer])
		r.answers = r.room[:0]
		return &r.ended
	case 5:
		r := new(withRoom[[5]Answer])
		r.answers = r.room[:0]
		return &r.ended
	case 6:
		r := new(withRoom[[6]Answer])
		r.answers = r.room[:0]
		return &r.ended
	case 7:
		r := new(withRoom[[7]Answer])
		r.answers = r.room[:0]
		return &r.ended
	case 8:
		r := new(withRoom[[8]Answer])
		r.answers = r.room[:0]
		return &r.ended
	default:
		return &ended{answers: make([]Answer, 0, n)}
	}
}

// Answers returns the answers the task holds, oldest first. The slice is
// the task's own: it is for reading under whatever guards the task.
func (t *Task) Answers() []Answer {
	if t.end == nil {
		return nil
	}
	return t.end.answers
}

// DoneAt returns when the task was done or canceled: the zero Stamp while
// it is open.
func (t *Task) DoneAt() Stamp {
	if t.end == nil {
		return Stamp{}
	}
	return t.end.doneAt
}

// SetEnded gives t the given DoneAt and a copy of answers, as a decoded
// record does: for building a task in a given state without going through
// its lifecycle. The answers' word lists are shared, not copied.
func (t *Task) SetEnded(doneAt Stamp, answers []Answer) {
	switch {
	case len(answers) > 0:
		t.end = newAnswered(t.Redundancy)
	case !doneAt.IsZero():
		t.end = newEnded(0)
	default:
		t.end = nil
		return
	}
	t.end.doneAt = doneAt
	t.end.answers = append(t.end.answers, answers...)
}

// Answer is one worker's response to a task. As with Payload, only the
// fields matching the task's Kind are meaningful.
type Answer struct {
	TaskID   ID     `json:"task_id"`
	WorkerID string `json:"worker_id"`
	At       Stamp  `json:"at"`

	Words  []int      `json:"words,omitempty"`  // Label, Describe (objects of facts)
	Box    vocab.Rect `json:"box,omitzero"`     // Locate
	Text   string     `json:"text,omitempty"`   // Transcribe
	Choice int        `json:"choice,omitempty"` // Compare (0 or 1), Judge (0 same / 1 different)
}

// Validation errors returned by Record and the dispatch service.
var (
	ErrWrongStatus   = errors.New("task: not open")
	ErrEmptyAnswer   = errors.New("task: answer carries no content for its kind")
	ErrBadChoice     = errors.New("task: choice out of range for its kind")
	ErrWorkerRepeat  = errors.New("task: worker already answered this task")
	ErrBadRedundancy = errors.New("task: redundancy must be >= 1")
	ErrUnknownKind   = errors.New("task: unknown kind")

	// errTooRedundant is ErrBadRedundancy for a task asking for more than
	// MaxRedundancy answers.
	errTooRedundant = fmt.Errorf("%w and <= %d", ErrBadRedundancy, MaxRedundancy)
)

// New returns an Open task. It returns ErrBadRedundancy if redundancy is
// not between 1 and MaxRedundancy, and ErrUnknownKind for an out-of-range
// kind. The task keeps a copy of p's Detail, so the caller may reuse its
// own, with an empty taboo list made nil; a Detail that sets nothing at all
// is not kept: the task has none, as it will after a round trip through its
// encoding, which omits every empty field. The copy shares the taboo list's
// elements with the caller.
func New(id ID, kind Kind, p Payload, redundancy int, now time.Time) (*Task, error) {
	if kind >= numKinds {
		return nil, ErrUnknownKind
	}
	if redundancy < 1 {
		return nil, ErrBadRedundancy
	}
	if redundancy > MaxRedundancy {
		return nil, errTooRedundant
	}
	if p.Detail != nil {
		d := *p.Detail
		if len(d.Taboo) == 0 {
			d.Taboo = nil
		}
		p.Detail = nil
		if d.Word != 0 || d.WordImg != "" || d.Taboo != nil || d.ClipA != 0 || d.ClipB != 0 {
			p.Detail = &d
		}
	}
	return &Task{
		ID:         id,
		Kind:       kind,
		Status:     Open,
		Payload:    p,
		Redundancy: uint16(redundancy),
		CreatedAt:  StampOf(now),
	}, nil
}

// ValidateAnswer checks that a carries content appropriate for kind. A
// Choice outside the kind's label space is ErrBadChoice (not merely empty):
// it is a malformed vote that must never reach aggregation. Exposed so the
// ingress path can reject a poisoned answer — including a gold task's
// expected answer — before it is journaled or recorded.
func ValidateAnswer(kind Kind, a Answer) error {
	switch kind {
	case Label, Describe:
		if len(a.Words) == 0 {
			return ErrEmptyAnswer
		}
	case Locate:
		if a.Box.Area() == 0 {
			return ErrEmptyAnswer
		}
	case Transcribe:
		if a.Text == "" {
			return ErrEmptyAnswer
		}
	case Compare, Judge:
		if a.Choice != 0 && a.Choice != 1 {
			return ErrBadChoice
		}
	}
	return nil
}

// newAnswered returns the ended record a task gets with its first answer:
// room for every answer it wants in the same allocation, so append never
// grows it 1→2→4 and a redundancy-3 task does not end up holding four
// slots. Past eight, the answers start in an array of eight of their own
// and append's doubling takes over, leaving no room stranded in the
// record once they outgrow it.
func newAnswered(redundancy uint16) *ended {
	if redundancy > 8 {
		return &ended{answers: make([]Answer, 0, 8)}
	}
	return newEnded(max(1, int(redundancy)))
}

// Record validates and appends a worker's answer, allocating the task's
// ended record at the first. When the task has collected Redundancy
// answers it transitions to Done and records DoneAt.
// Each worker may answer a given task at most once — independent judgments
// are the whole point of redundancy.
func (t *Task) Record(a Answer, now time.Time) error {
	if t.Status != Open {
		return ErrWrongStatus
	}
	if err := ValidateAnswer(t.Kind, a); err != nil {
		return err
	}
	for _, prev := range t.Answers() {
		if prev.WorkerID == a.WorkerID {
			return ErrWorkerRepeat
		}
	}
	a.TaskID = t.ID
	a.At = StampOf(now)
	if t.end == nil {
		t.end = newAnswered(t.Redundancy)
	}
	t.end.answers = append(t.end.answers, a)
	if len(t.end.answers) >= int(t.Redundancy) {
		t.Status = Done
		t.end.doneAt = a.At
	}
	return nil
}

// View is an immutable deep copy of a Task taken at one instant. The
// dispatch read path (HTTP handlers, snapshots, the journal) serializes
// Views, never live *Task pointers, so readers can never observe — or
// race with — the queue mutating a task. View has the same fields and
// JSON encoding as Task, and of its methods only the ones that read.
type View Task

// Answers returns the answers the view holds, oldest first.
func (v View) Answers() []Answer { return (*Task)(&v).Answers() }

// Remaining returns how many more answers the task needs.
func (v View) Remaining() int { return (*Task)(&v).Remaining() }

// View returns a deep copy of the task: its answers, each answer's
// Words, the payload's Detail and its Taboo list are all copied, so the
// view shares no mutable memory with the task. Callers must hold whatever
// lock guards the task's mutations while copying (the queue and store do).
func (t *Task) View() View {
	var d *Detail
	if t.Payload.Detail != nil {
		d = new(Detail)
	}
	return t.ViewIn(d)
}

// ViewIn is View with the copy of the payload's Detail made in *d, which
// must not be nil if the task has a Detail; d is unused if it has none. A
// caller that allocates something for each view anyway (the queue's lease)
// holds the copy in that allocation, and the view costs one less.
func (t *Task) ViewIn(d *Detail) View {
	v := View(*t)
	if t.Payload.Detail != nil {
		*d = *t.Payload.Detail
		d.Taboo = append([]int(nil), d.Taboo...)
		v.Payload.Detail = d
	}
	if t.end != nil {
		v.end = newEnded(len(t.end.answers))
		v.end.doneAt = t.end.doneAt
		for _, a := range t.end.answers {
			a.Words = append([]int(nil), a.Words...)
			v.end.answers = append(v.end.answers, a)
		}
	}
	return v
}

// ensureEnded returns the task's ended record, allocating one without room
// for answers if it has none: the one a task that ends before its first
// answer gets.
func (t *Task) ensureEnded() *ended {
	if t.end == nil {
		t.end = newEnded(0)
	}
	return t.end
}

// Finish transitions an Open task to Done before it has collected its full
// redundancy — the quality plane's early-completion path, taken when the
// posterior confidence over the answers already in hand crosses the
// configured target. Finishing a non-open task returns ErrWrongStatus.
func (t *Task) Finish(now time.Time) error {
	if t.Status != Open {
		return ErrWrongStatus
	}
	t.Status = Done
	t.ensureEnded().doneAt = StampOf(now)
	return nil
}

// Cancel transitions an Open task to Canceled; canceling a finished task
// returns ErrWrongStatus.
func (t *Task) Cancel(now time.Time) error {
	if t.Status != Open {
		return ErrWrongStatus
	}
	t.Status = Canceled
	t.ensureEnded().doneAt = StampOf(now)
	return nil
}

// Remaining returns how many more answers the task needs.
func (t *Task) Remaining() int {
	r := int(t.Redundancy) - len(t.Answers())
	if r < 0 {
		return 0
	}
	return r
}
