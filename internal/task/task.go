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

// Kind identifies what kind of human computation a task asks for.
type Kind int

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
type Status int

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

// Payload carries the kind-specific inputs of a task. Exactly the fields
// relevant to the Kind are meaningful; the rest stay at their zero values.
// Keeping one flat struct (rather than an interface) makes the JSON wire
// format of the dispatch service trivial and self-describing.
type Payload struct {
	ImageID int    `json:"image_id,omitempty"` // Label, Locate, Compare (first image)
	ImageB  int    `json:"image_b,omitempty"`  // Compare (second image)
	Word    int    `json:"word,omitempty"`     // Locate (object to find), Describe (concept)
	WordImg string `json:"word_img,omitempty"` // Transcribe (degraded rendering)
	Taboo   []int  `json:"taboo,omitempty"`    // Label (off-limits words)
	ClipA   int    `json:"clip_a,omitempty"`   // Judge
	ClipB   int    `json:"clip_b,omitempty"`   // Judge
}

// Task is one unit of human computation.
type Task struct {
	ID         ID      `json:"id"`
	Kind       Kind    `json:"kind"`
	Payload    Payload `json:"payload"`
	Redundancy int     `json:"redundancy"` // independent answers wanted (>= 1)
	Priority   int     `json:"priority"`   // higher is scheduled first
	Status     Status  `json:"status"`

	CreatedAt time.Time `json:"created_at"`
	DoneAt    time.Time `json:"done_at,omitempty"`

	Answers []Answer `json:"answers,omitempty"`
}

// Answer is one worker's response to a task. As with Payload, only the
// fields matching the task's Kind are meaningful.
type Answer struct {
	TaskID   ID        `json:"task_id"`
	WorkerID string    `json:"worker_id"`
	At       time.Time `json:"at"`

	Words  []int      `json:"words,omitempty"`  // Label, Describe (objects of facts)
	Box    vocab.Rect `json:"box,omitempty"`    // Locate
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
)

// New returns an Open task. It returns ErrBadRedundancy if redundancy < 1
// and ErrUnknownKind for an out-of-range kind.
func New(id ID, kind Kind, p Payload, redundancy int, now time.Time) (*Task, error) {
	if kind < 0 || kind >= numKinds {
		return nil, ErrUnknownKind
	}
	if redundancy < 1 {
		return nil, ErrBadRedundancy
	}
	return &Task{
		ID:         id,
		Kind:       kind,
		Payload:    p,
		Redundancy: redundancy,
		Status:     Open,
		CreatedAt:  now,
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

// answersCap is the capacity Answers is given when the first answer
// arrives: room for every answer the task wants, so append never grows it
// 1→2→4 and a redundancy-3 task does not end up holding four slots. Past
// eight, append's doubling takes over.
func answersCap(redundancy int) int { return max(1, min(redundancy, 8)) }

// Record validates and appends a worker's answer. When the task has
// collected Redundancy answers it transitions to Done and records DoneAt.
// Each worker may answer a given task at most once — independent judgments
// are the whole point of redundancy.
func (t *Task) Record(a Answer, now time.Time) error {
	if t.Status != Open {
		return ErrWrongStatus
	}
	if err := ValidateAnswer(t.Kind, a); err != nil {
		return err
	}
	for _, prev := range t.Answers {
		if prev.WorkerID == a.WorkerID {
			return ErrWorkerRepeat
		}
	}
	a.TaskID = t.ID
	a.At = now
	if want := answersCap(t.Redundancy); cap(t.Answers) < want {
		t.Answers = append(make([]Answer, 0, want), t.Answers...)
	}
	t.Answers = append(t.Answers, a)
	if len(t.Answers) >= t.Redundancy {
		t.Status = Done
		t.DoneAt = now
	}
	return nil
}

// View is an immutable deep copy of a Task taken at one instant. The
// dispatch read path (HTTP handlers, snapshots, the journal) serializes
// Views, never live *Task pointers, so readers can never observe — or
// race with — the queue mutating a task. View has the same fields and
// JSON encoding as Task but deliberately none of its methods.
type View Task

// View returns a deep copy of the task: the Answers slice, each answer's
// Words, and the payload's Taboo list are all copied, so the view shares
// no mutable memory with the task. Callers must hold whatever lock guards
// the task's mutations while copying (the queue and store do).
func (t *Task) View() View {
	v := View(*t)
	v.Payload.Taboo = append([]int(nil), t.Payload.Taboo...)
	if t.Answers != nil {
		v.Answers = make([]Answer, len(t.Answers))
		for i, a := range t.Answers {
			a.Words = append([]int(nil), a.Words...)
			v.Answers[i] = a
		}
	}
	return v
}

// Remaining returns how many more answers the viewed task needs.
func (v View) Remaining() int {
	if r := v.Redundancy - len(v.Answers); r > 0 {
		return r
	}
	return 0
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
	t.DoneAt = now
	return nil
}

// Cancel transitions an Open task to Canceled; canceling a finished task
// returns ErrWrongStatus.
func (t *Task) Cancel(now time.Time) error {
	if t.Status != Open {
		return ErrWrongStatus
	}
	t.Status = Canceled
	t.DoneAt = now
	return nil
}

// Remaining returns how many more answers the task needs.
func (t *Task) Remaining() int {
	r := t.Redundancy - len(t.Answers)
	if r < 0 {
		return 0
	}
	return r
}
