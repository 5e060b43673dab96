package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"reflect"
	"testing"
	"time"

	"humancomp/internal/task"
	"humancomp/internal/vocab"
)

// The record shapes written before today's, the same fields in other
// orders. stampsLastTask is the task before its times moved up beside its
// status and a zero done_at was left out; statusLastTask the one before
// that, when the status came after the priority and every answer carried
// its box, empty or not.
type (
	stampsLastTask struct {
		ID         task.ID       `json:"id"`
		Kind       task.Kind     `json:"kind"`
		Status     task.Status   `json:"status"`
		Payload    task.Payload  `json:"payload"`
		Redundancy int           `json:"redundancy"`
		Priority   int           `json:"priority"`
		CreatedAt  time.Time     `json:"created_at"`
		DoneAt     time.Time     `json:"done_at"`
		Answers    []task.Answer `json:"answers,omitempty"`
	}
	statusLastTask struct {
		ID         task.ID      `json:"id"`
		Kind       task.Kind    `json:"kind"`
		Payload    task.Payload `json:"payload"`
		Redundancy int          `json:"redundancy"`
		Priority   int          `json:"priority"`
		Status     task.Status  `json:"status"`
		CreatedAt  time.Time    `json:"created_at"`
		DoneAt     time.Time    `json:"done_at"`
		Answers    []boxAnswer  `json:"answers,omitempty"`
	}
	boxAnswer struct {
		TaskID   task.ID    `json:"task_id"`
		WorkerID string     `json:"worker_id"`
		At       time.Time  `json:"at"`
		Words    []int      `json:"words,omitempty"`
		Box      vocab.Rect `json:"box"`
		Text     string     `json:"text,omitempty"`
		Choice   int        `json:"choice,omitempty"`
	}
	// oldEvent is an Event whose task and answers are in an old shape; a
	// nil one is left out, as Event leaves it out.
	oldEvent struct {
		Kind   EventKind `json:"kind"`
		At     time.Time `json:"at"`
		Task   any       `json:"task,omitempty"`
		TaskID task.ID   `json:"task_id,omitempty"`
		Answer any       `json:"answer,omitempty"`
		Gold   any       `json:"gold,omitempty"`
	}
)

func toBoxAnswer(a *task.Answer) boxAnswer {
	return boxAnswer{a.TaskID, a.WorkerID, a.At.Time(), a.Words, a.Box, a.Text, a.Choice}
}

// oldForm turns tasks and answers into one earlier record shape.
type oldForm struct {
	name    string
	task    func(*task.Task) any
	answer  func(*task.Answer) any
	markers []string // what only this shape writes
}

var oldForms = []oldForm{
	{
		name: "stamps last",
		task: func(t *task.Task) any {
			return &stampsLastTask{t.ID, t.Kind, t.Status, t.Payload, int(t.Redundancy), t.Priority, t.CreatedAt.Time(), t.DoneAt().Time(), t.Answers()}
		},
		answer:  func(a *task.Answer) any { return a },
		markers: []string{`"priority":0,"created_at":`, `"done_at":"0001-01-01T00:00:00Z"`},
	},
	{
		name: "status last",
		task: func(t *task.Task) any {
			o := &statusLastTask{t.ID, t.Kind, t.Payload, int(t.Redundancy), t.Priority, t.Status, t.CreatedAt.Time(), t.DoneAt().Time(), nil}
			for _, a := range t.Answers() {
				o.Answers = append(o.Answers, toBoxAnswer(&a))
			}
			return o
		},
		answer:  func(a *task.Answer) any { b := toBoxAnswer(a); return &b },
		markers: []string{`"priority":0,"status":0`, `"box":{"X":0,"Y":0,"W":0,"H":0}`, `"done_at":"0001-01-01T00:00:00Z"`},
	},
}

// event renders e in the form's shape.
func (f oldForm) event(e Event) oldEvent {
	o := oldEvent{Kind: e.Kind, At: e.At, TaskID: e.TaskID}
	if e.Task != nil {
		o.Task = f.task(e.Task)
	}
	if e.Answer != nil {
		o.Answer = f.answer(e.Answer)
	}
	if e.Gold != nil {
		o.Gold = f.answer(e.Gold)
	}
	return o
}

// TestOldKeyOrderRecovers: a WAL and a checkpoint in each earlier key
// order recover to the tasks today's format recovers to. Their records are
// not canonical any more, so they take encoding/json's path, which reads
// keys in any order, a present box whatever it holds and a zero done_at.
func TestOldKeyOrderRecovers(t *testing.T) {
	events := []Event{}
	for _, tk := range richTasks(30) {
		events = append(events, Event{Kind: EventSubmit, At: tk.CreatedAt.Time(), Task: tk})
	}
	label, err := task.New(1000, task.Label, task.Payload{ImageID: 9}, 2, t0)
	if err != nil {
		t.Fatal(err)
	}
	gold := &task.Answer{Words: []int{5}}
	events = append(events,
		Event{Kind: EventSubmit, At: t0, Task: label, Gold: gold},
		Event{Kind: EventAnswer, At: t0.Add(time.Second), TaskID: 1000, Answer: &task.Answer{WorkerID: "a", Words: []int{5, 6}}},
		Event{Kind: EventAnswer, At: t0.Add(2 * time.Second), TaskID: 1000, Answer: &task.Answer{WorkerID: "b", Words: []int{5}}},
	)

	var current bytes.Buffer
	if err := NewWAL(&current).AppendBatch(events); err != nil {
		t.Fatal(err)
	}
	replay := func(log []byte) *Store {
		s := New()
		if st, err := ReplayWALObserved(bytes.NewReader(log), s, nil); err != nil || st.Applied != len(events) {
			t.Fatalf("replay: %+v, %v", st, err)
		}
		return s
	}
	want := replay(current.Bytes())
	wantSnap := streamedBytes(t, want, nil)

	for _, form := range oldForms {
		old := append([]byte(nil), walMagic[:]...)
		for _, e := range events {
			doc, err := json.Marshal(form.event(e))
			if err != nil {
				t.Fatal(err)
			}
			old = binary.LittleEndian.AppendUint32(old, uint32(len(doc)))
			old = binary.LittleEndian.AppendUint32(old, crc32.Checksum(doc, castagnoli))
			old = append(old, doc...)
		}
		for _, m := range form.markers {
			if !bytes.Contains(old, []byte(m)) {
				t.Fatalf("%s: the old log has no %s", form.name, m)
			}
		}
		got := replay(old)
		if !reflect.DeepEqual(got.ViewByStatus(AnyStatus), want.ViewByStatus(AnyStatus)) {
			t.Fatalf("%s: the old-order WAL recovers to other tasks than today's", form.name)
		}

		// The checkpoint of the same tasks, written the old way, restores
		// to them and is written back in today's form.
		var doc struct {
			Version int     `json:"version"`
			NextID  task.ID `json:"next_id"`
			Tasks   []any   `json:"tasks"`
		}
		doc.Version, doc.NextID = 1, task.ID(want.nextID.Load())
		for _, v := range want.ViewByStatus(AnyStatus) {
			tk := task.Task(v)
			doc.Tasks = append(doc.Tasks, form.task(&tk))
		}
		oldSnap, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		restored := New()
		if _, err := restored.RestoreWith(bytes.NewReader(oldSnap)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(restored.ViewByStatus(AnyStatus), want.ViewByStatus(AnyStatus)) {
			t.Fatalf("%s: the old-order checkpoint restores to other tasks than today's", form.name)
		}
		if back := streamedBytes(t, restored, nil); !bytes.Equal(back, wantSnap) {
			t.Fatalf("%s: restored old checkpoint is written back as\n%s\nwant\n%s", form.name, clip(back), clip(wantSnap))
		}
	}
	for _, stale := range []string{`"box":{"X":0,"Y":0,"W":0,"H":0}`, `"done_at":"0001-01-01T00:00:00Z"`} {
		if bytes.Contains(wantSnap, []byte(stale)) {
			t.Fatalf("today's checkpoint still writes %s", stale)
		}
	}
}
