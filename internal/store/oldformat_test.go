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

// The record shapes written before a task's status moved up beside its
// kind and an empty answer box was left out: the same fields, status after
// priority, and the box on every answer.
type (
	oldTask struct {
		ID         task.ID      `json:"id"`
		Kind       task.Kind    `json:"kind"`
		Payload    task.Payload `json:"payload"`
		Redundancy int          `json:"redundancy"`
		Priority   int          `json:"priority"`
		Status     task.Status  `json:"status"`
		CreatedAt  time.Time    `json:"created_at"`
		DoneAt     time.Time    `json:"done_at"`
		Answers    []oldAnswer  `json:"answers,omitempty"`
	}
	oldAnswer struct {
		TaskID   task.ID    `json:"task_id"`
		WorkerID string     `json:"worker_id"`
		At       time.Time  `json:"at"`
		Words    []int      `json:"words,omitempty"`
		Box      vocab.Rect `json:"box"`
		Text     string     `json:"text,omitempty"`
		Choice   int        `json:"choice,omitempty"`
	}
	oldEvent struct {
		Kind   EventKind  `json:"kind"`
		At     time.Time  `json:"at"`
		Task   *oldTask   `json:"task,omitempty"`
		TaskID task.ID    `json:"task_id,omitempty"`
		Answer *oldAnswer `json:"answer,omitempty"`
		Gold   *oldAnswer `json:"gold,omitempty"`
	}
)

func toOldAnswer(a *task.Answer) *oldAnswer {
	if a == nil {
		return nil
	}
	return &oldAnswer{a.TaskID, a.WorkerID, a.At, a.Words, a.Box, a.Text, a.Choice}
}

func toOldTask(t *task.Task) *oldTask {
	if t == nil {
		return nil
	}
	o := &oldTask{t.ID, t.Kind, t.Payload, t.Redundancy, t.Priority, t.Status, t.CreatedAt, t.DoneAt, nil}
	for i := range t.Answers {
		o.Answers = append(o.Answers, *toOldAnswer(&t.Answers[i]))
	}
	return o
}

// TestOldKeyOrderRecovers: a WAL and a checkpoint in the earlier key order
// recover to the tasks today's format recovers to. Their records are not
// canonical any more, so they take encoding/json's path, which reads keys
// in any order and a present box whatever it holds.
func TestOldKeyOrderRecovers(t *testing.T) {
	events := []Event{}
	for _, tk := range richTasks(30) {
		events = append(events, Event{Kind: EventSubmit, At: tk.CreatedAt, Task: tk})
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
	old := append([]byte(nil), walMagic[:]...)
	for _, e := range events {
		doc, err := json.Marshal(oldEvent{e.Kind, e.At, toOldTask(e.Task), e.TaskID, toOldAnswer(e.Answer), toOldAnswer(e.Gold)})
		if err != nil {
			t.Fatal(err)
		}
		old = binary.LittleEndian.AppendUint32(old, uint32(len(doc)))
		old = binary.LittleEndian.AppendUint32(old, crc32.Checksum(doc, castagnoli))
		old = append(old, doc...)
	}
	if !bytes.Contains(old, []byte(`"priority":0,"status":0`)) || !bytes.Contains(old, []byte(`"box":{"X":0,"Y":0,"W":0,"H":0}`)) {
		t.Fatal("the old log is not in the old key order")
	}

	replay := func(log []byte) *Store {
		s := New()
		if st, err := ReplayWALObserved(bytes.NewReader(log), s, nil); err != nil || st.Applied != len(events) {
			t.Fatalf("replay: %+v, %v", st, err)
		}
		return s
	}
	want := replay(current.Bytes())
	got := replay(old)
	if !reflect.DeepEqual(got.ViewByStatus(AnyStatus), want.ViewByStatus(AnyStatus)) {
		t.Fatal("the old-order WAL recovers to other tasks than today's")
	}

	// The checkpoint of the same tasks, written the old way, restores to
	// them and is written back in today's form.
	var doc struct {
		Version int        `json:"version"`
		NextID  task.ID    `json:"next_id"`
		Tasks   []*oldTask `json:"tasks"`
	}
	doc.Version, doc.NextID = 1, task.ID(want.nextID.Load())
	for _, v := range want.ViewByStatus(AnyStatus) {
		tk := task.Task(v)
		doc.Tasks = append(doc.Tasks, toOldTask(&tk))
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
		t.Fatal("the old-order checkpoint restores to other tasks than today's")
	}
	back := streamedBytes(t, restored, nil)
	if current := streamedBytes(t, want, nil); !bytes.Equal(back, current) {
		t.Fatalf("restored old checkpoint is written back as\n%s\nwant\n%s", clip(back), clip(current))
	}
	if bytes.Contains(back, []byte(`"box":{"X":0,"Y":0,"W":0,"H":0}`)) {
		t.Fatal("an empty box survived the round trip")
	}
}
