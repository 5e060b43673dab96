package store

import (
	"bytes"
	"testing"
	"time"

	"humancomp/internal/task"
)

func walTask(t *testing.T, id task.ID, redundancy int) *task.Task {
	t.Helper()
	tk, err := task.New(id, task.Label, task.Payload{ImageID: int(id)}, redundancy, t0)
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	wal := NewWAL(&buf)

	tk := walTask(t, 1, 2)
	if err := wal.Append(Event{Kind: EventSubmit, At: t0, Task: tk}); err != nil {
		t.Fatal(err)
	}
	a1 := task.Answer{WorkerID: "alice", Words: []int{3}}
	if err := wal.Append(Event{Kind: EventAnswer, At: t0.Add(time.Minute), TaskID: 1, Answer: &a1}); err != nil {
		t.Fatal(err)
	}
	tk2 := walTask(t, 2, 1)
	if err := wal.Append(Event{Kind: EventSubmit, At: t0, Task: tk2}); err != nil {
		t.Fatal(err)
	}
	if err := wal.Append(Event{Kind: EventCancel, At: t0.Add(2 * time.Minute), TaskID: 2}); err != nil {
		t.Fatal(err)
	}
	if wal.Len() != 4 {
		t.Fatalf("Len = %d", wal.Len())
	}

	s := New()
	st, err := ReplayWAL(&buf, s)
	if err != nil || st.Applied != 4 {
		t.Fatalf("replay: %+v, %v", st, err)
	}
	if st.TruncatedBytes != 0 {
		t.Fatalf("clean log reported truncation: %+v", st)
	}
	got, err := s.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != 1 || got.Answers[0].WorkerID != "alice" || got.Status != task.Open {
		t.Fatalf("replayed task 1 = %+v", got)
	}
	got2, err := s.Get(2)
	if err != nil || got2.Status != task.Canceled {
		t.Fatalf("replayed task 2 = %+v, %v", got2, err)
	}
	// The allocator continues past replayed IDs.
	if id := s.NextID(); id <= 2 {
		t.Fatalf("NextID after replay = %d", id)
	}
}

func TestWALReplayToleratesTornTail(t *testing.T) {
	var buf bytes.Buffer
	wal := NewWAL(&buf)
	if err := wal.Append(Event{Kind: EventSubmit, At: t0, Task: walTask(t, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a fragment of a record at the end.
	buf.WriteString(`{"kind":"answer","task_id":1,"ans`)

	s := New()
	st, err := ReplayWAL(&buf, s)
	if err != nil {
		t.Fatalf("torn tail should end replay cleanly: %v", err)
	}
	if st.Applied != 1 {
		t.Fatalf("applied = %d", st.Applied)
	}
	if st.TruncatedBytes == 0 {
		t.Fatal("torn tail not reported in TruncatedBytes")
	}
	if _, err := s.Get(1); err != nil {
		t.Fatal("acknowledged event lost")
	}
}

func TestWALReplayRejectsInconsistentEvents(t *testing.T) {
	// Answer for a task that was never submitted.
	var orphan bytes.Buffer
	a := task.Answer{WorkerID: "w", Words: []int{1}}
	if err := NewWAL(&orphan).Append(Event{Kind: EventAnswer, At: t0, TaskID: 7, Answer: &a}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayWAL(&orphan, New()); err == nil {
		t.Fatal("orphan answer accepted")
	}
	// Duplicate submit.
	var buf bytes.Buffer
	wal := NewWAL(&buf)
	_ = wal.Append(Event{Kind: EventSubmit, At: t0, Task: walTask(t, 1, 1)})
	_ = wal.Append(Event{Kind: EventSubmit, At: t0, Task: walTask(t, 1, 1)})
	s2 := New()
	if _, err := ReplayWAL(&buf, s2); err == nil {
		t.Fatal("duplicate submit accepted")
	}
}

// TestReplayRefusesWhatNoLiveOrderLogs: the live queue applies an answer,
// cancel or finish and writes it to the log in one hold of its lock, so
// the log is in apply order and replay applies it with the same function,
// under the same rules. An answer behind its task's close, a finish of a
// task its last answer completed, the same worker twice and an answer
// beyond redundancy are therefore inconsistency, and fail replay.
func TestReplayRefusesWhatNoLiveOrderLogs(t *testing.T) {
	answerBy := func(w string) Event {
		return Event{Kind: EventAnswer, At: t0.Add(2 * time.Second), TaskID: 1, Answer: &task.Answer{WorkerID: w, Words: []int{1}}}
	}
	closeBy := func(k EventKind) Event { return Event{Kind: k, At: t0.Add(time.Second), TaskID: 1} }
	logOf := func(t *testing.T, events ...Event) *bytes.Buffer {
		t.Helper()
		var buf bytes.Buffer
		wal := NewWAL(&buf)
		events = append([]Event{{Kind: EventSubmit, At: t0, Task: walTask(t, 1, 2)}}, events...)
		for _, e := range events {
			if err := wal.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		return &buf
	}
	for name, tail := range map[string][]Event{
		"answer behind a finish":     {answerBy("a"), closeBy(EventFinish), answerBy("b")},
		"answer behind a cancel":     {answerBy("a"), closeBy(EventCancel), answerBy("b")},
		"finish of a completed task": {answerBy("a"), answerBy("b"), closeBy(EventFinish)},
		"same worker twice":          {answerBy("a"), answerBy("a")},
		"answer beyond redundancy":   {answerBy("a"), answerBy("b"), answerBy("c")},
		"cancel of a cancelled task": {closeBy(EventCancel), closeBy(EventCancel)},
		"answer to an unknown task":  {{Kind: EventAnswer, At: t0, TaskID: 9, Answer: &task.Answer{WorkerID: "a", Words: []int{1}}}},
		"finish behind a cancel":     {closeBy(EventCancel), closeBy(EventFinish)},
	} {
		t.Run(name, func(t *testing.T) {
			if st, err := ReplayWAL(logOf(t, tail...), New()); err == nil {
				t.Errorf("replayed (%d events applied), want an error", st.Applied)
			}
		})
	}
	t.Run("answer then finish replays", func(t *testing.T) {
		s := New()
		if _, err := ReplayWAL(logOf(t, answerBy("a"), closeBy(EventFinish)), s); err != nil {
			t.Fatal(err)
		}
		if v, err := s.View(1); err != nil || v.Status != task.Done || len(v.Answers) != 1 || !v.DoneAt.Equal(t0.Add(time.Second)) {
			t.Fatalf("replayed as %+v, %v", v, err)
		}
	})
}

func TestWALAppendValidation(t *testing.T) {
	wal := NewWAL(&bytes.Buffer{})
	cases := map[string]Event{
		"submit without task": {Kind: EventSubmit},
		"answer without id":   {Kind: EventAnswer, Answer: &task.Answer{Words: []int{1}}},
		"answer without body": {Kind: EventAnswer, TaskID: 1},
		"cancel without id":   {Kind: EventCancel},
		"unknown kind":        {Kind: "bogus"},
	}
	for name, e := range cases {
		if err := wal.Append(e); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if wal.Len() != 0 {
		t.Fatalf("invalid events counted: %d", wal.Len())
	}
}

func TestWALSnapshotPlusTailRecovery(t *testing.T) {
	// The production recovery path: restore the snapshot, then replay the
	// WAL tail written after it.
	s := New()
	tk := walTask(t, 1, 2)
	s.Put(tk)
	var snap bytes.Buffer
	if err := s.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	var tail bytes.Buffer
	wal := NewWAL(&tail)
	a := task.Answer{WorkerID: "late", Words: []int{9}}
	if err := wal.Append(Event{Kind: EventAnswer, At: t0.Add(time.Hour), TaskID: 1, Answer: &a}); err != nil {
		t.Fatal(err)
	}

	recovered := New()
	if err := recovered.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayWAL(&tail, recovered); err != nil {
		t.Fatal(err)
	}
	got, err := recovered.Get(1)
	if err != nil || len(got.Answers) != 1 || got.Answers[0].WorkerID != "late" {
		t.Fatalf("recovered task = %+v, %v", got, err)
	}
}

// TestWALRoundTripProperty: any valid event sequence replays to the same
// store state regardless of chunking of the log bytes.
func TestWALRoundTripProperty(t *testing.T) {
	src := rngNew(13)
	for trial := 0; trial < 50; trial++ {
		var buf bytes.Buffer
		wal := NewWAL(&buf)
		reference := New()
		nextID := task.ID(0)
		open := []task.ID{}
		for op := 0; op < 30; op++ {
			switch src(3) {
			case 0:
				nextID++
				tk, _ := task.New(nextID, task.Label, task.Payload{ImageID: int(nextID)}, 2, t0)
				if err := wal.Append(Event{Kind: EventSubmit, At: t0, Task: cloneTask(tk)}); err != nil {
					t.Fatal(err)
				}
				reference.Put(tk)
				open = append(open, nextID)
			case 1:
				if len(open) == 0 {
					continue
				}
				id := open[src(len(open))]
				ref, _ := reference.Get(id)
				if ref.Status != task.Open {
					continue
				}
				a := task.Answer{WorkerID: "w" + string(rune('a'+src(20))), Words: []int{src(50)}}
				if err := ref.Record(a, t0); err != nil {
					continue
				}
				recorded := ref.Answers[len(ref.Answers)-1]
				if err := wal.Append(Event{Kind: EventAnswer, At: t0, TaskID: id, Answer: &recorded}); err != nil {
					t.Fatal(err)
				}
			case 2:
				if len(open) == 0 {
					continue
				}
				id := open[src(len(open))]
				ref, _ := reference.Get(id)
				if ref.Cancel(t0) != nil {
					continue
				}
				if err := wal.Append(Event{Kind: EventCancel, At: t0, TaskID: id}); err != nil {
					t.Fatal(err)
				}
			}
		}
		replayed := New()
		if _, err := ReplayWAL(bytes.NewReader(buf.Bytes()), replayed); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, want := range reference.ViewAll() {
			got, err := replayed.Get(want.ID)
			if err != nil {
				t.Fatalf("trial %d: task %d missing", trial, want.ID)
			}
			if got.Status != want.Status || len(got.Answers) != len(want.Answers) {
				t.Fatalf("trial %d: task %d state diverged: %+v vs %+v", trial, want.ID, got, want)
			}
		}
	}
}

// rngNew returns a tiny deterministic bounded-int generator for the
// property test (avoids importing internal/rng into store's tests).
func rngNew(seed uint64) func(n int) int {
	s := seed
	return func(n int) int {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return int(s % uint64(n))
	}
}

// cloneTask deep-copies a task so the reference store's later mutations
// don't alias the event payload.
func cloneTask(t *task.Task) *task.Task {
	cp := *t
	cp.Answers = append([]task.Answer(nil), t.Answers...)
	if t.Payload.Taboo != nil {
		cp.Payload.Taboo = append([]int(nil), t.Payload.Taboo...)
	}
	return &cp
}

func TestWALAppendBatchReplayRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	wal := NewWAL(&buf)

	a := task.Answer{WorkerID: "alice", Words: []int{3}}
	events := []Event{
		{Kind: EventSubmit, At: t0, Task: walTask(t, 1, 2)},
		{Kind: EventSubmit, At: t0, Task: walTask(t, 2, 1)},
		{Kind: EventAnswer, At: t0.Add(time.Minute), TaskID: 1, Answer: &a},
		{Kind: EventCancel, At: t0.Add(2 * time.Minute), TaskID: 2},
	}
	if err := wal.AppendBatch(events); err != nil {
		t.Fatal(err)
	}
	if wal.Len() != 4 {
		t.Fatalf("Len = %d, want 4", wal.Len())
	}

	s := New()
	st, err := ReplayWAL(&buf, s)
	if err != nil || st.Applied != 4 || st.TruncatedBytes != 0 {
		t.Fatalf("replay: %+v, %v", st, err)
	}
	got, err := s.Get(1)
	if err != nil || len(got.Answers) != 1 || got.Answers[0].WorkerID != "alice" {
		t.Fatalf("replayed task 1 = %+v, %v", got, err)
	}
	if got2, err := s.Get(2); err != nil || got2.Status != task.Canceled {
		t.Fatalf("replayed task 2 = %+v, %v", got2, err)
	}
}

func TestWALAppendBatchRejectsInvalidEventUpFront(t *testing.T) {
	var buf bytes.Buffer
	wal := NewWAL(&buf)
	events := []Event{
		{Kind: EventSubmit, At: t0, Task: walTask(t, 1, 1)},
		{Kind: EventSubmit, At: t0}, // nil Task: invalid
	}
	if err := wal.AppendBatch(events); err == nil {
		t.Fatal("AppendBatch accepted an invalid event")
	}
	// Nothing was acknowledged, so nothing may replay.
	if wal.Len() != 0 {
		t.Fatalf("Len = %d after rejected batch, want 0", wal.Len())
	}
	if st, err := ReplayWAL(&buf, New()); err != nil || st.Applied != 0 {
		t.Fatalf("replay after rejected batch: %+v, %v", st, err)
	}
}

func TestWALAppendBatchSingleFsync(t *testing.T) {
	sc := &syncCounter{}
	wal := NewWALWith(sc, WALOptions{Policy: SyncAlways})
	defer wal.Close()

	const n = 64
	events := make([]Event, n)
	for i := range events {
		events[i] = Event{Kind: EventSubmit, At: t0, Task: walTask(t, task.ID(i+1), 1)}
	}
	if err := wal.AppendBatch(events); err != nil {
		t.Fatal(err)
	}
	if got := sc.syncs.Load(); got != 1 {
		t.Fatalf("batch of %d cost %d fsyncs, want 1", n, got)
	}
	// Equivalent single appends pay one fsync each.
	for i := 0; i < n; i++ {
		if err := wal.Append(Event{Kind: EventCancel, At: t0, TaskID: task.ID(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := sc.syncs.Load(); got != 1+n {
		t.Fatalf("syncs = %d, want %d", got, 1+n)
	}
}
