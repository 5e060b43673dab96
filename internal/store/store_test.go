package store

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"humancomp/internal/task"
	"humancomp/internal/trace"
)

var t0 = time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)

func mk(t *testing.T, s *Store, kind task.Kind) *task.Task {
	t.Helper()
	tk, err := task.New(s.NextID(), kind, task.Payload{ImageID: 1}, 2, t0)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(tk)
	return tk
}

func TestPutGet(t *testing.T) {
	s := New()
	tk := mk(t, s, task.Label)
	got, err := s.Get(tk.ID)
	if err != nil || got != tk {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if _, err := s.Get(999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing task err = %v", err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestNextIDMonotonic(t *testing.T) {
	s := New()
	prev := task.ID(0)
	for i := 0; i < 100; i++ {
		id := s.NextID()
		if id <= prev {
			t.Fatalf("NextID not monotonic: %d after %d", id, prev)
		}
		prev = id
	}
}

func TestPutAdvancesAllocator(t *testing.T) {
	s := New()
	tk, _ := task.New(50, task.Label, task.Payload{}, 1, t0)
	s.Put(tk)
	if id := s.NextID(); id <= 50 {
		t.Fatalf("NextID = %d after Put(50)", id)
	}
}

// TestInsertRefusesOnlyAnotherTask: Insert stores open tasks under free
// IDs, once each — one persist event a task — and advances the allocator;
// a task already stored is left as it is, with no second event, and only
// a task that is not open, or another task under a stored ID, is refused.
func TestInsertRefusesOnlyAnotherTask(t *testing.T) {
	s := New()
	rec := trace.NewRecorder(0)
	s.SetRecorder(rec)
	newTask := func(id task.ID) *task.Task {
		tk, err := task.New(id, task.Label, task.Payload{ImageID: int(id)}, 1, t0)
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}
	stored, done := newTask(1), newTask(3)
	s.Put(stored)
	done.Status = task.Done
	ts := []*task.Task{stored, newTask(1), done, newTask(40)}
	if refused := s.Insert(ts); !slices.Equal(refused, []int{1, 2}) {
		t.Fatalf("Insert refused %v, want [1 2]", refused)
	}
	if got, err := s.Get(1); err != nil || got != stored {
		t.Fatalf("Get(1) = %p, %v; want the task stored first", got, err)
	}
	if _, err := s.Get(3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("the done task was stored: %v", err)
	}
	if got, err := s.Get(40); err != nil || got != ts[3] {
		t.Fatalf("Get(40) = %p, %v", got, err)
	}
	for _, id := range []task.ID{1, 40} {
		if n := len(rec.TaskEvents(id)); n != 1 {
			t.Fatalf("task %d has %d persist events, want 1", id, n)
		}
	}
	if id := s.NextID(); id <= 40 {
		t.Fatalf("NextID = %d after inserting 40", id)
	}
}

func TestIDsSortedAndByStatus(t *testing.T) {
	s := New()
	a := mk(t, s, task.Label)
	b := mk(t, s, task.Locate)
	_ = b.Cancel(t0)
	if all := s.IDs(AnyStatus); len(all) != 2 || all[0] != a.ID || all[1] != b.ID {
		t.Fatalf("IDs = %v", all)
	}
	if open := s.IDs(task.Open); len(open) != 1 || open[0] != a.ID {
		t.Fatalf("IDs(Open) = %v", open)
	}
	if got := s.IDs(task.Canceled); len(got) != 1 || got[0] != b.ID {
		t.Fatalf("IDs(Canceled) = %v", got)
	}
	if got := s.IDs(task.Done); len(got) != 0 {
		t.Fatalf("IDs(Done) = %v", got)
	}
	for _, st := range []task.Status{task.Open, task.Done, task.Canceled} {
		if got, want := s.Count(st), len(s.IDs(st)); got != want {
			t.Fatalf("Count(%v) = %d, IDs lists %d", st, got, want)
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := New()
	a := mk(t, s, task.Label)
	if err := a.Record(task.Answer{WorkerID: "w", Words: []int{3, 4}}, t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	mk(t, s, task.Transcribe)

	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := New()
	if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != s.Len() {
		t.Fatalf("restored %d tasks, want %d", restored.Len(), s.Len())
	}
	got, err := restored.Get(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != a.Kind || len(got.Answers) != 1 || got.Answers[0].WorkerID != "w" {
		t.Fatalf("restored task lost data: %+v", got)
	}
	if len(got.Answers[0].Words) != 2 {
		t.Fatal("answer words lost")
	}
	// Allocator continues past restored IDs.
	if id := restored.NextID(); id <= a.ID {
		t.Fatalf("NextID = %d after restore", id)
	}
}

func TestRestoreRejectsBadInput(t *testing.T) {
	s := New()
	if err := s.Restore(strings.NewReader("{not json")); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if err := s.Restore(strings.NewReader(`{"version": 99, "tasks": []}`)); err == nil {
		t.Fatal("bad version accepted")
	}
	dup := `{"version":1,"next_id":2,"tasks":[{"id":1,"kind":0,"redundancy":1},{"id":1,"kind":0,"redundancy":1}]}`
	if err := s.Restore(strings.NewReader(dup)); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
}

func TestRestoreReplacesContents(t *testing.T) {
	s := New()
	mk(t, s, task.Label)
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	mk(t, s, task.Locate) // extra task not in snapshot
	if err := s.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after restore, want snapshot contents only", s.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				tk, err := task.New(s.NextID(), task.Label, task.Payload{}, 1, t0)
				if err != nil {
					t.Error(err)
					return
				}
				s.Put(tk)
				if _, err := s.Get(tk.ID); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.Len() != 1600 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestViewDeepCopy(t *testing.T) {
	s := New()
	tk := mk(t, s, task.Label)
	if err := tk.Record(task.Answer{WorkerID: "a", Words: []int{5}}, t0); err != nil {
		t.Fatal(err)
	}
	v, err := s.View(tk.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Later task mutation is invisible to the already-taken view …
	if err := tk.Record(task.Answer{WorkerID: "b", Words: []int{6}}, t0); err != nil {
		t.Fatal(err)
	}
	if len(v.Answers) != 1 || v.Answers[0].Words[0] != 5 {
		t.Fatalf("view not isolated: %+v", v)
	}
	// … and view mutation never reaches the store.
	v.Answers[0].Words[0] = 99
	got, _ := s.Get(tk.ID)
	if got.Answers[0].Words[0] != 5 {
		t.Fatalf("store sees view mutation: %+v", got)
	}
	if _, err := s.View(9999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("View(unknown): %v", err)
	}
}

func TestViewAllAndByStatus(t *testing.T) {
	s := New()
	a := mk(t, s, task.Label)
	b := mk(t, s, task.Judge)
	if err := b.Cancel(t0); err != nil {
		t.Fatal(err)
	}
	all := s.ViewAll()
	if len(all) != 2 || all[0].ID != a.ID || all[1].ID != b.ID {
		t.Fatalf("ViewAll = %+v", all)
	}
	open := s.ViewByStatus(task.Open)
	if len(open) != 1 || open[0].ID != a.ID {
		t.Fatalf("ViewByStatus(open) = %+v", open)
	}
	canceled := s.ViewByStatus(task.Canceled)
	if len(canceled) != 1 || canceled[0].ID != b.ID {
		t.Fatalf("ViewByStatus(canceled) = %+v", canceled)
	}
}

// taskSpec is a compact, quick-generatable description of one task.
type taskSpec struct {
	ID       uint16
	Priority int8
	Status   uint8
	Answers  uint8
}

// build expands the spec into a deterministic task: equal specs always
// produce byte-identical tasks, including timestamps.
func (sp taskSpec) build() *task.Task {
	id := task.ID(sp.ID%4096) + 1
	t := &task.Task{
		ID:         id,
		Kind:       task.Label,
		Payload:    task.Payload{ImageID: int(sp.ID), Taboo: []int{int(sp.Answers)}},
		Redundancy: int(sp.Answers%3) + 1,
		Priority:   int(sp.Priority),
		Status:     task.Status(sp.Status % 3),
		CreatedAt:  time.Unix(int64(id), 0).UTC(),
	}
	for i := 0; i < int(sp.Answers%4); i++ {
		t.Answers = append(t.Answers, task.Answer{
			TaskID:   id,
			WorkerID: fmt.Sprintf("w%d", i),
			At:       t.CreatedAt.Add(time.Duration(i+1) * time.Second),
			Words:    []int{int(sp.ID), i},
		})
	}
	if t.Status != task.Open {
		t.DoneAt = t.CreatedAt.Add(time.Minute)
	}
	return t
}

func fill(s *Store, specs []taskSpec) {
	for _, sp := range specs {
		s.Put(sp.build())
	}
}

// TestRestoreSeedsNextID: after a restore, the atomic allocator hands out
// IDs strictly greater than every restored task ID.
func TestRestoreSeedsNextID(t *testing.T) {
	prop := func(specs []taskSpec) bool {
		src := New()
		fill(src, specs)
		dst := New()
		if err := dst.Restore(bytes.NewReader(streamedBytes(t, src, nil))); err != nil {
			t.Fatalf("restore: %v", err)
		}
		next := dst.NextID()
		if next <= 0 {
			return false
		}
		for _, v := range dst.ViewAll() {
			if next <= v.ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestViewByStatusNeverTorn hammers a store with concurrent mutators
// (recording answers through Apply, exactly as the queue does) while
// readers take status views, and asserts every view is internally
// consistent: Done implies the redundancy quorum is present in the copied
// answer list, Open implies it is not, and results stay ID-ordered and
// duplicate-free. A torn read — status from one moment, answers from
// another — fails the invariant.
func TestViewByStatusNeverTorn(t *testing.T) {
	const (
		nTasks     = 256
		nWriters   = 4
		redundancy = 2
	)
	s := New()
	for i := 1; i <= nTasks; i++ {
		tk, err := task.New(task.ID(i), task.Label, task.Payload{ImageID: i}, redundancy, time.Unix(int64(i), 0))
		if err != nil {
			t.Fatal(err)
		}
		s.Put(tk)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < nWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker := fmt.Sprintf("w%d", w)
			for i := 1; i <= nTasks; i++ {
				// ErrWrongStatus / ErrWorkerRepeat are expected races
				// between writers; the invariant under test is the
				// reader's, not the writer's.
				_, _ = s.Apply(EventAnswer, task.ID(i), &task.Answer{WorkerID: worker, Words: []int{i}}, time.Unix(int64(i), 1))
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()

	check := func(views []task.View, st task.Status) {
		last := task.ID(0)
		for _, v := range views {
			if v.ID <= last {
				t.Errorf("ViewByStatus(%v): IDs not strictly increasing (%d after %d)", st, v.ID, last)
			}
			last = v.ID
			if v.Status != st {
				t.Errorf("ViewByStatus(%v): task %d has status %v", st, v.ID, v.Status)
			}
			if st == task.Done && len(v.Answers) < v.Redundancy {
				t.Errorf("torn view: task %d is Done with %d/%d answers", v.ID, len(v.Answers), v.Redundancy)
			}
			if st == task.Open && len(v.Answers) >= v.Redundancy {
				t.Errorf("torn view: task %d is Open with %d/%d answers", v.ID, len(v.Answers), v.Redundancy)
			}
		}
	}
	for {
		select {
		case <-done:
			if got := len(s.ViewByStatus(task.Done)); got != nTasks {
				t.Fatalf("after writers finished: %d tasks Done, want %d", got, nTasks)
			}
			return
		default:
			check(s.ViewByStatus(task.Done), task.Done)
			check(s.ViewByStatus(task.Open), task.Open)
		}
	}
}
