package core

import (
	"errors"
	"testing"
	"time"

	"humancomp/internal/queue"
	"humancomp/internal/store"
	"humancomp/internal/task"
)

func TestSubmitBatchPartialFailureRoundTrip(t *testing.T) {
	s, _ := newSystem()
	specs := []SubmitSpec{
		{Kind: task.Label, Payload: task.Payload{ImageID: 1}, Redundancy: 1},
		{Kind: task.Label, Payload: task.Payload{ImageID: 2}, Redundancy: -1}, // invalid
		{Kind: task.Label, Payload: task.Payload{ImageID: 3}, Redundancy: 1, Priority: 9},
	}
	out := s.SubmitBatch(specs)
	if len(out) != 3 {
		t.Fatalf("got %d outcomes", len(out))
	}
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("good items failed: %v, %v", out[0].Err, out[2].Err)
	}
	if out[1].Err == nil {
		t.Fatal("invalid redundancy accepted")
	}
	if st := s.Stats(); st.TasksSubmitted != 2 || st.StoredTasks != 2 {
		t.Fatalf("stats after batch = %+v", st)
	}

	grants := s.LeaseBatch("alice", 8)
	if len(grants) != 2 {
		t.Fatalf("leased %d, want 2", len(grants))
	}
	// The two submitted tasks, best first: priority 9 ahead of priority 0.
	if grants[0].Task.ID != out[2].ID || grants[1].Task.ID != out[0].ID {
		t.Fatalf("leased %d then %d, want %d then %d", grants[0].Task.ID, grants[1].Task.ID, out[2].ID, out[0].ID)
	}
	items := make([]queue.CompleteItem, len(grants))
	for i, g := range grants {
		items[i] = queue.CompleteItem{Lease: g.Lease, Answer: task.Answer{Words: []int{int(g.Task.ID)}}}
	}

	errs := s.AnswerBatch(items)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
	}
	for _, g := range grants {
		got, err := s.Task(g.Task.ID)
		if err != nil || got.Status != task.Done {
			t.Fatalf("task %d after batch answer: %+v, %v", g.Task.ID, got, err)
		}
	}
	if st := s.Stats(); st.AnswersTotal != 2 {
		t.Fatalf("answers counted = %+v", st)
	}
}

func TestAnswerBatchPartialFailure(t *testing.T) {
	s, _ := newSystem()
	out := s.SubmitBatch([]SubmitSpec{
		{Kind: task.Label, Payload: task.Payload{ImageID: 1}, Redundancy: 1},
		{Kind: task.Label, Payload: task.Payload{ImageID: 2}, Redundancy: 1},
	})
	grants := s.LeaseBatch("w", 2)
	if len(grants) != 2 {
		t.Fatalf("leased %d, want 2", len(grants))
	}
	errs := s.AnswerBatch([]queue.CompleteItem{
		{Lease: grants[0].Lease, Answer: task.Answer{Words: []int{1}}},
		{Lease: queue.LeaseID(1 << 40), Answer: task.Answer{Words: []int{2}}},
	})
	if errs[0] != nil {
		t.Fatalf("good answer failed: %v", errs[0])
	}
	if !errors.Is(errs[1], queue.ErrUnknownLease) {
		t.Fatalf("bogus lease: got %v", errs[1])
	}
	// Only the good answer landed: equal priority and age lease in ID order.
	answered, other := out[0].ID, out[1].ID
	if grants[0].Task.ID != answered {
		t.Fatalf("first grant is task %d, want %d", grants[0].Task.ID, answered)
	}
	if got, _ := s.Task(answered); got.Status != task.Done {
		t.Fatalf("answered task: %+v", got)
	}
	if got, _ := s.Task(other); got.Status != task.Open {
		t.Fatalf("unanswered task mutated: %+v", got)
	}
}

func TestSubmitBatchRegistersGold(t *testing.T) {
	s, _ := newSystem()
	out := s.SubmitBatch([]SubmitSpec{
		{Kind: task.Label, Payload: task.Payload{ImageID: 1}, Redundancy: 1,
			Gold: true, Expected: task.Answer{Words: []int{7}}},
		{Kind: task.Label, Payload: task.Payload{ImageID: 2}, Redundancy: 1},
	})
	if out[0].Err != nil || out[1].Err != nil {
		t.Fatalf("batch failed: %+v", out)
	}
	if !s.IsGold(out[0].ID) || s.IsGold(out[1].ID) {
		t.Fatalf("gold registration: IsGold = %v, %v", s.IsGold(out[0].ID), s.IsGold(out[1].ID))
	}
}

// batchJournal records the groups it is handed and can fail whole batches.
type batchJournal struct {
	batches [][]store.Event
	fail    bool
}

func (j *batchJournal) WriteEvents(events []store.Event) (int64, error) {
	if j.fail {
		return 0, errors.New("journal: disk full")
	}
	cp := make([]store.Event, len(events))
	copy(cp, events)
	j.batches = append(j.batches, cp)
	return int64(len(j.batches)), nil
}

func (j *batchJournal) WaitDurable(int64) (time.Duration, error) { return 0, nil }

func TestSubmitBatchUsesGroupAppend(t *testing.T) {
	clk := &fakeClock{now: t0}
	cfg := DefaultConfig()
	cfg.Clock = clk
	j := &batchJournal{}
	cfg.Journal = j
	s := New(cfg)

	specs := make([]SubmitSpec, 3)
	for i := range specs {
		specs[i] = SubmitSpec{Kind: task.Label, Payload: task.Payload{ImageID: i}, Redundancy: 1}
	}
	for i, o := range s.SubmitBatch(specs) {
		if o.Err != nil {
			t.Fatalf("item %d: %v", i, o.Err)
		}
	}
	if len(j.batches) != 1 || len(j.batches[0]) != 3 {
		t.Fatalf("journal saw %d groups, want one group of 3: %v", len(j.batches), j.batches)
	}
}

func TestSubmitBatchAllOrNothingWithBatchJournal(t *testing.T) {
	clk := &fakeClock{now: t0}
	cfg := DefaultConfig()
	cfg.Clock = clk
	cfg.Journal = &batchJournal{fail: true}
	s := New(cfg)

	out := s.SubmitBatch([]SubmitSpec{
		{Kind: task.Label, Payload: task.Payload{ImageID: 1}, Redundancy: 1},
		{Kind: task.Label, Payload: task.Payload{ImageID: 2}, Redundancy: 1},
	})
	for i, o := range out {
		if o.Err == nil {
			t.Fatalf("item %d acked despite failed batch journal", i)
		}
	}
	if st := s.Stats(); st.TasksSubmitted != 0 || st.StoredTasks != 0 {
		t.Fatalf("failed batch left residue: %+v", st)
	}
}
