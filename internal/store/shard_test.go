package store

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"humancomp/internal/task"
)

// Shard-invariance properties: a store's observable behavior — snapshot
// bytes, restore results, allocator seeding — must not depend on how many
// shards it was built with. testing/quick drives these with random task
// populations and shard counts.

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

func snapshotBytes(t *testing.T, s *Store) []byte {
	t.Helper()
	return streamedBytes(t, s, nil)
}

// TestShardedSnapshotMatchesSingleShard: for any task population and any
// shard count, the snapshot wire format is byte-identical to a one-shard
// store holding the same tasks.
func TestShardedSnapshotMatchesSingleShard(t *testing.T) {
	prop := func(specs []taskSpec, shardSeed uint8) bool {
		shards := 2 << (shardSeed % 6) // 2, 4, ... 64
		many := NewSharded(shards)
		one := NewSharded(1)
		fill(many, specs)
		fill(one, specs)
		return bytes.Equal(snapshotBytes(t, many), snapshotBytes(t, one))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestShardedRestoreRoundTrip: restoring a snapshot into a store with a
// different shard count and snapshotting again reproduces the original
// bytes exactly.
func TestShardedRestoreRoundTrip(t *testing.T) {
	prop := func(specs []taskSpec, a, b uint8) bool {
		src := NewSharded(1 << (a % 7))
		fill(src, specs)
		orig := snapshotBytes(t, src)
		dst := NewSharded(1 << (b % 7))
		if err := dst.Restore(bytes.NewReader(orig)); err != nil {
			t.Fatalf("restore: %v", err)
		}
		return bytes.Equal(snapshotBytes(t, dst), orig)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreSeedsNextID: after a restore, the atomic allocator hands out
// IDs strictly greater than every restored task ID, for any shard count.
func TestRestoreSeedsNextID(t *testing.T) {
	prop := func(specs []taskSpec, shardSeed uint8) bool {
		src := NewSharded(1)
		fill(src, specs)
		dst := NewSharded(1 << (shardSeed % 7))
		if err := dst.Restore(bytes.NewReader(snapshotBytes(t, src))); err != nil {
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

// TestViewByStatusNeverTorn hammers a sharded store with concurrent
// mutators (recording answers under LockerFor, exactly as the queue does)
// while readers take status views, and asserts every view is internally
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
	s := NewSharded(8)
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
				id := task.ID(i)
				tk, err := s.Get(id)
				if err != nil {
					continue
				}
				l := s.LockerFor(id)
				l.Lock()
				// ErrWrongStatus / ErrWorkerRepeat are expected races
				// between writers; the invariant under test is the
				// reader's, not the writer's.
				_ = tk.Record(task.Answer{WorkerID: worker, Words: []int{i}}, time.Unix(int64(i), 1))
				l.Unlock()
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
