package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"humancomp/internal/store"
	"humancomp/internal/task"
)

// TestRequeueAllocatesWhatItKeeps: after a replay, RequeueOpen allocates
// the queue state it keeps — an entry (32 B), a slot in the entry table, a
// slot in the heap — plus the sorted list of open tasks, each sized once.
// Grown by doubling, with a per-task shadow entry in the trace recorder, it
// cost about 220 B and two allocations a task.
func TestRequeueAllocatesWhatItKeeps(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the production ones under the race detector")
	}
	const n = 20000
	var log bytes.Buffer
	wal := store.NewWAL(&log)
	for i := 1; i <= n; i++ {
		tk, err := task.New(task.ID(i), task.Label, task.Payload{ImageID: i}, 3, t0.Add(time.Duration(i)*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		tk.Priority = i % 4
		if err := wal.Append(store.Event{Kind: store.EventSubmit, At: tk.CreatedAt, Task: tk}); err != nil {
			t.Fatal(err)
		}
	}
	s, _ := newSystem()
	if _, err := store.ReplayWAL(bytes.NewReader(log.Bytes()), s.Store()); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := s.RequeueOpen(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	objects, size := int64(after.Mallocs-before.Mallocs), int64(after.TotalAlloc-before.TotalAlloc)
	t.Logf("%.2f allocs, %.0f B per task", float64(objects)/n, float64(size)/n)
	// The constant is the entry table's own storage: a map this size is a
	// few dozen tables.
	if objects > n+128 || size > 112*n {
		t.Fatalf("requeueing %d open tasks took %d allocations and %d B; want at most 1 and 112 B a task", n, objects, size)
	}
	if got := s.Stats().Queue.Open; got != n {
		t.Fatalf("queue holds %d open tasks after requeue, want %d", got, n)
	}
}
