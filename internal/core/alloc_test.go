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
// the queue state it keeps and nothing else: the store's sorted list of
// open tasks, a pointer a task, sized once, which becomes the heap as it
// is. Grown by doubling, with a per-task shadow entry in the trace
// recorder, it cost about 220 B and two allocations a task; with a 32-byte
// queue entry per task, 78 B and one; with a task table beside the heap
// and a copy of the list, 46 B.
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
	s.RequeueOpen()
	runtime.ReadMemStats(&after)
	objects, size := int64(after.Mallocs-before.Mallocs), int64(after.TotalAlloc-before.TotalAlloc)
	t.Logf("%d allocs, %.0f B per task", objects, float64(size)/n)
	if objects > 8 || size > 16*n {
		t.Fatalf("requeueing %d open tasks took %d allocations and %d B; want at most 8 and 16 B a task", n, objects, size)
	}
	if got := s.Stats().Queue.Open; got != n {
		t.Fatalf("queue holds %d open tasks after requeue, want %d", got, n)
	}
}
