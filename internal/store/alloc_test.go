package store

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"humancomp/internal/task"
)

// mallocs runs fn and returns the heap objects and bytes it allocated.
func mallocs(fn func()) (objects, bytes int64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs - before.Mallocs), int64(after.TotalAlloc - before.TotalAlloc)
}

// leastMallocs is mallocs of the function setup returns, least of three
// trials. The counters are the whole process's, so a goroutine the runtime
// starts meanwhile is charged to fn too; what fn itself allocates is the
// same each trial, and the other allocations only add to it.
func leastMallocs(setup func() func()) (objects, bytes int64) {
	for trial := 0; trial < 3; trial++ {
		o, b := mallocs(setup())
		if trial == 0 || o < objects {
			objects = o
		}
		if trial == 0 || b < bytes {
			bytes = b
		}
	}
	return objects, bytes
}

// TestTaskRecordSize: a task is stored as one task.Task, which the runtime
// serves from the smallest size class that holds it, 96 B. Kind and Status
// are adjacent bytes, and the two 11-byte Stamps, CreatedAt and DoneAt,
// fill the rest of their three words. The payload inputs only some kinds
// use are behind one pointer, which an image task leaves nil, so the
// payload is two ints and that pointer.
func TestTaskRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(task.Task{}); got > 96 {
		t.Errorf("task.Task is %d B; want at most 96, its size class", got)
	}
	if got := unsafe.Sizeof(task.Payload{}); got != 24 {
		t.Errorf("task.Payload is %d B; want 24: ImageID, ImageB and the Detail pointer", got)
	}
}

// TestReplayAllocatesWhatItKeeps: replaying a record allocates the state
// the record adds to the store and no decoding scratch. A submit record of
// an image task leaves a task.Task (96 B, no Detail) and fills an 8-byte
// slot of a table page, which is allocated once per 1024 tasks and never
// regrown; through encoding/json it cost 12 allocations and some 900 B,
// and into a Go map, which doubles its way up, 1.01 allocations and 252 B.
// The scanner's read buffer is charged to the records too. An answer
// record leaves the answer's worker ID and word list, and once a task the
// answers slice; the Answer it is decoded into belongs to the scanner.
func TestReplayAllocatesWhatItKeeps(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the production ones under the race detector")
	}
	const n = 6000
	var submits, answers bytes.Buffer
	wal := NewWAL(&submits)
	for i := 1; i <= n; i++ {
		tk, err := task.New(task.ID(i), task.Label, task.Payload{ImageID: i}, 3, t0.Add(time.Duration(i)*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		if err := wal.Append(Event{Kind: EventSubmit, At: tk.CreatedAt.Time(), Task: tk}); err != nil {
			t.Fatal(err)
		}
	}
	wal = NewWAL(&answers)
	for i := 1; i <= n; i++ {
		a := task.Answer{WorkerID: fmt.Sprintf("worker-%04d", i), Words: []int{i, 7}}
		if err := wal.Append(Event{Kind: EventAnswer, At: t0.Add(time.Hour), TaskID: task.ID(1 + i%(n/3)), Answer: &a}); err != nil {
			t.Fatal(err)
		}
	}

	s := New()
	replay := func(log *bytes.Buffer) func() {
		return func() {
			if st, err := ReplayWALObserved(bytes.NewReader(log.Bytes()), s, nil); err != nil || st.Applied != n {
				t.Fatalf("replay: %+v, %v", st, err)
			}
		}
	}
	objects, size := mallocs(replay(&submits))
	t.Logf("submit records: %d allocs, %.0f B per record", objects, float64(size)/n)
	// Beyond the tasks: the pages, the page map, the key list and whatever
	// else the process allocates meanwhile, 19 to 25 on a quiet host.
	if objects > n+n/100 || size > 128*n {
		t.Fatalf("replaying %d submit records took %d allocations and %d B; want at most 1.01 and 128 B a record", n, objects, size)
	}
	// Three answers to each of n/3 tasks: per record a worker ID (16 B), a
	// two-word list (16 B), a third of a three-slot answers slice (128 B).
	objects, size = mallocs(replay(&answers))
	t.Logf("answer records: %.2f allocs, %.0f B per record", float64(objects)/n, float64(size)/n)
	if objects > 3*n || size > 192*n {
		t.Fatalf("replaying %d answer records took %d allocations and %d B; want at most 3 and 192 B a record", n, objects, size)
	}
}

// TestCheckpointEncodeDoesNotAllocate: a checkpoint walks the table in ID
// order and encodes each task from where it is stored into one reused
// buffer, so what it allocates — two buffers — does not grow with the
// table. Collecting and sorting the IDs first cost a list of 8 B a task
// besides.
func TestCheckpointEncodeDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the production ones under the race detector")
	}
	for _, n := range []int{1000, 16000} {
		s := New()
		for i := 1; i <= n; i++ {
			s.Put(&task.Task{ID: task.ID(i), Kind: task.Compare, Payload: task.Payload{ImageID: i, ImageB: i + 1}, Redundancy: 3, Priority: i % 4, CreatedAt: task.StampOf(t0)})
		}
		snapshot := func() {
			if err := s.Snapshot(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
		objects, size := leastMallocs(func() func() { return snapshot })
		t.Logf("%d tasks: %d allocs, %d B", n, objects, size)
		if objects > 24 || size > snapshotBufSize+4<<10 {
			t.Fatalf("snapshot of %d answer-less tasks took %d allocations and %d B; want a constant few and the write buffer", n, objects, size)
		}
	}
}
