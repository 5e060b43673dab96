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

// liveHeap returns the bytes held by live heap objects, after a collection.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestTaskRecordSize: an open task is stored as one task.Task of 64 B, the
// runtime's 64-B size class. Kind, Status, the 16-bit Redundancy and the
// 11-byte CreatedAt share two words; what only an answered or ended task
// holds, its DoneAt and answers, is behind one pointer, nil while it is
// open. The payload inputs only some kinds use are behind another, which
// an image task leaves nil, so the payload is two ints and that pointer. A
// stored answer's time is an 11-byte Stamp too, which makes an Answer
// 120 B.
func TestTaskRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(task.Task{}); got != 64 {
		t.Errorf("task.Task is %d B; want 64", got)
	}
	if got := unsafe.Sizeof(task.Payload{}); got != 24 {
		t.Errorf("task.Payload is %d B; want 24: ImageID, ImageB and the Detail pointer", got)
	}
	if got := unsafe.Sizeof(task.Answer{}); got != 120 {
		t.Errorf("task.Answer is %d B; want 120", got)
	}
}

// replayLog replays log into a fresh store and returns the store and the
// live heap it added, per task.
func replayLog(t *testing.T, log []byte, tasks int) (*Store, float64) {
	t.Helper()
	s := New()
	before := liveHeap()
	if _, err := ReplayWALObserved(bytes.NewReader(log), s, nil); err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	runtime.KeepAlive(log)
	if s.Len() != tasks {
		t.Fatalf("replayed %d tasks, want %d", s.Len(), tasks)
	}
	return s, float64(after-before) / float64(tasks)
}

// compareLog is a log of n compare submits at the given redundancy, each
// task answered by the given number of workers, whose IDs are 16 B.
func compareLog(t *testing.T, n, redundancy, answers int) []byte {
	t.Helper()
	var log bytes.Buffer
	wal := NewWAL(&log)
	for i := 1; i <= n; i++ {
		tk, err := task.New(task.ID(i), task.Compare, task.Payload{ImageID: i, ImageB: i + 1}, redundancy, t0)
		if err != nil {
			t.Fatal(err)
		}
		if err := wal.AppendBatch([]Event{{Kind: EventSubmit, At: t0, Task: tk}}); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < answers; w++ {
			a := task.Answer{WorkerID: fmt.Sprintf("worker-%09d", w), Choice: w & 1}
			if err := wal.AppendBatch([]Event{{Kind: EventAnswer, At: t0.Add(time.Second), TaskID: tk.ID, Answer: &a}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return log.Bytes()
}

// pageCost is what a table page costs the heap: its 64-KiB task array,
// served with no header and no tail, and its pageRef, 136 B, served from
// the runtime's 144-B size class.
const pageCost = 64<<10 + 144

// pageShare is each task's share of the pages that hold n tasks under IDs
// 1 to n: a full page is 64.14 B a task, and the last is partly empty.
func pageShare(n int) float64 { return float64((n>>pageBits+1)*pageCost) / float64(n) }

// TestOpenTaskHeap: an open task in a backlog costs its 64-B record in a
// table page, and nothing else: after replaying 50 000 compare submits the
// live heap is the 49 pages that hold them, the last of them 83 % full,
// a page map and key list of under 2 KiB, and whatever the process
// allocates meanwhile (the 0.25 B a task of slack). As a 64-B object of
// its own beside an 8-B slot of a page of pointers it made 73.3 B, and as
// a 96-B one 105.3 B.
func TestOpenTaskHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the production heap")
	}
	const n = 50_000
	s, perTask := replayLog(t, compareLog(t, n, 3, 0), n)
	t.Logf("%.2f B of live heap per open task; the pages are %.2f", perTask, pageShare(n))
	if perTask > pageShare(n)+0.25 {
		t.Fatalf("an open task holds %.2f B of heap; want at most its %.2f B share of the pages", perTask, pageShare(n))
	}
	runtime.KeepAlive(s)
}

// TestDoneTaskHeap: an answered task costs no more than when its answers
// hung off a 96-B task in a slice of their own. Its ended record holds its
// DoneAt and its answers (120 B each, with a Stamp for a time) in one
// allocation, with room for as many answers as it wants: at redundancy 1
// the 64-B task and a 160-B record, at redundancy 3 a 416-B record —
// exactly what the 96-B task and a slice of one or three 128-B answers
// cost, 224 and 480 B. Each answer's worker ID is 16 B more. The task
// itself is its share of the pages; as an object of its own beside a
// pointer slot it made 249.5 and 537.5 B.
func TestDoneTaskHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the production heap")
	}
	const n = 10_000
	for _, c := range []struct{ redundancy, ceiling int }{{1, 224 + 16}, {3, 480 + 3*16}} {
		s, perTask := replayLog(t, compareLog(t, n, c.redundancy, c.redundancy), n)
		t.Logf("redundancy %d: %.1f B of live heap per done task", c.redundancy, perTask)
		if want := float64(c.ceiling-64) + pageShare(n) + 1; s.Count(task.Done) != n || perTask > want {
			t.Fatalf("redundancy %d: %d of %d tasks done, %.1f B a task; want all done at most %.1f B", c.redundancy, s.Count(task.Done), n, perTask, want)
		}
		runtime.KeepAlive(s)
	}
}

// TestReplayAllocatesWhatItKeeps: replaying a record allocates the state
// the record adds to the store and no decoding scratch. A submit record of
// an image task (no Detail, nothing answered) is decoded into the
// scanner's own task and copied into its 64-B slot of a table page, which
// is allocated once per 1024 tasks and never regrown: it allocates nothing
// of its own. Decoded into a task of its own beside a slot of a page of
// pointers it cost 1 allocation and 73 B, through encoding/json 12
// allocations and some 900 B, and into a Go map, which doubles its way up,
// 1.01 allocations and 252 B. The scanner's read buffer is charged to the
// records too. An answer record leaves the answer's worker ID and word
// list, and once a task the ended record that holds the answers; the
// Answer it is decoded into belongs to the scanner.
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
		if err := wal.AppendBatch([]Event{{Kind: EventSubmit, At: tk.CreatedAt.Time(), Task: tk}}); err != nil {
			t.Fatal(err)
		}
	}
	wal = NewWAL(&answers)
	for i := 1; i <= n; i++ {
		a := task.Answer{WorkerID: fmt.Sprintf("worker-%04d", i), Words: []int{i, 7}}
		if err := wal.AppendBatch([]Event{{Kind: EventAnswer, At: t0.Add(time.Hour), TaskID: task.ID(1 + i%(n/3)), Answer: &a}}); err != nil {
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
	// The pages, the page map, the key list, the scanner and whatever else
	// the process allocates meanwhile: 23 on a quiet host. The scanner's
	// buffers are 64 KiB and a record's.
	if want := int64(pageShare(n)*n) + 80<<10; objects > n/100 || size > want {
		t.Fatalf("replaying %d submit records took %d allocations and %d B; want at most %d and %d B", n, objects, size, n/100, want)
	}
	// Three answers to each of n/3 tasks: per record a worker ID (16 B), a
	// two-word list (16 B), a third of an ended record with three answer
	// slots (416 B).
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
