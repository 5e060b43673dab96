package store

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"humancomp/internal/task"
)

// TestTableTakesAnyID: the table holds every ID the codec accepts — the
// extremes, negative IDs, zero, both sides of a page boundary, IDs far
// apart — and gives each back in ascending order through every read and
// through a snapshot and restore; Insert refuses what it always refused;
// and a sparse ID costs at most one page.
func TestTableTakesAnyID(t *testing.T) {
	ids := []task.ID{math.MinInt64, -4, 0, 1, 1023, 1024, 1 << 62, math.MaxInt64}
	open := func(id task.ID) *task.Task {
		return &task.Task{ID: id, Kind: task.Label, Payload: task.Payload{ImageID: 1}, Redundancy: 1, CreatedAt: task.StampOf(t0)}
	}

	put, inserted := New(), New()
	var batch []*task.Task
	for i := len(ids) - 1; i >= 0; i-- {
		put.Put(open(ids[i]))
		batch = append(batch, open(ids[i]))
	}
	if refused := inserted.Insert(batch); len(refused) != 0 {
		t.Fatalf("Insert refused %v of free IDs", refused)
	}
	held, _ := inserted.Get(-4)
	done, other, last := open(5), open(-4), open(math.MinInt64)
	done.Status = task.Done
	other.Priority, last.Priority = 1, 1
	if refused := inserted.Insert([]*task.Task{other, held, done, last}); !slices.Equal(refused, []int{0, 2, 3}) {
		t.Fatalf("Insert refused %v, want [0 2 3]: a second record under a held ID and a task not open", refused)
	}

	for name, s := range map[string]*Store{"Put": put, "Insert": inserted} {
		restored := New()
		if err := restored.Restore(bytes.NewReader(streamedBytes(t, s, nil))); err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		for _, s := range []*Store{s, restored} {
			for _, id := range ids {
				if tk, err := s.Get(id); err != nil || tk.ID != id {
					t.Fatalf("%s: Get(%d) = %v, %v", name, id, tk, err)
				}
			}
			for _, id := range []task.ID{-5, 2, 1025, math.MaxInt64 - 1} {
				if _, err := s.Get(id); err != ErrNotFound {
					t.Fatalf("%s: Get(%d) of an ID never stored: %v", name, id, err)
				}
			}
			if got := s.IDs(AnyStatus); !slices.Equal(got, ids) {
				t.Fatalf("%s: IDs = %v, want %v", name, got, ids)
			}
			if got := s.IDs(task.Open); !slices.Equal(got, ids) {
				t.Fatalf("%s: IDs(Open) = %v, want %v", name, got, ids)
			}
			if s.Len() != len(ids) || s.Count(task.Open) != len(ids) || s.Count(task.Done) != 0 {
				t.Fatalf("%s: Len %d, Count(Open) %d, Count(Done) %d; want %d, %d, 0",
					name, s.Len(), s.Count(task.Open), s.Count(task.Done), len(ids), len(ids))
			}
		}
		if a, b := streamedBytes(t, s, nil), streamedBytes(t, restored, nil); !bytes.Equal(a, b) {
			t.Fatalf("%s: snapshot of the restored store differs\n got %s\nwant %s", name, b, a)
		}
	}

	if raceEnabled {
		return // the allocation figures are the production ones only without the detector
	}
	// A page is 64 KiB of task records and a 144-B pageRef; the page map
	// and the sorted key list grow now and then, and the process may
	// allocate meanwhile. Two pages would be 128 KiB.
	// Each trial stores the ID into a fresh store that holds the IDs before it.
	const slack = 4 << 10
	var s *Store
	for i, id := range ids {
		_, size := leastMallocs(func() func() {
			s = New()
			for _, prev := range ids[:i] {
				s.Put(open(prev))
			}
			tk := open(id)
			return func() { s.Put(tk) }
		})
		if size > int64(unsafe.Sizeof(page{}))+slack {
			t.Errorf("storing ID %d allocated %d B; want at most one page (%d B)", id, size, unsafe.Sizeof(page{}))
		}
	}
	if len(s.tab.keys) != 6 || len(s.tab.pages) != 6 {
		t.Fatalf("%d IDs over six pages made %d pages", len(ids), len(s.tab.pages))
	}
}

// TestPageIsWholeRuntimePages: a task record is 64 B, and a page of 1024
// of them exactly 64 KiB, eight of the runtime's 8-KiB pages, which it
// allocates as one large object with no header and no tail. Holding its
// presence bitmap too, a page would be 64 KiB and 128 B, served as 72 KiB.
func TestPageIsWholeRuntimePages(t *testing.T) {
	if got := unsafe.Sizeof(task.Task{}); got != 64 {
		t.Fatalf("task.Task is %d B; want 64", got)
	}
	if got := unsafe.Sizeof(page{}); got != 64<<10 {
		t.Fatalf("a page's task array is %d B; want %d", got, 64<<10)
	}
	if raceEnabled {
		return
	}
	// The process may allocate meanwhile, but not the 8 KiB more a page
	// with a header or a tail would take.
	var p *page
	if _, size := leastMallocs(func() func() { return func() { p = new(page) } }); size < 64<<10 || size >= 72<<10 {
		t.Fatalf("allocating a page took %d B; want %d", size, 64<<10)
	}
	runtime.KeepAlive(p)
}
