// Package store provides the persistence layer of the dispatch service: an
// in-memory task table with a monotonic ID allocator and JSON
// snapshot/restore, so a service can checkpoint its state to disk and pick
// up where it left off. The snapshot format is plain JSON — inspectable
// with standard tools and stable across versions that do not change the
// task schema.
//
// One RWMutex guards the table and the contents of every task in it; the
// critical sections are a map operation or one task's copy.
//
// Every whole-table read — ViewAll, ViewByStatus, Snapshot, the dispatch
// task list — is one ordered walk: collect the task IDs (8 bytes a task,
// the only whole-table allocation), sort them, then visit the tasks in that
// order, copying each (Snapshot: encoding each) under the read lock, which
// is taken per task and released before the copy is handed on. A walk over
// a live store is therefore consistent per task, not across the table: a
// task is copied whole, two tasks may be copied either side of a concurrent
// write. Nothing that needs more walks the table under traffic — a node
// snapshots at boot, before it serves, and after it has drained. The
// requeue after recovery copies nothing: Tasks hands the live open tasks,
// in ID order, to the queue, which makes the list its heap.
package store

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"humancomp/internal/task"
	"humancomp/internal/trace"
)

// ErrNotFound is returned by Get for unknown task IDs.
var ErrNotFound = errors.New("store: task not found")

// Store is an in-memory task table. Safe for concurrent use.
//
// Locking discipline: mu guards the map AND the contents of every task
// stored in it. A stored task changes only through Apply, which holds the
// write lock, so View and the ordered walk hand out consistent deep copies
// under the read lock.
type Store struct {
	mu     sync.RWMutex
	tasks  map[task.ID]*task.Task
	lockN  int64 // write-lock acquisitions, guarded by mu
	nextID atomic.Int64
	rec    *trace.Recorder // lifecycle event sink; nil records nothing
}

// New returns an empty store.
func New() *Store { return &Store{tasks: make(map[task.ID]*task.Task)} }

// NewSharded is New. Kept for bench/ only, which is frozen while this
// lands; the next benchmark PR calls New and deletes it.
func NewSharded(int) *Store { return New() }

// Shards is 1. Kept for bench/ only; see NewSharded.
func (s *Store) Shards() int { return 1 }

// SetRecorder attaches a lifecycle trace recorder. It must be called
// before the store sees traffic (the core does so at construction); a nil
// recorder — the default — records nothing.
func (s *Store) SetRecorder(rec *trace.Recorder) { s.rec = rec }

// LockCount returns how many times the write lock has been acquired for a
// mutation (Put, PutBatch, Insert, Apply).
func (s *Store) LockCount() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lockN
}

// lock acquires the write lock and counts the acquisition.
func (s *Store) lock() {
	s.mu.Lock()
	s.lockN++
}

// NextID allocates a fresh task ID. The allocator is a single atomic
// word — no lock is taken on the submit path.
func (s *Store) NextID() task.ID { return task.ID(s.nextID.Add(1)) }

// advanceNextID moves the allocator past id so future NextID calls never
// collide with an explicitly inserted or restored task.
func (s *Store) advanceNextID(id task.ID) {
	for {
		cur := s.nextID.Load()
		if int64(id) <= cur || s.nextID.CompareAndSwap(cur, int64(id)) {
			return
		}
	}
}

// Put inserts or replaces a task.
func (s *Store) Put(t *task.Task) {
	s.lock()
	s.tasks[t.ID] = t
	s.mu.Unlock()
	s.advanceNextID(t.ID)
	s.rec.Append(trace.Event{TaskID: t.ID, Stage: trace.StagePersist, At: t.CreatedAt})
}

// PutBatch inserts or replaces many tasks under one hold of the write
// lock. Per-task trace events are still emitted individually.
func (s *Store) PutBatch(ts []*task.Task) {
	maxID := task.ID(0)
	s.lock()
	for _, t := range ts {
		s.tasks[t.ID] = t
		maxID = max(maxID, t.ID)
	}
	s.mu.Unlock()
	s.advanceNextID(maxID)
	for _, t := range ts {
		s.rec.Append(trace.Event{TaskID: t.ID, Stage: trace.StagePersist, At: t.CreatedAt})
	}
}

// Insert stores each open task of ts whose ID is free, under one hold of
// the write lock, and returns the indices of the tasks it refused, in
// order: those not open and those whose ID holds a different task. A task
// already stored under its ID is left as it is and not refused. It is the
// queue's half of a submit, which stores and enqueues under the queue lock.
func (s *Store) Insert(ts []*task.Task) (refused []int) {
	maxID := task.ID(0)
	s.lock()
	for i, t := range ts {
		held, ok := s.tasks[t.ID]
		switch {
		case t.Status != task.Open || ok && held != t:
			refused = append(refused, i)
		case !ok:
			s.tasks[t.ID] = t
			maxID = max(maxID, t.ID)
			s.rec.Append(trace.Event{TaskID: t.ID, Stage: trace.StagePersist, At: t.CreatedAt})
		}
	}
	s.mu.Unlock()
	s.advanceNextID(maxID)
	return refused
}

// Apply is the one function that changes a stored task: it applies the
// event of kind — an answer a, a cancel or a finish — to task id at time
// at, under the write lock, and returns the task. The queue calls it under
// its own lock and journals the event only once it has returned nil;
// replay and follower apply call it through ApplyEvent, so the live state
// and the recovered one are made by the same code in the same order. An
// event the task refuses changes nothing and returns the task's error —
// task.ErrWrongStatus for a task that is not open, task.ErrWorkerRepeat,
// an invalid answer — and an unknown task is ErrNotFound. The event comes
// as its fields, not as an Event: a struct whose time is kept would take
// the answer's address with it to the heap, an allocation an answer.
func (s *Store) Apply(kind EventKind, id task.ID, a *task.Answer, at time.Time) (*task.Task, error) {
	s.lock()
	defer s.mu.Unlock()
	t, ok := s.tasks[id]
	if !ok {
		return nil, ErrNotFound
	}
	var err error
	switch kind {
	case EventAnswer:
		err = t.Record(*a, at)
	case EventCancel:
		err = t.Cancel(at)
	case EventFinish:
		err = t.Finish(at)
	default:
		err = fmt.Errorf("store: %q is not a change to a stored task", kind)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// View returns an immutable deep-copy snapshot of the task with the given
// ID, or ErrNotFound. This is the only safe way to read a task while the
// queue is running.
func (s *Store) View(id task.ID) (task.View, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tasks[id]
	if !ok {
		return task.View{}, ErrNotFound
	}
	return t.View(), nil
}

// AnyStatus makes IDs and ViewByStatus select every task.
const AnyStatus task.Status = -1

// IDs returns, in ascending order, the ID of every stored task that has
// status st (or any, for AnyStatus).
func (s *Store) IDs(st task.Status) []task.ID {
	var out []task.ID
	s.mu.RLock()
	if st == AnyStatus {
		out = make([]task.ID, 0, len(s.tasks))
	}
	for id, t := range s.tasks {
		if st == AnyStatus || t.Status == st {
			out = append(out, id)
		}
	}
	s.mu.RUnlock()
	slices.Sort(out)
	return out
}

// Walk calls fn with a deep copy of each listed task, in list order. Each
// copy is taken under the read lock, released before fn runs,
// so fn may block on I/O. IDs deleted since the list was made are skipped.
// v is reused between calls: fn keeps *v, never v. The first error from fn
// ends the walk and is returned.
func (s *Store) Walk(ids []task.ID, fn func(v *task.View) error) error {
	var v task.View
	for _, id := range ids {
		var err error
		if v, err = s.View(id); err != nil {
			continue
		}
		if err := fn(&v); err != nil {
			return err
		}
	}
	return nil
}

// ViewAll returns a snapshot of every task, ordered by ID.
func (s *Store) ViewAll() []task.View { return s.ViewByStatus(AnyStatus) }

// ViewByStatus returns a snapshot of every task with the given status,
// ordered by ID.
func (s *Store) ViewByStatus(st task.Status) []task.View {
	ids := s.IDs(st)
	out := make([]task.View, 0, len(ids))
	_ = s.Walk(ids, func(v *task.View) error {
		if st == AnyStatus || v.Status == st { // it may have moved on since the IDs were listed
			out = append(out, *v)
		}
		return nil
	})
	return out
}

// Get returns the task with the given ID or ErrNotFound.
func (s *Store) Get(id task.ID) (*task.Task, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tasks[id]
	if !ok {
		return nil, ErrNotFound
	}
	return t, nil
}

// Count returns how many stored tasks have status st: len(IDs(st)) without
// building the list.
func (s *Store) Count(st task.Status) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.countLocked(st)
}

func (s *Store) countLocked(st task.Status) int {
	n := 0
	for _, t := range s.tasks {
		if t.Status == st {
			n++
		}
	}
	return n
}

// Tasks returns, in ascending ID order, the stored tasks that have status
// st: the live tasks, not copies, collected under one hold of the read lock
// into a list sized once. The requeue after a restore or a promotion takes
// the open ones as the queue's heap, so this list is the requeue's one
// allocation.
func (s *Store) Tasks(st task.Status) []*task.Task {
	s.mu.RLock()
	out := make([]*task.Task, 0, s.countLocked(st))
	for _, t := range s.tasks {
		if t.Status == st {
			out = append(out, t)
		}
	}
	s.mu.RUnlock()
	slices.SortFunc(out, func(a, b *task.Task) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Len returns the number of stored tasks.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tasks)
}

// The snapshot is one JSON document,
//
//	{"version":1,"next_id":N,"tasks":[…ascending by ID…],"calibration":{…}}
//
// followed by a newline: byte for byte what json.Encoder makes of a struct
// with those four fields, calibration omitted when empty. The calibration
// is an opaque sidecar the quality plane stores alongside task state (gold
// expectations, reputation tallies, estimator state); the store carries it
// verbatim, older snapshots simply lack the field and older readers ignore
// it.
const (
	snapshotVersion = 1
	// snapshotBufSize is the most a snapshot holds back before writing.
	snapshotBufSize = 64 << 10
)

// Snapshot writes the store as JSON to w.
func (s *Store) Snapshot(w io.Writer) error { return s.SnapshotWith(w, nil) }

// SnapshotWith is Snapshot with an opaque calibration sidecar embedded in
// the same document, so task state and quality-plane state are captured in
// one file. The document is streamed — an ordered walk encodes one task at
// a time, straight from the stored task under the read lock, into a
// reused buffer and from there through a snapshotBufSize writer — so a
// snapshot costs the ID list and two buffers, not a copy of the table or of
// any task, and on an error w is left holding a prefix: write files beside
// their target and rename. Taken from a live store the cut is per task.
func (s *Store) SnapshotWith(w io.Writer, calibration json.RawMessage) error {
	bw := bufio.NewWriterSize(w, snapshotBufSize)
	fmt.Fprintf(bw, `{"version":%d,"next_id":%d,"tasks":[`, snapshotVersion, s.nextID.Load())
	var doc []byte // one task's text; the lock is not held across a Write
	first := true
	for _, id := range s.IDs(AnyStatus) {
		var err error
		if doc, err = s.appendTaskJSON(doc[:0], id); err != nil {
			return err
		}
		if len(doc) == 0 { // deleted since the IDs were listed
			continue
		}
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.Write(doc)
	}
	bw.WriteByte(']')
	if len(calibration) > 0 {
		// Once a document, not once a task: encoding/json compacts and
		// escapes whatever JSON the sidecar's producer wrote.
		cal, err := json.Marshal(calibration)
		if err != nil {
			return err
		}
		bw.WriteString(`,"calibration":`)
		bw.Write(cal)
	}
	bw.WriteString("}\n")
	return bw.Flush() // bufio errors are sticky: this reports the first failed write
}

// appendTaskJSON appends the JSON of the stored task id to b, encoding it
// under the read lock; an ID no longer stored appends nothing.
func (s *Store) appendTaskJSON(b []byte, id task.ID) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tasks[id]
	if !ok {
		return b, nil
	}
	return t.AppendJSON(b)
}

// Restore replaces the store's contents with the snapshot read from r and
// seeds the ID allocator past both the snapshot's recorded next_id and the
// largest restored task ID, so post-restore NextID calls never collide.
func (s *Store) Restore(r io.Reader) error {
	_, err := s.RestoreWith(r)
	return err
}

// RestoreWith is Restore returning the snapshot's calibration sidecar (nil
// when the snapshot predates it) for the quality plane to rebuild from. The
// document is read a value at a time and each task decoded straight into
// the map it will live in, so a restore holds the state it builds and
// one task's text, not the document. Fields may come in any order and
// unknown ones are skipped; nothing is swapped in until the whole document,
// its version included, has been accepted, so a failed restore leaves the
// store as it was.
func (s *Store) RestoreWith(r io.Reader) (json.RawMessage, error) {
	var (
		d             = docReader{r: r, buf: make([]byte, 0, snapshotBufSize)}
		version       int
		nextID, maxID task.ID
		calibration   json.RawMessage
		fresh         = make(map[task.ID]*task.Task)
	)
	err := d.object(func(key string) error {
		if key == "tasks" {
			largest, err := decodeTasks(&d, fresh)
			maxID = max(maxID, largest)
			return err
		}
		// The document's own few fields: once a restore, so encoding/json
		// reads (and, for the fields skipped, only checks) them.
		raw, err := d.value()
		if err != nil {
			return err
		}
		switch key {
		case "version":
			return json.Unmarshal(raw, &version)
		case "next_id":
			return json.Unmarshal(raw, &nextID)
		case "calibration":
			return json.Unmarshal(raw, &calibration)
		}
		if !json.Valid(raw) {
			return fmt.Errorf("field %q is not JSON", key)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: decoding snapshot: %w", err)
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("store: unsupported snapshot version %d", version)
	}
	s.mu.Lock()
	s.tasks = fresh
	s.mu.Unlock()
	s.nextID.Store(int64(max(nextID, maxID)))
	return calibration, nil
}

// decodeTasks reads the tasks array next in d, one task at a time, into
// fresh, and returns the largest task ID it held.
func decodeTasks(d *docReader, fresh map[task.ID]*task.Task) (largest task.ID, err error) {
	err = d.array(func(raw []byte) error {
		t := new(task.Task)
		if err := t.DecodeJSON(raw); err != nil {
			return err
		}
		if _, dup := fresh[t.ID]; dup {
			return fmt.Errorf("duplicate task ID %d", t.ID)
		}
		fresh[t.ID] = t
		largest = max(largest, t.ID)
		return nil
	})
	return largest, err
}
