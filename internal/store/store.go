// Package store provides the persistence layer of the dispatch service: an
// in-memory task table with a monotonic ID allocator and JSON
// snapshot/restore, so a service can checkpoint its state to disk and pick
// up where it left off. The snapshot format is plain JSON — inspectable
// with standard tools and stable across versions that do not change the
// task schema. It is written a task at a time by the task codec and read
// back by encoding/json's json.Decoder, which hands each task to the same
// codec, so what a restore accepts and refuses is encoding/json's.
//
// The table is paged by ID (see table): a stored task is a record in a page,
// not an allocation of its own, and the tasks of each status are counted as they come and change,
// so Len and Count are lookups and every whole-table read — Tasks (the
// requeue's heap), Views (a page of the dispatch task list), Snapshot, the
// restore that fills a fresh table — is one walk in ID order, with no ID
// list and no sort. One RWMutex guards the table and the contents of every
// task in it. Tasks and Views walk under one hold of the read lock;
// Snapshot takes it once a task and writes with it released, so a snapshot
// of a live store is consistent per task, not across the table: a task is
// encoded whole, two tasks may be encoded either side of a concurrent
// write. Nothing that needs more snapshots the table under traffic — a node
// snapshots at boot, before it serves, and after it has drained. The
// requeue after recovery copies nothing: Tasks hands the live open tasks,
// in ID order, to the queue, which makes the list its heap.
package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"humancomp/internal/task"
	"humancomp/internal/trace"
)

// ErrNotFound is returned by View, AppendJSON and Apply for unknown task
// IDs.
var ErrNotFound = errors.New("store: task not found")

// Store is an in-memory task table. Safe for concurrent use.
//
// Locking discipline: mu guards the table — its pages, their order and its
// counts — AND the contents of every task stored in it. A stored task
// changes only through Apply, which holds the write lock and recounts its
// status, so View, Views and AppendJSON copy or encode a consistent task
// under the read lock.
type Store struct {
	mu     sync.RWMutex
	tab    table
	lockN  int64 // write-lock acquisitions, guarded by mu
	nextID atomic.Int64
	rec    *trace.Recorder // lifecycle event sink; nil records nothing
}

// New returns an empty store.
func New() *Store { return new(Store) }

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

// Put copies t into the store, in place of any task held under its ID,
// and returns the stored task: the one reads, Apply and the queue see from
// then on. t itself is not kept.
func (s *Store) Put(t *task.Task) *task.Task { return s.put(t, true) }

// put copies t into the store in one hold of the write lock, over a task
// held under its ID only if replace is set, and returns the stored task,
// or nil when it stored nothing.
func (s *Store) put(t *task.Task, replace bool) *task.Task {
	s.lock()
	if !replace && s.tab.get(t.ID) != nil {
		s.mu.Unlock()
		return nil
	}
	stored := s.tab.put(t)
	s.mu.Unlock()
	s.advanceNextID(t.ID)
	s.rec.Append(trace.Event{TaskID: t.ID, Stage: trace.StagePersist, At: t.CreatedAt.Time()})
	return stored
}

// PutBatch is Put of each task of ts under one hold of the write lock; it
// replaces each entry of ts with the stored task. Per-task trace events are
// still emitted individually.
func (s *Store) PutBatch(ts []*task.Task) {
	maxID := task.ID(0)
	s.lock()
	for i, t := range ts {
		ts[i] = s.tab.put(t)
		maxID = max(maxID, t.ID)
	}
	s.mu.Unlock()
	s.advanceNextID(maxID)
	for _, t := range ts {
		s.rec.Append(trace.Event{TaskID: t.ID, Stage: trace.StagePersist, At: t.CreatedAt.Time()})
	}
}

// Insert stores each open task of ts whose ID is free, under one hold of
// the write lock, replaces each entry it accepts with the stored task, and
// returns the indices of the tasks it refused, in order: those not open and
// those whose ID holds a different record. A task whose very record is
// already stored under its ID (*held == *t) is not stored again and not
// refused: its entry becomes the held task. It is the queue's half of a
// submit, which stores and enqueues under the queue lock.
func (s *Store) Insert(ts []*task.Task) (refused []int) {
	maxID := task.ID(0)
	s.lock()
	for i, t := range ts {
		held := s.tab.get(t.ID)
		switch {
		case t.Status != task.Open || held != nil && *held != *t:
			refused = append(refused, i)
		case held != nil:
			ts[i] = held
		default:
			ts[i] = s.tab.put(t)
			maxID = max(maxID, t.ID)
			s.rec.Append(trace.Event{TaskID: t.ID, Stage: trace.StagePersist, At: t.CreatedAt.Time()})
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
	t := s.tab.get(id)
	if t == nil {
		return nil, ErrNotFound
	}
	was := t.Status
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
	s.tab.moved(was, t.Status)
	return t, nil
}

// View returns an immutable deep-copy snapshot of the task with the given
// ID, or ErrNotFound. View, Views and AppendJSON are the safe ways to read
// a task while the queue is running.
func (s *Store) View(id task.ID) (task.View, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.tab.get(id)
	if t == nil {
		return task.View{}, ErrNotFound
	}
	return t.View(), nil
}

// AppendJSON appends the JSON of the stored task id to b — byte for byte
// what json.Marshal makes of it, its error included — encoding the task
// where it is stored, under the read lock, rather than a copy of it. An
// unknown ID is ErrNotFound.
func (s *Store) AppendJSON(b []byte, id task.ID) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.tab.get(id)
	if t == nil {
		return b, ErrNotFound
	}
	return t.AppendJSON(b)
}

// AnyStatus makes Count, Tasks and Views select every task. It is the
// largest Status, far past the three a task can be in.
const AnyStatus task.Status = math.MaxUint8

// Views returns one page of a listing: deep copies of the stored tasks that
// have status st (or any, for AnyStatus), in ascending ID order, skipping
// the first offset of them and copying at most limit, and total, how many
// there are. The page is copied and counted under one hold of the read
// lock, so it and its total agree.
func (s *Store) Views(st task.Status, offset, limit int) (page []task.View, total int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total = s.tab.count(st)
	page = make([]task.View, 0, max(0, min(limit, total-offset)))
	if cap(page) == 0 {
		return page, total
	}
	s.tab.walk(math.MinInt64, st, func(t *task.Task) bool {
		if offset > 0 {
			offset--
			return true
		}
		page = append(page, t.View())
		return len(page) < cap(page)
	})
	return page, total
}

// Count returns how many stored tasks have status st (or any, for
// AnyStatus).
func (s *Store) Count(st task.Status) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tab.count(st)
}

// Len returns the number of stored tasks.
func (s *Store) Len() int { return s.Count(AnyStatus) }

// Tasks returns, in ascending ID order, the stored tasks that have status
// st (or any, for AnyStatus): the live tasks, not copies, collected under
// one hold of the read lock into a list sized from the count. The requeue
// after a restore or a promotion takes the open ones as the queue's heap,
// so this list is the requeue's one allocation.
func (s *Store) Tasks(st task.Status) []*task.Task {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*task.Task, 0, s.tab.count(st))
	s.tab.walk(math.MinInt64, st, func(t *task.Task) bool {
		out = append(out, t)
		return true
	})
	return out
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
// one file. The document is streamed — a walk in ID order takes the read
// lock once a task, encodes the task where it is stored into a reused
// buffer and writes it on with the lock released, through a
// snapshotBufSize writer — so a snapshot costs two buffers, not a copy of
// the table, of any task or of its IDs, and on an error w is left holding
// a prefix: write files beside their target and rename. Taken from a live
// store the cut is per task.
func (s *Store) SnapshotWith(w io.Writer, calibration json.RawMessage) error {
	bw := bufio.NewWriterSize(w, snapshotBufSize)
	fmt.Fprintf(bw, `{"version":%d,"next_id":%d,"tasks":[`, snapshotVersion, s.nextID.Load())
	var doc []byte // one task's text; the lock is not held across a Write
	for from, first := task.ID(math.MinInt64), true; ; first = false {
		var (
			found bool
			err   error
		)
		s.mu.RLock()
		s.tab.walk(from, AnyStatus, func(t *task.Task) bool {
			doc, err = t.AppendJSON(doc[:0])
			found, from = true, t.ID+1
			return false
		})
		s.mu.RUnlock()
		if !found {
			break
		}
		if err != nil {
			return err
		}
		if !first {
			bw.WriteByte(',')
		}
		bw.Write(doc)
		if from == math.MinInt64 { // the task just written holds the largest ID there is
			break
		}
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

// Restore replaces the store's contents with the snapshot read from r and
// seeds the ID allocator past both the snapshot's recorded next_id and the
// largest restored task ID, so post-restore NextID calls never collide.
func (s *Store) Restore(r io.Reader) error {
	_, err := s.RestoreWith(r)
	return err
}

// RestoreWith is Restore returning the snapshot's calibration sidecar (nil
// when the snapshot predates it) for the quality plane to rebuild from. A
// json.Decoder reads the document — its punctuation and keys a token at a
// time, each of its fields and each task one Decode — and each task goes
// from the decoder's buffer through the task codec straight into the fresh
// table it will live in, so a restore holds the state it builds and that
// buffer, not the document. Fields may come in any order and unknown ones
// are skipped; nothing is swapped in until the whole document, its version
// included, has been accepted, so a failed restore leaves the store as it
// was.
func (s *Store) RestoreWith(r io.Reader) (json.RawMessage, error) {
	var (
		dec           = json.NewDecoder(r)
		version       int
		nextID, maxID task.ID
		calibration   json.RawMessage
		fresh         table
	)
	tok, err := dec.Token()
	if err == nil && tok != json.Delim('{') {
		err = errors.New("not an object")
	}
	for err == nil && dec.More() {
		if tok, err = dec.Token(); err != nil {
			break
		}
		switch tok {
		case "version":
			err = dec.Decode(&version)
		case "next_id":
			err = dec.Decode(&nextID)
		case "calibration":
			err = dec.Decode(&calibration)
		case "tasks":
			var largest task.ID
			largest, err = decodeTasks(dec, &fresh)
			maxID = max(maxID, largest)
		default:
			err = dec.Decode(new(json.RawMessage))
		}
	}
	if err == nil {
		_, err = dec.Token() // the closing brace; what follows it is not read
	}
	if err != nil {
		return nil, fmt.Errorf("store: decoding snapshot: %w", err)
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("store: unsupported snapshot version %d", version)
	}
	s.mu.Lock()
	s.tab = fresh
	s.mu.Unlock()
	s.nextID.Store(int64(max(nextID, maxID)))
	return calibration, nil
}

// codecTask is what a task is decoded into: json.Decoder hands its
// UnmarshalJSON the task's text from the decoder's own buffer, and the task
// codec decodes it into t.
type codecTask struct{ t task.Task }

func (c *codecTask) UnmarshalJSON(doc []byte) error { return c.t.DecodeJSON(doc) }

// decodeTasks reads the tasks array next in dec — null reads as no tasks —
// one task at a time, each decoded into one scratch task and copied into
// fresh, and returns the largest task ID it held.
func decodeTasks(dec *json.Decoder, fresh *table) (largest task.ID, err error) {
	tok, err := dec.Token()
	if err != nil || tok == nil {
		return 0, err
	}
	if tok != json.Delim('[') {
		return 0, errors.New("tasks is not an array")
	}
	var c codecTask
	for dec.More() {
		if err := dec.Decode(&c); err != nil {
			return largest, err
		}
		if fresh.get(c.t.ID) != nil {
			return largest, fmt.Errorf("duplicate task ID %d", c.t.ID)
		}
		fresh.put(&c.t)
		largest = max(largest, c.t.ID)
	}
	_, err = dec.Token()
	return largest, err
}
