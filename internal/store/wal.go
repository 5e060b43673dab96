package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"humancomp/internal/task"
)

// WAL format v2: an 8-byte file header (magic "HCWL", little-endian uint16
// version, two reserved zero bytes) followed by length-prefixed,
// CRC32C-checksummed records:
//
//	uint32 LE  payload length
//	uint32 LE  CRC32C (Castagnoli) of the payload
//	payload    one JSON-encoded Event
//
// The checksum makes every torn or bit-flipped record detectable, so
// recovery scans forward, applies the longest valid prefix, and truncates
// at the first record that fails to frame or verify — a crash mid-append
// can only ever lose the one record that was never acknowledged. It is the
// only format read: a v1 log (bare JSON lines, no header) is refused with an
// error and left untouched.
var walMagic = [WALHeaderSize]byte{'H', 'C', 'W', 'L', 2, 0, 0, 0}

// WALHeaderSize is the length of the file header: record 1 of a WAL file
// starts at this offset.
const WALHeaderSize = 8

// walRecordHeader is the per-record framing overhead: length + checksum.
const walRecordHeader = 8

// maxWALRecord bounds a single record payload; a length prefix above it is
// treated as corruption, not an allocation request.
const maxWALRecord = 16 << 20

// castagnoli is the CRC32C polynomial table, shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncInterval (the default) acknowledges an append once the bytes are
	// handed to the OS and fsyncs in the background every syncEvery
	// (100ms): a process crash loses nothing, a machine crash loses at most
	// one interval.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs before acknowledging. Concurrent appends share one
	// fsync (group commit): the first writer into the sync section flushes
	// everything written so far, and the rest observe their record already
	// durable and return without their own fsync.
	SyncAlways
	// SyncNever never fsyncs; durability is whatever the OS page cache
	// provides. For benchmarks and tests.
	SyncNever
)

// ParseSyncPolicy parses the -wal-sync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "interval":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("store: unknown sync policy %q (want always, interval or never)", s)
}

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return "interval"
	}
}

// Syncer is the subset of *os.File the WAL needs for durability.
type Syncer interface{ Sync() error }

// ErrWALClosed is returned by every write after Close. Callers that race
// shutdown (a late request, a replication tap) get a stable sentinel
// instead of a buffered-writer error from a half-torn-down log.
var ErrWALClosed = errors.New("store: wal closed")

// WALOptions configures a write-ahead log writer.
type WALOptions struct {
	// Policy selects the fsync discipline. Without a Syncer (and the
	// writer not being one), every policy degrades to flush-only.
	Policy SyncPolicy
	// Syncer overrides fsync target detection; nil type-asserts the
	// writer itself.
	Syncer Syncer
	// OnRecord, when set, is called once per appended record after the
	// record has been handed to the OS (i.e. once the append will be
	// acknowledged), in sequence order, with the record's 1-based sequence
	// number and its framed bytes (length prefix, checksum, payload), which
	// it must not write to. Called with the WAL's append lock held: keep it
	// short — replication uses it to track where acked records end in the
	// file, never to block on I/O.
	OnRecord func(seq int64, frame []byte)
}

// WAL is a write-ahead log of task events: every submission, answer and
// cancellation is appended as one checksummed record before it is
// acknowledged, so a crashed service replays the log and loses nothing
// since the last snapshot. Snapshots (Store.Snapshot) bound replay length;
// the WAL covers the tail.
type WAL struct {
	mu       sync.Mutex
	w        io.Writer
	bytes    int64
	wroteHdr bool
	writeSeq int64 // appends handed to the OS
	err      error // first failed write or fsync; sticky, see fail
	closed   bool  // Close called; further appends fail with ErrWALClosed

	policy   SyncPolicy
	syncer   Syncer
	onRecord func(seq int64, frame []byte)

	// syncMu serializes fsyncs for group commit; syncedSeq (guarded by it)
	// is the highest writeSeq known durable.
	syncMu    sync.Mutex
	syncedSeq int64
	dirty     bool // flushed bytes not yet fsynced, guarded by mu

	failures atomic.Int64 // appends or syncs that returned an error

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// EventKind tags a WAL record.
type EventKind string

// WAL record kinds.
const (
	EventSubmit EventKind = "submit"
	EventAnswer EventKind = "answer"
	EventCancel EventKind = "cancel"
	// EventFinish marks a quality-plane early completion: the task reached
	// its posterior-confidence target before its full redundancy.
	EventFinish EventKind = "finish"
)

// Event is one WAL record. Exactly the fields matching Kind are set. An
// Event a RecordScanner decodes points into storage the scanner owns, its
// Task as well as its Answer and Gold, until the next Scan: the store
// copies a submitted task in, and every other consumer copies out what it
// keeps.
type Event struct {
	Kind EventKind `json:"kind"`
	At   time.Time `json:"at"`

	Task   *task.Task   `json:"task,omitempty"`    // submit: the full new task
	TaskID task.ID      `json:"task_id,omitempty"` // answer, cancel, finish
	Answer *task.Answer `json:"answer,omitempty"`  // answer
	// Gold carries a submitted gold probe's expected answer, so the
	// calibration contract — this task checks workers — survives replay.
	Gold *task.Answer `json:"gold,omitempty"` // submit (gold probes only)
}

// NewWAL returns a log appending v2 records to w with no fsync of its own
// (w is usually a buffer or an already-durable sink). Use NewWALWith for a
// file with a durability policy.
func NewWAL(w io.Writer) *WAL { return NewWALWith(w, WALOptions{Policy: SyncNever}) }

// NewWALWith returns a log appending to w under the given durability
// options. When w is an *os.File (or anything with Sync), the policy's
// fsyncs target it; otherwise fsync degrades to a no-op. Call Close to
// stop the background sync loop and flush the tail.
func NewWALWith(w io.Writer, opts WALOptions) *WAL {
	l := &WAL{
		w:        w,
		policy:   opts.Policy,
		syncer:   opts.Syncer,
		onRecord: opts.OnRecord,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if l.syncer == nil {
		l.syncer, _ = w.(Syncer)
	}
	if l.syncer != nil && l.policy == SyncInterval {
		go l.syncLoop()
	} else {
		close(l.done)
	}
	return l
}

// AppendBatch writes many events as one group: all records are framed into
// one buffer and handed to the OS with a single write, and under
// SyncAlways the whole group shares a single fsync (composing with the
// group-commit path, so concurrent batches can share that fsync too). The
// batch is acknowledged as a unit — a nil return means every event is on
// the log; a non-nil return means none of them is acknowledged, and any
// partially written tail is cut off by recovery like any torn record.
func (l *WAL) AppendBatch(events []Event) error {
	_, _, err := l.appendEvents(events)
	return err
}

// AppendObserved is AppendBatch of one event, additionally reporting where
// the time went: write covers framing, the wait for the write lock and the
// write itself; sync is the fsync-group wait (zero except under SyncAlways).
func (l *WAL) AppendObserved(e Event) (write, sync time.Duration, err error) {
	return l.appendEvents([]Event{e})
}

// AppendBatchObserved is AppendBatch with AppendObserved's timing split.
func (l *WAL) AppendBatchObserved(events []Event) (write, sync time.Duration, err error) {
	return l.appendEvents(events)
}

// appendEvents is every Append form: WriteEvents, then WaitDurable, each
// clocked.
func (l *WAL) appendEvents(events []Event) (write, sync time.Duration, err error) {
	if len(events) == 0 {
		return 0, 0, nil
	}
	t0 := time.Now()
	seq, err := l.WriteEvents(events)
	if err != nil {
		return 0, 0, err
	}
	write = time.Since(t0)
	sync, err = l.WaitDurable(seq)
	return write, sync, err
}

// WriteEvents is the first half of an append: it frames events, hands them
// to the OS with one write and returns the sequence number of the last of
// them (1-based; 0 for no events). It never fsyncs, so it may run inside a
// caller's critical section: the queue writes what it has just applied
// before it releases its lock, which makes log order apply order. The
// events are acknowledged once WaitDurable(seq) returns nil. A failed write
// or fsync fails the log for good (see fail).
func (l *WAL) WriteEvents(events []Event) (int64, error) {
	buf, err := frameEvents(events)
	if err != nil {
		return 0, err
	}
	return l.WriteFrames(buf, int64(len(events)))
}

// WriteFrames is WriteEvents for records already framed: frames is n whole
// records back to back, each as frameEvents laid it out or a RecordScanner
// verified it (Frame). It hands them to the OS with one Write, the file
// header riding along on the log's first, and then feeds the tap each
// record. A replication follower writes what it received this way, so its
// log is its leader's bytes.
func (l *WAL) WriteFrames(frames []byte, n int64) (int64, error) {
	if n == 0 {
		return 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrWALClosed
	}
	if err := l.writeRecords(frames, n); err != nil {
		l.failures.Add(1)
		return 0, err
	}
	return l.writeSeq, nil
}

// WaitDurable is the second half of an append: under SyncAlways it returns
// once every record up to seq is fsynced, sharing one fsync with concurrent
// callers, and reports how long it waited; under the other policies it
// returns at once, as it does for a seq already durable.
func (l *WAL) WaitDurable(seq int64) (time.Duration, error) {
	if l.policy != SyncAlways || l.syncer == nil {
		return 0, nil
	}
	t0 := time.Now()
	if err := l.syncTo(seq); err != nil {
		l.failures.Add(1)
		return 0, err
	}
	return time.Since(t0), nil
}

// fail records the log's first failure; every later write, and every
// fsync wait not already covered, fails with it. A failed write may have
// left a torn record that recovery cuts the log at, so nothing behind it
// could be recovered. A failed fsync may have dropped dirty pages that a
// later fsync then reports clean, so no later fsync proves anything
// durable. Caller holds mu.
func (l *WAL) fail(err error) {
	if l.err == nil {
		l.err = err
	}
}

// walRecordHint sizes the framing buffer: a typical record (header plus a
// submit or answer event) fits, so most appends allocate exactly once.
const walRecordHint = 320

// frameEvents validates events and encodes them into one contiguous
// buffer: each event's record header and JSON payload, encoded in place.
func frameEvents(events []Event) ([]byte, error) {
	buf := make([]byte, 0, len(events)*walRecordHint)
	for i := range events {
		if err := validateEvent(events[i]); err != nil {
			return nil, err
		}
		start := len(buf)
		buf = append(buf, make([]byte, walRecordHeader)...)
		var err error
		if buf, err = appendEvent(buf, &events[i]); err != nil {
			return nil, fmt.Errorf("store: encoding wal event: %w", err)
		}
		rec := buf[start:]
		payload := rec[walRecordHeader:]
		if len(payload) > maxWALRecord {
			return nil, fmt.Errorf("store: wal record of %d bytes exceeds limit", len(payload))
		}
		binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(payload, castagnoli))
	}
	return buf, nil
}

// writeRecords hands the n records in recs to the OS with one Write (the
// file header riding along on the log's first), then feeds the tap
// sub-slices of recs. Caller holds mu.
func (l *WAL) writeRecords(recs []byte, n int64) error {
	if l.err != nil {
		return l.err
	}
	out := recs
	if !l.wroteHdr {
		out = slices.Concat(walMagic[:], recs)
	}
	if _, err := l.w.Write(out); err != nil {
		// Part of out may be on the log as a torn record.
		l.fail(err)
		return err
	}
	l.wroteHdr = true
	l.bytes += int64(len(out))
	seq := l.writeSeq
	l.writeSeq += n
	l.dirty = true
	if l.onRecord == nil {
		return nil
	}
	for len(recs) > 0 {
		end := walRecordHeader + int(binary.LittleEndian.Uint32(recs))
		seq++
		l.onRecord(seq, recs[:end:end])
		recs = recs[end:]
	}
	return nil
}

// syncTo makes every append up to seq durable, batching concurrent callers
// behind one fsync: whoever holds syncMu first syncs the current tail, and
// later callers see syncedSeq already past their record. Once the log has
// failed, a record not yet durable never will be.
func (l *WAL) syncTo(seq int64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.syncedSeq >= seq {
		return nil
	}
	l.mu.Lock()
	cur, err := l.writeSeq, l.err
	l.dirty = false
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if err := l.syncer.Sync(); err != nil {
		l.mu.Lock()
		l.fail(err)
		l.mu.Unlock()
		return err
	}
	l.syncedSeq = cur
	return nil
}

// syncEvery is the SyncInterval background fsync period.
const syncEvery = 100 * time.Millisecond

// syncLoop is the SyncInterval background fsync.
func (l *WAL) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(syncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			dirty := l.dirty
			seq := l.writeSeq
			l.mu.Unlock()
			if !dirty {
				continue
			}
			if err := l.syncTo(seq); err != nil {
				l.failures.Add(1)
			}
		case <-l.stop:
			return
		}
	}
}

// Close stops the background sync loop and performs a final fsync.
// It does not close the underlying writer. Appends after Close fail with
// ErrWALClosed.
func (l *WAL) Close() error {
	l.stopOnce.Do(func() { close(l.stop) })
	<-l.done
	l.mu.Lock()
	l.closed = true
	err := l.err
	l.mu.Unlock()
	if l.syncer != nil && l.policy != SyncNever {
		if serr := l.syncer.Sync(); err == nil {
			err = serr
		}
	}
	return err
}

// Len returns the sequence number of the newest record handed to the OS:
// the count of records written through this WAL instance. Because the
// service truncates its WAL at every snapshot, sequence N is the N-th
// record in the current file — the contract the replication stream's
// from=<seq> cursor relies on.
func (l *WAL) Len() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeSeq
}

// Size returns the number of bytes appended through this WAL instance
// (header and framing included). It measures log growth since open, not
// the size of any pre-existing file contents.
func (l *WAL) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// Healthy reports whether the write path is working: true until a write
// or fsync fails, and never again after that (see fail). The service's
// readiness probe degrades on false.
func (l *WAL) Healthy() bool { return l.Err() == nil }

// Err returns the failure that failed the log, or nil while healthy.
func (l *WAL) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Failures returns how many appends or fsyncs have returned an error.
func (l *WAL) Failures() int64 { return l.failures.Load() }

func validateEvent(e Event) error {
	switch e.Kind {
	case EventSubmit:
		if e.Task == nil {
			return errors.New("store: submit event without task")
		}
	case EventAnswer:
		if e.Answer == nil || e.TaskID == 0 {
			return errors.New("store: answer event without answer or task id")
		}
	case EventCancel:
		if e.TaskID == 0 {
			return errors.New("store: cancel event without task id")
		}
	case EventFinish:
		if e.TaskID == 0 {
			return errors.New("store: finish event without task id")
		}
	default:
		return fmt.Errorf("store: unknown wal event kind %q", e.Kind)
	}
	return nil
}

// ReplayStats describes one recovery pass over a log.
type ReplayStats struct {
	// Applied counts events replayed onto the store.
	Applied int
	// GoodBytes is the offset just past the last fully applied record —
	// the truncation point when the tail is damaged.
	GoodBytes int64
	// TruncatedBytes counts bytes after GoodBytes that failed to frame,
	// checksum or decode and were dropped. Non-zero means the log ended in
	// a torn or corrupt record (the usual crash artifact).
	TruncatedBytes int64
}

// ReplayWALObserved applies every valid event from r onto the store, in
// order: a loop over RecordScanner, so r may be a whole log or a headerless
// record stream (a log tail cut at a record boundary). Replay stops at the first
// record that fails to frame, checksum or decode; everything before it is
// applied, everything from it on is reported in TruncatedBytes, and no
// error is returned for damage (an unacknowledged tail is dropped by
// design). A structurally valid record that fails to apply (an answer to a
// task the log never submitted, a duplicate submit) is real inconsistency,
// not tearing, and fails replay with an error — as does a log in the v1
// JSON-line format, which is refused rather than mistaken for damage.
//
// obs (when non-nil) is called with every event after it has been applied
// to the store, in log order. The quality plane uses it to rebuild
// calibration state — which tasks are gold probes, which answers scored
// against them, which tasks finished early — that lives outside the task
// store proper.
func ReplayWALObserved(r io.Reader, s *Store, obs func(Event)) (ReplayStats, error) {
	sc := NewRecordScanner(r, 0)
	var st ReplayStats
	for sc.Scan() {
		e := sc.Event()
		if err := ApplyEvent(s, e); err != nil {
			return st, fmt.Errorf("store: wal event %d: %w", st.Applied+1, err)
		}
		if obs != nil {
			obs(e)
		}
		st.Applied++
		st.GoodBytes = sc.Offset()
	}
	st.GoodBytes = sc.Offset() // a log that is only its header has 8 good bytes
	err := sc.Err()
	if err == nil || !(errors.Is(err, ErrTornRecord) || errors.Is(err, errCorruptRecord)) {
		return st, err
	}
	rest, err := io.Copy(io.Discard, sc.br)
	st.TruncatedBytes = sc.read - sc.off + rest
	return st, err
}

// RecoverWALObserved replays f onto the store, calling obs as
// ReplayWALObserved does, and truncates the file to the last fully applied
// record, so the next append continues a clean log. This is the boot path
// for a WAL that survived a crash: the longest valid prefix is applied, the
// torn or corrupt tail (never acknowledged) is cut off, and the stats
// report both so they can be exported as metrics.
func RecoverWALObserved(f *os.File, s *Store, obs func(Event)) (ReplayStats, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return ReplayStats{}, err
	}
	st, err := ReplayWALObserved(f, s, obs)
	if err != nil {
		return st, err
	}
	if st.TruncatedBytes > 0 {
		if err := f.Truncate(st.GoodBytes); err != nil {
			return st, fmt.Errorf("store: truncating wal tail: %w", err)
		}
	}
	if _, err := f.Seek(st.GoodBytes, io.SeekStart); err != nil {
		return st, err
	}
	return st, nil
}

// ApplyEvent applies one decoded WAL event onto the store: a submit stores
// a copy of its task, checking and storing in one hold of the write lock,
// and any other event is Apply. Replay and replication followers
// call it; a duplicate submit or an event the store refuses is real
// inconsistency and fails.
func ApplyEvent(s *Store, e Event) error {
	if err := validateEvent(e); err != nil {
		return err
	}
	if e.Kind != EventSubmit {
		_, err := s.Apply(e.Kind, e.TaskID, e.Answer, e.At)
		return err
	}
	if s.put(e.Task, false) == nil {
		return fmt.Errorf("duplicate submit for task %d", e.Task.ID)
	}
	return nil
}
