package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"humancomp/internal/task"
)

// TestWALAppendAfterClose pins the shutdown contract: a closed WAL refuses
// appends with a stable error instead of racing the closed syncer or
// writing records nothing will ever flush.
func TestWALAppendAfterClose(t *testing.T) {
	var buf bytes.Buffer
	wal := NewWAL(&buf)
	if err := wal.AppendBatch([]Event{{Kind: EventSubmit, At: t0, Task: walTask(t, 1, 1)}}); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	err := wal.AppendBatch([]Event{{Kind: EventSubmit, At: t0, Task: walTask(t, 2, 1)}})
	if !errors.Is(err, ErrWALClosed) {
		t.Fatalf("append after close = %v, want ErrWALClosed", err)
	}
	if _, err := wal.WriteFrames(buf.Bytes()[WALHeaderSize:], 1); !errors.Is(err, ErrWALClosed) {
		t.Fatalf("frames written after close = %v, want ErrWALClosed", err)
	}
	if got := wal.Len(); got != 1 {
		t.Fatalf("Len after close = %d, want 1", got)
	}
}

// TestRecoverWALReadOnlyFile covers recovery against a file that cannot be
// truncated. A clean log recovers fine (nothing to cut); a torn log must
// surface the truncation failure as an error — silently continuing would
// leave a tail that the next boot replays differently.
func TestRecoverWALReadOnlyFile(t *testing.T) {
	dir := t.TempDir()

	build := func(torn bool) string {
		var buf bytes.Buffer
		wal := NewWAL(&buf)
		if err := wal.AppendBatch([]Event{{Kind: EventSubmit, At: t0, Task: walTask(t, 1, 1)}}); err != nil {
			t.Fatal(err)
		}
		if err := wal.AppendBatch([]Event{{Kind: EventAnswer, At: t0.Add(time.Minute), TaskID: 1,
			Answer: &answer1}}); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		if torn {
			data = data[:len(data)-5]
		}
		path := filepath.Join(dir, map[bool]string{false: "clean.wal", true: "torn.wal"}[torn])
		if err := os.WriteFile(path, data, 0o444); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// Clean log: read-only recovery succeeds, both events applied.
	f, err := os.Open(build(false))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := New()
	st, err := RecoverWALObserved(f, s, nil)
	if err != nil || st.Applied != 2 {
		t.Fatalf("clean read-only recovery: %+v, %v", st, err)
	}

	// Torn log: the good prefix applies, but the impossible truncation is
	// reported, not swallowed.
	f2, err := os.Open(build(true))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	s2 := New()
	st2, err := RecoverWALObserved(f2, s2, nil)
	if err == nil {
		t.Fatal("torn tail on read-only file recovered without error")
	}
	if st2.Applied != 1 {
		t.Fatalf("applied = %d, want the 1-record good prefix", st2.Applied)
	}
	if _, gerr := s2.Get(1); gerr != nil {
		t.Fatal("good prefix not applied before the truncation failure")
	}
}

// answer1 is a valid answer body shared by recovery tests.
var answer1 = task.Answer{WorkerID: "alice", Words: []int{3}}

// TestRecordScannerResumesAfterMidRecordCut models a replication stream
// dropped mid-record: the scanner applies every complete record, reports
// ErrTornRecord (not a hard failure), and a new scan from the full log
// resumes at the next sequence with nothing lost or double-applied.
func TestRecordScannerResumesAfterMidRecordCut(t *testing.T) {
	var buf bytes.Buffer
	wal := NewWAL(&buf)
	const total = 8
	for i := 1; i <= total; i++ {
		if err := wal.AppendBatch([]Event{{Kind: EventSubmit, At: t0, Task: walTask(t, task.ID(1000+i), 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	full := buf.Bytes()

	// Cut inside the 6th record: keep 5 full records plus a fragment.
	sc := NewRecordScanner(bytes.NewReader(full), 0)
	var offsets []int // cumulative frame sizes, after the file header
	off := len(walMagic)
	for sc.Scan() {
		off += walRecordHeader + int(binary.LittleEndian.Uint32(full[off:]))
		offsets = append(offsets, off)
		if sc.Offset() != int64(off) {
			t.Fatalf("record %d: Offset = %d, want %d (header + frames so far)", sc.Seq(), sc.Offset(), off)
		}
	}
	if sc.Err() != nil || len(offsets) != total {
		t.Fatalf("baseline scan: %d records, err %v", len(offsets), sc.Err())
	}
	cut := offsets[4] + (offsets[5]-offsets[4])/2

	applied := map[int64]bool{}
	sc = NewRecordScanner(bytes.NewReader(full[:cut]), 0)
	for sc.Scan() {
		applied[sc.Seq()] = true
	}
	if err := sc.Err(); err != ErrTornRecord {
		t.Fatalf("cut stream err = %v, want ErrTornRecord", err)
	}
	if sc.Offset() != int64(offsets[4]) {
		t.Fatalf("Offset after a torn record = %d, want the end of the last good one, %d", sc.Offset(), offsets[4])
	}
	// A headerless stream counts from its first record; a log that is only
	// its header has scanned clean up to the header's end.
	sc = NewRecordScanner(bytes.NewReader(full[len(walMagic):offsets[0]]), 0)
	if !sc.Scan() || sc.Offset() != int64(offsets[0]-len(walMagic)) {
		t.Fatalf("headerless Offset = %d, want %d", sc.Offset(), offsets[0]-len(walMagic))
	}
	sc = NewRecordScanner(bytes.NewReader(full[:len(walMagic)]), 0)
	if sc.Scan() || sc.Err() != nil || sc.Offset() != int64(len(walMagic)) {
		t.Fatalf("header-only log: Offset = %d, err %v", sc.Offset(), sc.Err())
	}
	if len(applied) != 5 || !applied[5] || applied[6] {
		t.Fatalf("cut stream applied %v, want exactly seqs 1-5", applied)
	}

	// Resume: rescan the full log, skipping what is already applied.
	sc = NewRecordScanner(bytes.NewReader(full), 0)
	for sc.Scan() {
		if applied[sc.Seq()] {
			continue // already applied before the cut
		}
		applied[sc.Seq()] = true
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	for i := int64(1); i <= total; i++ {
		if !applied[i] {
			t.Fatalf("seq %d missing after resume", i)
		}
	}
}

// TestWALOnRecordTap verifies the replication tap: one call per acked
// record, in order, 1-based, with frames that round-trip through the
// record scanner.
func TestWALOnRecordTap(t *testing.T) {
	var buf bytes.Buffer
	var seqs []int64
	var frames [][]byte
	wal := NewWALWith(&buf, WALOptions{OnRecord: func(seq int64, frame []byte) {
		seqs = append(seqs, seq)
		frames = append(frames, frame)
	}})
	if err := wal.AppendBatch([]Event{{Kind: EventSubmit, At: t0, Task: walTask(t, 1, 1)}}); err != nil {
		t.Fatal(err)
	}
	if err := wal.AppendBatch([]Event{
		{Kind: EventSubmit, At: t0, Task: walTask(t, 2, 1)},
		{Kind: EventCancel, At: t0, TaskID: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if want := []int64{1, 2, 3}; len(seqs) != 3 || seqs[0] != 1 || seqs[1] != 2 || seqs[2] != 3 {
		t.Fatalf("tap seqs = %v, want %v", seqs, want)
	}
	if wal.Len() != 3 {
		t.Fatalf("Len = %d", wal.Len())
	}
	// Concatenated tap frames must be a valid headerless record stream —
	// exactly what the replication source ships.
	var stream bytes.Buffer
	for _, f := range frames {
		stream.Write(f)
	}
	sc := NewRecordScanner(&stream, 0)
	n := 0
	for sc.Scan() {
		n++
		if sc.Seq() != int64(n) {
			t.Fatalf("scanned seq %d at position %d", sc.Seq(), n)
		}
	}
	if sc.Err() != nil || n != 3 {
		t.Fatalf("frame stream scan: %d records, err %v", n, sc.Err())
	}
}

// writeLog is a writer that remembers each Write separately and can be
// told to fail from a given Write on.
type writeLog struct {
	writes [][]byte
	failAt int // 1-based Write that starts failing; 0 never fails
}

func (w *writeLog) Write(p []byte) (int, error) {
	if w.failAt > 0 && len(w.writes)+1 >= w.failAt {
		return 0, errors.New("disk gone")
	}
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (w *writeLog) bytes() []byte { return bytes.Join(w.writes, nil) }

// TestWALAppendIsOneWrite pins the write path's shape: each Append or
// AppendBatch reaches the writer as exactly one Write (the file header
// riding on the first), and the tap's frames, concatenated, are the file's
// bytes after the header.
func TestWALAppendIsOneWrite(t *testing.T) {
	out := &writeLog{}
	var tapped []byte
	var seqs []int64
	wal := NewWALWith(out, WALOptions{OnRecord: func(seq int64, frame []byte) {
		seqs = append(seqs, seq)
		tapped = append(tapped, frame...)
	}})
	if err := wal.AppendBatch([]Event{{Kind: EventSubmit, At: t0, Task: walTask(t, 1, 2)}}); err != nil {
		t.Fatal(err)
	}
	if len(out.writes) != 1 || !bytes.HasPrefix(out.writes[0], walMagic[:]) {
		t.Fatalf("first append: %d writes, header first = %v", len(out.writes),
			len(out.writes) > 0 && bytes.HasPrefix(out.writes[0], walMagic[:]))
	}
	batch := make([]Event, 64)
	for i := range batch {
		batch[i] = Event{Kind: EventSubmit, At: t0, Task: walTask(t, task.ID(i+2), 1)}
	}
	if err := wal.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wal.AppendObserved(Event{Kind: EventCancel, At: t0, TaskID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wal.AppendBatchObserved(batch[:0]); err != nil {
		t.Fatal(err)
	}
	if len(out.writes) != 3 {
		t.Fatalf("3 appends (and one empty batch) cost %d writes, want 3", len(out.writes))
	}
	if bytes.HasPrefix(out.writes[1], walMagic[:]) {
		t.Fatal("file header written twice")
	}
	file := out.bytes()
	if !bytes.Equal(tapped, file[len(walMagic):]) {
		t.Fatalf("tap frames (%d bytes) differ from the file after its header (%d bytes)",
			len(tapped), len(file)-len(walMagic))
	}
	const records = 1 + 64 + 1
	if len(seqs) != records || seqs[0] != 1 || seqs[records-1] != records {
		t.Fatalf("tap saw %d records (%v…), want 1..%d", len(seqs), seqs[:min(3, len(seqs))], records)
	}
	if wal.Len() != records || wal.Size() != int64(len(file)) {
		t.Fatalf("Len %d Size %d, want %d %d",
			wal.Len(), wal.Size(), records, len(file))
	}
	// The format is what it always was: header, then per event the length
	// and CRC32C of its json.Marshal encoding, then that encoding.
	want := append([]byte(nil), walMagic[:]...)
	first := Event{Kind: EventSubmit, At: t0, Task: walTask(t, 1, 2)}
	for _, e := range append(append([]Event{first}, batch...), Event{Kind: EventCancel, At: t0, TaskID: 1}) {
		payload, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		want = binary.LittleEndian.AppendUint32(want, uint32(len(payload)))
		want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(payload, castagnoli))
		want = append(want, payload...)
	}
	if !bytes.Equal(file, want) {
		t.Fatal("written bytes differ from the marshal-then-frame reference encoding")
	}
	st, err := ReplayWALObserved(bytes.NewReader(file), New(), nil)
	if err != nil || st.Applied != records || st.TruncatedBytes != 0 {
		t.Fatalf("replay of the written bytes: %+v, %v", st, err)
	}
}

// TestWALFailedWriteAcknowledgesNothing: a write the OS refused moves no
// counter, reaches no tap, and leaves the log failed for good — its torn
// bytes may be on disk, and recovery would cut off anything behind them.
func TestWALFailedWriteAcknowledgesNothing(t *testing.T) {
	out := &writeLog{failAt: 2}
	taps := 0
	wal := NewWALWith(out, WALOptions{OnRecord: func(int64, []byte) { taps++ }})
	if err := wal.AppendBatch([]Event{{Kind: EventSubmit, At: t0, Task: walTask(t, 1, 1)}}); err != nil {
		t.Fatal(err)
	}
	size := wal.Size()
	err := wal.AppendBatch([]Event{
		{Kind: EventSubmit, At: t0, Task: walTask(t, 2, 1)},
		{Kind: EventSubmit, At: t0, Task: walTask(t, 3, 1)},
	})
	if err == nil {
		t.Fatal("append on a failing writer succeeded")
	}
	if wal.Healthy() || wal.Err() == nil || wal.Failures() != 1 {
		t.Fatalf("Healthy %v Err %v Failures %d after a failed write", wal.Healthy(), wal.Err(), wal.Failures())
	}
	if taps != 1 || wal.Len() != 1 || wal.Size() != size {
		t.Fatalf("failed write moved state: taps %d Len %d Size %d (was %d)",
			taps, wal.Len(), wal.Size(), size)
	}
	out.failAt = 0 // the disk comes back; the log must not
	if err := wal.AppendBatch([]Event{{Kind: EventCancel, At: t0, TaskID: 1}}); err == nil {
		t.Fatal("append after a failed write succeeded behind a possibly torn record")
	}
	if len(out.writes) != 1 || taps != 1 || wal.Len() != 1 {
		t.Fatalf("writes %d taps %d Len %d after the log failed", len(out.writes), taps, wal.Len())
	}
}

// TestApplyEventBesideViews: a follower applies the leader's log with
// ApplyEvent while it serves task reads with View. Every apply holds the
// store's write lock, so under -race the two never race, and a view is a
// task as some prefix of the log left it: Open with fewer answers than its
// redundancy, Done with all of them.
func TestApplyEventBesideViews(t *testing.T) {
	const (
		tasks      = 64
		redundancy = 3
	)
	s := New()
	for id := task.ID(1); id <= tasks; id++ {
		if err := ApplyEvent(s, Event{Kind: EventSubmit, At: t0, Task: walTask(t, id, redundancy)}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for w := 0; w < redundancy; w++ {
			for id := task.ID(1); id <= tasks; id++ {
				a := &task.Answer{WorkerID: fmt.Sprintf("w%d", w), Words: []int{int(id)}}
				if err := ApplyEvent(s, Event{Kind: EventAnswer, At: t0.Add(time.Second), TaskID: id, Answer: a}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		for id := task.ID(1); id <= tasks; id++ {
			v, err := s.View(id)
			if err != nil {
				t.Fatal(err)
			}
			if (v.Status == task.Done) != (len(v.Answers()) == redundancy) {
				t.Fatalf("task %d viewed %v with %d/%d answers", id, v.Status, len(v.Answers()), redundancy)
			}
		}
	}
	if got := s.Count(task.Done); got != tasks {
		t.Fatalf("%d tasks done after the log, want %d", got, tasks)
	}
}
