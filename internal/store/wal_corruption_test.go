package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"humancomp/internal/task"
)

// buildV2Log appends n submit events through the real writer and returns
// the log bytes plus the byte offset just past each record (offsets[k] is
// the exact-prefix length containing k+1 records; the file header precedes
// offsets[0]).
func buildV2Log(t *testing.T, n int) ([]byte, []int64) {
	t.Helper()
	var buf bytes.Buffer
	wal := NewWAL(&buf)
	offsets := make([]int64, 0, n)
	for i := 1; i <= n; i++ {
		if err := wal.AppendBatch([]Event{{Kind: EventSubmit, At: t0, Task: walTask(t, task.ID(i), 1)}}); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, int64(buf.Len()))
	}
	return buf.Bytes(), offsets
}

// replayPrefix asserts that log replays exactly `want` events with no
// error and returns the stats.
func replayPrefix(t *testing.T, log []byte, want int) ReplayStats {
	t.Helper()
	s := New()
	st, err := ReplayWALObserved(bytes.NewReader(log), s, nil)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if st.Applied != want {
		t.Fatalf("applied = %d, want %d (stats %+v)", st.Applied, want, st)
	}
	if s.Len() != want {
		t.Fatalf("store holds %d tasks, want %d", s.Len(), want)
	}
	for i := 1; i <= want; i++ {
		if _, err := s.Get(task.ID(i)); err != nil {
			t.Fatalf("acknowledged task %d lost", i)
		}
	}
	return st
}

func TestWALCorruptionTornFinalRecord(t *testing.T) {
	log, offsets := buildV2Log(t, 3)
	// Cut the log at every byte position inside the final record: header
	// bytes, length prefix, checksum, payload — each must recover the
	// exact two-record prefix.
	for cut := offsets[1] + 1; cut < offsets[2]; cut++ {
		st := replayPrefix(t, log[:cut], 2)
		if st.GoodBytes != offsets[1] {
			t.Fatalf("cut %d: GoodBytes = %d, want %d", cut, st.GoodBytes, offsets[1])
		}
		if st.TruncatedBytes != cut-offsets[1] {
			t.Fatalf("cut %d: TruncatedBytes = %d, want %d", cut, st.TruncatedBytes, cut-offsets[1])
		}
	}
}

func TestWALCorruptionFlippedByteMidLog(t *testing.T) {
	log, offsets := buildV2Log(t, 5)
	// Flip one payload byte in record 3 (0-indexed record 2): replay must
	// apply exactly records 1..2 and drop everything from the damaged
	// record on — a checksum mismatch mid-log is indistinguishable from
	// damage to everything after it.
	mutated := append([]byte(nil), log...)
	mutated[offsets[1]+walRecordHeader+4] ^= 0x40
	st := replayPrefix(t, mutated, 2)
	if st.GoodBytes != offsets[1] {
		t.Fatalf("GoodBytes = %d, want %d", st.GoodBytes, offsets[1])
	}
	if st.TruncatedBytes != int64(len(log))-offsets[1] {
		t.Fatalf("TruncatedBytes = %d, want %d", st.TruncatedBytes, int64(len(log))-offsets[1])
	}
}

func TestWALCorruptionZeroFilledTail(t *testing.T) {
	log, offsets := buildV2Log(t, 2)
	// A zero-filled tail (preallocated blocks, partial page writes) parses
	// as a zero-length record: corrupt, truncated, prefix kept.
	padded := append(append([]byte(nil), log...), make([]byte, 64)...)
	st := replayPrefix(t, padded, 2)
	if st.GoodBytes != offsets[1] || st.TruncatedBytes != 64 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWALCorruptionEmptyFile(t *testing.T) {
	st := replayPrefix(t, nil, 0)
	if st.GoodBytes != 0 || st.TruncatedBytes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestWALRefusesLegacyV1 pins what happens to a log in the removed v1
// format (bare JSON lines): it is refused with an error naming the format,
// nothing is applied, nothing is counted as torn tail — so RecoverWALObserved
// leaves the file exactly as it found it instead of truncating it to zero.
func TestWALRefusesLegacyV1(t *testing.T) {
	var v1 bytes.Buffer
	for i := 1; i <= 3; i++ {
		line, err := json.Marshal(Event{Kind: EventSubmit, At: t0, Task: walTask(t, task.ID(i), 1)})
		if err != nil {
			t.Fatal(err)
		}
		v1.Write(line)
		v1.WriteByte('\n')
	}
	whole := append([]byte(nil), v1.Bytes()...)
	// A v1 file that later had v2 records appended behind a v2 header.
	mixed := bytes.NewBuffer(append([]byte(nil), whole...))
	wal := NewWAL(mixed)
	if err := wal.AppendBatch([]Event{{Kind: EventSubmit, At: t0, Task: walTask(t, 4, 1)}}); err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), whole...)
	corrupt[bytes.IndexByte(corrupt, '\n')-3] = 0xFF

	for name, log := range map[string][]byte{
		"whole":        whole,
		"torn line":    whole[:len(whole)-5],
		"corrupt line": corrupt,
		"mixed v1+v2":  mixed.Bytes(),
		"three bytes":  whole[:3],
	} {
		t.Run(name, func(t *testing.T) {
			s := New()
			st, err := ReplayWALObserved(bytes.NewReader(log), s, nil)
			if err == nil || !strings.Contains(err.Error(), "v1 JSON-line") {
				t.Fatalf("replay err = %v, want one naming the v1 format", err)
			}
			if st != (ReplayStats{}) || s.Len() != 0 {
				t.Fatalf("refused log left stats %+v, %d tasks", st, s.Len())
			}

			path := filepath.Join(t.TempDir(), "wal")
			if err := os.WriteFile(path, log, 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := RecoverWALObserved(f, New(), nil); err == nil {
				t.Fatal("RecoverWALObserved accepted a v1 log")
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, log) {
				t.Fatalf("refused file was modified: %d bytes, want %d (err %v)", len(after), len(log), err)
			}
		})
	}
}

// TestWALHeaderlessStreamStartingWithBrace: a headerless v2 stream (the
// replication wire format, a log tail cut at a record boundary) whose
// first record is 0x7B (123) bytes long starts with '{' too. It is v2 and
// replays as such.
func TestWALHeaderlessStreamStartingWithBrace(t *testing.T) {
	for pad := 0; pad < 400; pad++ {
		var buf bytes.Buffer
		wal := NewWAL(&buf)
		tk := walTask(t, 1, 1)
		tk.Payload.Detail = &task.Detail{WordImg: strings.Repeat("x", pad)}
		if err := wal.AppendBatch([]Event{{Kind: EventSubmit, At: t0, Task: tk}}); err != nil {
			t.Fatal(err)
		}
		stream := buf.Bytes()[len(walMagic):]
		if stream[0] != '{' {
			continue
		}
		if st, err := ReplayWALObserved(bytes.NewReader(stream), New(), nil); err != nil || st.Applied != 1 || st.TruncatedBytes != 0 {
			t.Fatalf("headerless stream with a %d-byte first record: %+v, %v", len(stream)-walRecordHeader, st, err)
		}
		return
	}
	t.Fatal("no payload length with a 0x7B low byte found")
}

func TestRecoverWALTruncatesFile(t *testing.T) {
	log, offsets := buildV2Log(t, 3)
	path := filepath.Join(t.TempDir(), "wal")
	// Damage the file with a torn final record plus garbage.
	torn := append(append([]byte(nil), log[:offsets[2]-4]...), "garbage"...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	s := New()
	st, err := RecoverWALObserved(f, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != 2 || st.GoodBytes != offsets[1] {
		t.Fatalf("stats = %+v", st)
	}
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != offsets[1] {
		t.Fatalf("file not truncated to good prefix: size = %d, want %d", fi.Size(), offsets[1])
	}

	// The recovered file replays cleanly end to end.
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	if st, err := ReplayWALObserved(f, New(), nil); err != nil || st.Applied != 2 || st.TruncatedBytes != 0 {
		t.Fatalf("post-recovery replay: %+v, %v", st, err)
	}
}

// syncCounter is a Writer+Syncer that counts fsyncs.
type syncCounter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	syncs atomic.Int64
}

func (s *syncCounter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

func (s *syncCounter) Sync() error {
	s.syncs.Add(1)
	return nil
}

func TestWALSyncAlwaysGroupCommit(t *testing.T) {
	sc := &syncCounter{}
	wal := NewWALWith(sc, WALOptions{Policy: SyncAlways})
	defer wal.Close()

	// Sequential appends each pay their own fsync.
	for i := 1; i <= 3; i++ {
		if err := wal.AppendBatch([]Event{{Kind: EventSubmit, At: t0, Task: walTask(t, task.ID(i), 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := sc.syncs.Load(); got != 3 {
		t.Fatalf("sequential syncs = %d, want 3", got)
	}

	// Concurrent appends share fsyncs: never more than one per append,
	// and every append is durable when it returns.
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := task.ID(100 + w*each + i)
				tk, err := task.New(id, task.Label, task.Payload{ImageID: int(id)}, 1, t0)
				if err != nil {
					t.Error(err)
					return
				}
				if err := wal.AppendBatch([]Event{{Kind: EventSubmit, At: t0, Task: tk}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := sc.syncs.Load(); got > 3+writers*each {
		t.Fatalf("syncs = %d, exceeds one per append", got)
	}
	// Everything acknowledged must replay.
	sc.mu.Lock()
	log := append([]byte(nil), sc.buf.Bytes()...)
	sc.mu.Unlock()
	st, err := ReplayWALObserved(bytes.NewReader(log), New(), nil)
	if err != nil || st.Applied != 3+writers*each {
		t.Fatalf("replay after group commit: %+v, %v", st, err)
	}
}

func TestWALSyncIntervalBackground(t *testing.T) {
	sc := &syncCounter{}
	wal := NewWALWith(sc, WALOptions{Policy: SyncInterval})
	if err := wal.AppendBatch([]Event{{Kind: EventSubmit, At: t0, Task: walTask(t, 1, 1)}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for sc.syncs.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sc.syncs.Load() == 0 {
		t.Fatal("background sync never fired")
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
}

// failAfterWriter accepts n writes, then fails permanently.
type failAfterWriter struct {
	n    int
	seen int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.seen++
	if w.seen > w.n {
		return 0, errors.New("disk gone")
	}
	return len(p), nil
}

func TestWALHealthTracking(t *testing.T) {
	// Each append flushes once; the first flush carries header + record 1.
	wal := NewWAL(&failAfterWriter{n: 1})
	if err := wal.AppendBatch([]Event{{Kind: EventSubmit, At: t0, Task: walTask(t, 1, 1)}}); err != nil {
		t.Fatal(err)
	}
	if !wal.Healthy() {
		t.Fatal("healthy WAL reported unhealthy")
	}
	if err := wal.AppendBatch([]Event{{Kind: EventSubmit, At: t0, Task: walTask(t, 2, 1)}}); err == nil {
		t.Fatal("append on dead writer succeeded")
	}
	if wal.Healthy() {
		t.Fatal("failed append left WAL healthy")
	}
	if wal.Err() == nil || wal.Failures() == 0 {
		t.Fatalf("Err = %v, Failures = %d", wal.Err(), wal.Failures())
	}
}

// failOnceSyncer is a file whose fsync number failAt fails; every other
// fsync succeeds, as a disk that drops dirty pages once and then reports
// clean does.
type failOnceSyncer struct {
	syncCounter
	failAt int64
}

func (s *failOnceSyncer) Sync() error {
	if s.syncs.Add(1) == s.failAt {
		return errors.New("fsync: input/output error")
	}
	return nil
}

// wantFailedForGood checks that wal refuses an append, stays unhealthy and
// keeps its last acknowledged sequence number at seq.
func wantFailedForGood(t *testing.T, wal *WAL, seq int64) {
	t.Helper()
	if err := wal.AppendBatch([]Event{{Kind: EventSubmit, At: t0, Task: walTask(t, 9, 1)}}); err == nil {
		t.Fatal("an append after a failed fsync was acknowledged")
	}
	if wal.Healthy() || wal.Err() == nil || wal.Len() != seq {
		t.Fatalf("after a failed fsync: Healthy %v Err %v Len %d, want unhealthy at %d", wal.Healthy(), wal.Err(), wal.Len(), seq)
	}
}

// TestWALFailedFsyncIsStickyAlways: under SyncAlways the append whose fsync
// failed is refused, and so is every append after it, although the next
// fsync would succeed.
func TestWALFailedFsyncIsStickyAlways(t *testing.T) {
	f := &failOnceSyncer{failAt: 2}
	wal := NewWALWith(f, WALOptions{Policy: SyncAlways})
	defer wal.Close()
	if err := wal.AppendBatch([]Event{{Kind: EventSubmit, At: t0, Task: walTask(t, 1, 1)}}); err != nil {
		t.Fatal(err)
	}
	if err := wal.AppendBatch([]Event{{Kind: EventSubmit, At: t0, Task: walTask(t, 2, 1)}}); err == nil {
		t.Fatal("the append whose fsync failed was acknowledged")
	}
	wantFailedForGood(t, wal, 2)
}

// TestWALFailedFsyncIsStickyInterval: under SyncInterval a failed
// background fsync fails the log, so the next append is refused.
func TestWALFailedFsyncIsStickyInterval(t *testing.T) {
	f := &failOnceSyncer{failAt: 1}
	wal := NewWALWith(f, WALOptions{Policy: SyncInterval})
	defer wal.Close()
	if err := wal.AppendBatch([]Event{{Kind: EventSubmit, At: t0, Task: walTask(t, 1, 1)}}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); wal.Healthy(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the background fsync never failed the log (%d fsyncs)", f.syncs.Load())
		}
	}
	wantFailedForGood(t, wal, 1)
}
