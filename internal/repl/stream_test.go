package repl

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"humancomp/internal/store"
	"humancomp/internal/task"
)

// gatedWriter is the consumer end of one /v1/repl/wal stream, driven
// in-process so a test can hold the stream still: after pause, the
// handler's next Write blocks until resume.
type gatedWriter struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	hdr     http.Header
	gate    chan struct{} // non-nil while paused
	blocked chan struct{} // receives once a Write is parked on the gate
}

func newGatedWriter() *gatedWriter {
	return &gatedWriter{hdr: http.Header{}, blocked: make(chan struct{}, 1)}
}

func (w *gatedWriter) Header() http.Header { return w.hdr }
func (w *gatedWriter) WriteHeader(int)     {}
func (w *gatedWriter) Flush()              {}

func (w *gatedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	gate := w.gate
	w.mu.Unlock()
	if gate != nil {
		w.blocked <- struct{}{}
		<-gate
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *gatedWriter) pause() {
	w.mu.Lock()
	w.gate = make(chan struct{})
	w.mu.Unlock()
}

func (w *gatedWriter) resume() {
	w.mu.Lock()
	close(w.gate)
	w.gate = nil
	w.mu.Unlock()
}

// frames returns the record bytes received so far: everything after the
// JSON header line.
func (w *gatedWriter) frames() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	b := w.buf.Bytes()
	i := bytes.IndexByte(b, '\n')
	if i < 0 {
		return nil
	}
	return append([]byte(nil), b[i+1:]...)
}

// consume runs handleWAL from the given cursor into a gatedWriter; stop
// cancels the request and waits for the handler to return.
func consume(t *testing.T, src *Source, from int64) (w *gatedWriter, stop func()) {
	t.Helper()
	w = newGatedWriter()
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/repl/wal?from=%d", from), nil).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		src.handleWAL(w, req)
	}()
	return w, func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("stream handler did not return after cancel")
		}
	}
}

// walFrames is the reference: a RecordScanner pass over the leader's WAL
// file, the frames of records from..end concatenated in order, and the
// number of records in the file.
func walFrames(t *testing.T, l *leaderHarness, from int64) (frames []byte, records int64) {
	t.Helper()
	raw, err := os.ReadFile(l.walBuf.Name())
	if err != nil {
		t.Fatal(err)
	}
	sc := store.NewRecordScanner(bytes.NewReader(raw), 0)
	for start := int64(store.WALHeaderSize); sc.Scan(); start = sc.Offset() {
		if sc.Seq() >= from {
			frames = append(frames, raw[start:sc.Offset()]...)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanning leader wal: %v", err)
	}
	return frames, sc.Seq()
}

func appendN(t *testing.T, l *leaderHarness, from, to int) {
	t.Helper()
	for i := from; i <= to; i++ {
		if err := l.wal.AppendBatch([]store.Event{submitEvent(t, task.ID(i))}); err != nil {
			t.Fatal(err)
		}
	}
}

// waitReceived blocks until the consumer holds exactly the leader's log
// from its cursor on: byte-equal, so in order, nothing skipped or repeated.
func waitReceived(t *testing.T, l *leaderHarness, w *gatedWriter, from int64) {
	t.Helper()
	want, _ := walFrames(t, l, from)
	waitFor(t, 5*time.Second, func() bool { return len(w.frames()) >= len(want) })
	if got := w.frames(); !bytes.Equal(got, want) {
		t.Fatalf("stream diverges from the wal file: got %d bytes, want %d", len(got), len(want))
	}
}

func TestStreamPausedAcrossAMarkResumesInOrder(t *testing.T) {
	l := newLeader(t)
	appendN(t, l, 1, 10)
	w, stop := consume(t, l.src, 1)
	defer stop()
	waitReceived(t, l, w, 1)

	// Hold the stream still while the log grows past a mark, so its next
	// read is a long backlog mid-stream.
	appendN(t, l, 11, 13)
	waitReceived(t, l, w, 1)
	w.pause()
	const total = markEvery + 20
	appendN(t, l, 14, total)
	select {
	case <-w.blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("stream never reached the paused writer")
	}
	w.resume()
	waitReceived(t, l, w, 1)

	// Caught up again: live records keep flowing after the backlog.
	appendN(t, l, total+1, total+2)
	waitReceived(t, l, w, 1)
	if _, n := walFrames(t, l, 1); n != total+2 {
		t.Fatalf("wal holds %d records, want %d", n, total+2)
	}
}

func TestStreamCursorBeyondLogAcrossAMarkConflicts(t *testing.T) {
	l := newLeader(t)
	const total = markEvery + 1
	appendN(t, l, 1, total)
	// total+2 and up name records this log cannot hold next: a cursor from
	// another WAL epoch.
	for _, from := range []int{total + 2, 10 * total} {
		rr := httptest.NewRecorder()
		l.src.handleWAL(rr, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/repl/wal?from=%d", from), nil))
		if rr.Code != http.StatusConflict {
			t.Errorf("from=%d: status %d, want 409", from, rr.Code)
		}
	}
	// total+1 is the next record, not beyond the log: the stream opens,
	// waits, and delivers exactly it.
	w, stop := consume(t, l.src, total+1)
	defer stop()
	appendN(t, l, total+1, total+1)
	waitReceived(t, l, w, total+1)
}

// TestOnRecordDoesNotAllocate: the tap under the WAL lock keeps integers.
// The marks grow by doubling — three allocations over these records — so
// the per-record average is zero.
func TestOnRecordDoesNotAllocate(t *testing.T) {
	src := NewSource(SourceOptions{})
	frame := []byte("frame")
	seq := int64(0)
	feed := func() {
		seq++
		src.OnRecord(seq, frame)
	}
	if allocs := testing.AllocsPerRun(3*markEvery, feed); allocs != 0 {
		t.Fatalf("OnRecord allocates %v times per record, want 0", allocs)
	}
	if src.LastSeq() != seq {
		t.Fatalf("LastSeq = %d after %d records", src.LastSeq(), seq)
	}
	if len(src.marks) != 4 {
		t.Fatalf("%d marks after %d records, want 4", len(src.marks), seq)
	}
	for k, off := range src.marks {
		if want := store.WALHeaderSize + int64(k*markEvery*len(frame)); off != want {
			t.Fatalf("mark %d at offset %d, want %d", k, off, want)
		}
	}
}

func TestStreamConcurrentReadersAcrossMarks(t *testing.T) {
	l := newLeader(t)
	const total = 2*markEvery + 100
	appendN(t, l, 1, markEvery+10)
	// Four streams at once, from the start, either side of a mark and the
	// next record, while the log keeps growing past another mark.
	cursors := []int64{1, markEvery, markEvery + 1, markEvery + 11}
	streams := make([]*gatedWriter, len(cursors))
	for i, from := range cursors {
		w, stop := consume(t, l.src, from)
		defer stop()
		streams[i] = w
	}
	appendN(t, l, markEvery+11, total)
	for i, from := range cursors {
		waitReceived(t, l, streams[i], from)
	}
}

// TestStreamStartReadsNoFurtherBackThanAMark: a stream reads nothing of
// the file before the mark at or before its cursor — at most markEvery-1
// records it does not send. Everything before that mark is zeroed once
// the expected bytes are taken, so a read of it fails the stream.
func TestStreamStartReadsNoFurtherBackThanAMark(t *testing.T) {
	l := newLeader(t)
	appendN(t, l, 1, 2*markEvery+100)
	// In ascending mark order, as each step damages more of the file.
	cursors := []int64{markEvery, markEvery + 1, markEvery + 7, 2 * markEvery, 2*markEvery + 1, 2*markEvery + 100}
	want := make([][]byte, len(cursors))
	for i, from := range cursors {
		want[i], _ = walFrames(t, l, from)
	}
	f, err := os.OpenFile(l.walBuf.Name(), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i, from := range cursors {
		mark := l.src.marks[(from-1)/markEvery]
		if _, err := f.WriteAt(make([]byte, mark-store.WALHeaderSize), store.WALHeaderSize); err != nil {
			t.Fatal(err)
		}
		w, stop := consume(t, l.src, from)
		waitFor(t, 5*time.Second, func() bool { return len(w.frames()) >= len(want[i]) })
		if got := w.frames(); !bytes.Equal(got, want[i]) {
			t.Fatalf("from=%d: stream diverges from the wal file: got %d bytes, want %d", from, len(got), len(want[i]))
		}
		stop()
	}
}

// TestStreamEndsOnDisconnectAndClose: a stream parked at the log's end
// returns within a second of its client going away, and within a second
// of the source closing.
func TestStreamEndsOnDisconnectAndClose(t *testing.T) {
	l := newLeader(t)
	appendN(t, l, 1, 3)
	returned := make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() { returned <- struct{}{} }()
		l.src.handleWAL(w, r)
	}))
	defer srv.Close()
	defer l.src.Close() // before srv.Close, which waits for the handler
	open := func() (cancel func()) {
		ctx, cancel := context.WithCancel(context.Background())
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/repl/wal?from=1", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		// The header line and the three records; then the stream waits.
		body := bufio.NewReader(resp.Body)
		if _, err := body.ReadSlice('\n'); err != nil {
			t.Fatal(err)
		}
		want, _ := walFrames(t, l, 1)
		got := make([]byte, len(want))
		if _, err := io.ReadFull(body, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("stream before the wait = %d bytes, %v; want the log's %d", len(got), err, len(want))
		}
		return cancel
	}
	ended := func(what string) {
		select {
		case <-returned:
		case <-time.After(time.Second):
			t.Fatalf("stream handler still running a second after %s", what)
		}
	}

	cancel := open()
	cancel()
	ended("its client disconnected")

	defer open()()
	l.src.Close()
	ended("Source.Close")
}
