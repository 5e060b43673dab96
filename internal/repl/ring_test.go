package repl

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"humancomp/internal/store"
	"humancomp/internal/task"
)

// ringTail is deliberately tiny so a few dozen records wrap the ring
// several times.
const ringTail = 8

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
	for sc.Scan() {
		if sc.Seq() >= from {
			frames = append(frames, sc.Frame()...)
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
		if err := l.wal.Append(submitEvent(t, task.ID(i))); err != nil {
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

func TestRingConsumerKeepingUpNeverLeavesTheTail(t *testing.T) {
	l := newLeader(t, ringTail)
	// No file to fall back on: an eviction would end the stream, so
	// receiving everything proves every frame came out of the ring.
	l.src.walPath = ""
	w, stop := consume(t, l.src, 1)
	defer stop()
	const total = 3*ringTail + 5
	for i := 1; i <= total; i++ {
		appendN(t, l, i, i)
		waitReceived(t, l, w, 1) // lockstep: the consumer is never behind
	}
	if _, n := walFrames(t, l, 1); n != total {
		t.Fatalf("wal holds %d records, want %d", n, total)
	}
}

func TestRingConsumerFallsOutAndReentersThroughFile(t *testing.T) {
	l := newLeader(t, ringTail)
	// Start already evicted: the backlog is longer than the tail.
	appendN(t, l, 1, 2*ringTail)
	w, stop := consume(t, l.src, 1)
	defer stop()
	waitReceived(t, l, w, 1)

	// Live again; then hold the stream still while the ring wraps past the
	// consumer's cursor, so its next read is an eviction mid-stream.
	appendN(t, l, 2*ringTail+1, 2*ringTail+3)
	waitReceived(t, l, w, 1)
	w.pause()
	const total = 5*ringTail + 3
	appendN(t, l, 2*ringTail+4, total)
	select {
	case <-w.blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("stream never reached the paused writer")
	}
	w.resume()
	waitReceived(t, l, w, 1)

	// Back in the window: live frames keep flowing after the file catch-up.
	appendN(t, l, total+1, total+2)
	waitReceived(t, l, w, 1)
	if _, n := walFrames(t, l, 1); n != total+2 {
		t.Fatalf("wal holds %d records, want %d", n, total+2)
	}
}

func TestRingCursorBeyondWrappedLogConflicts(t *testing.T) {
	l := newLeader(t, ringTail)
	const total = 3*ringTail + 1
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

func TestOnRecordDoesNotAllocateWithFullTail(t *testing.T) {
	src := NewSource(SourceOptions{})
	src.frames = make([][]byte, ringTail)
	frame := []byte("frame")
	seq := int64(0)
	feed := func() {
		seq++
		src.OnRecord(seq, frame)
	}
	for i := 0; i < 2*ringTail; i++ {
		feed()
	}
	if allocs := testing.AllocsPerRun(1000, feed); allocs != 0 {
		t.Fatalf("OnRecord allocates %v times per record with the tail full, want 0", allocs)
	}
	if src.LastSeq() != seq {
		t.Fatalf("LastSeq = %d after %d records", src.LastSeq(), seq)
	}
}

func TestRingConcurrentReadersAcrossWrapAround(t *testing.T) {
	l := newLeader(t, ringTail)
	const (
		total   = 20 * ringTail
		readers = 4
	)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cur := int64(1); cur <= total; cur++ {
				frame, ok, err := l.src.next(ctx, cur)
				if err != nil || !ok {
					t.Errorf("next(%d) = ok %v, err %v", cur, ok, err)
					return
				}
				if frame == nil {
					// Evicted: re-enter the window at its newest record.
					cur = l.src.LastSeq() - 1
					continue
				}
				// Record q carries task q: a wrong ring slot shows here.
				sc := store.NewRecordScanner(bytes.NewReader(frame), cur-1)
				if !sc.Scan() || sc.Event().Task == nil || int64(sc.Event().Task.ID) != cur {
					t.Errorf("next(%d) returned another record's frame (err %v)", cur, sc.Err())
					return
				}
			}
		}()
	}
	appendN(t, l, 1, total)
	wg.Wait()
}
