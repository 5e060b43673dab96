package repl

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"humancomp/internal/store"
	"humancomp/internal/task"
)

var t0 = time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)

func submitEvent(t *testing.T, id task.ID) store.Event {
	t.Helper()
	tk, err := task.New(id, task.Label, task.Payload{ImageID: int(id)}, 1, t0)
	if err != nil {
		t.Fatal(err)
	}
	return store.Event{Kind: store.EventSubmit, At: t0, Task: tk}
}

// leaderHarness is an in-process leader: a WAL on disk tapped into a
// Source, served over httptest.
type leaderHarness struct {
	t      *testing.T
	wal    *store.WAL
	src    *Source
	srv    *httptest.Server
	walBuf *os.File
}

func newLeader(t *testing.T, tailSize int) *leaderHarness {
	t.Helper()
	dir := t.TempDir()
	walPath := filepath.Join(dir, "leader.wal")
	f, err := os.Create(walPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	src := NewSource(SourceOptions{
		Term:     1,
		WALPath:  walPath,
		Snapshot: func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader([]byte("{}"))), nil },
		TailSize: tailSize,
	})
	wal := store.NewWALWith(f, store.WALOptions{OnRecord: src.OnRecord})
	t.Cleanup(func() { wal.Close() })
	srv := httptest.NewServer(src.Handler(nil))
	t.Cleanup(srv.Close)
	t.Cleanup(src.Close)
	return &leaderHarness{t: t, wal: wal, src: src, srv: srv, walBuf: f}
}

// applyRecorder collects applied events for assertions.
type applyRecorder struct {
	mu   sync.Mutex
	seqs []int64
	ids  []task.ID
}

func (a *applyRecorder) apply(seq int64, e store.Event) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seqs = append(a.seqs, seq)
	if e.Task != nil {
		a.ids = append(a.ids, e.Task.ID)
	}
	return nil
}

func (a *applyRecorder) appliedSeqs() []int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]int64(nil), a.seqs...)
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestFollowerTailsLiveStream(t *testing.T) {
	l := newLeader(t, DefaultTailSize)
	for i := 1; i <= 3; i++ {
		if err := l.wal.Append(submitEvent(t, task.ID(i))); err != nil {
			t.Fatal(err)
		}
	}

	rec := &applyRecorder{}
	f := NewFollower(FollowerOptions{Leader: l.srv.URL, Term: 1, Apply: rec.apply})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()

	// Catch up on the backlog, then see live appends arrive.
	waitFor(t, 5*time.Second, func() bool { return f.Applied() >= 3 })
	for i := 4; i <= 6; i++ {
		if err := l.wal.Append(submitEvent(t, task.ID(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return f.Applied() >= 6 })

	seqs := rec.appliedSeqs()
	for i, s := range seqs {
		if s != int64(i+1) {
			t.Fatalf("applied seqs = %v, want 1..6 in order", seqs)
		}
	}
	lag := f.Lag()
	if lag.Seq != 0 || !lag.Connected {
		t.Fatalf("caught-up lag = %+v", lag)
	}
	if lag.Seconds != 0 {
		t.Fatalf("idle connected follower reports staleness %v", lag.Seconds)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run = %v, want nil on cancel", err)
	}
}

func TestFollowerCatchesUpFromFileFallback(t *testing.T) {
	// Tail of 2: most of the backlog is only on disk, forcing streamFile.
	l := newLeader(t, 2)
	const total = 50
	for i := 1; i <= total; i++ {
		if err := l.wal.Append(submitEvent(t, task.ID(i))); err != nil {
			t.Fatal(err)
		}
	}

	rec := &applyRecorder{}
	f := NewFollower(FollowerOptions{Leader: l.srv.URL, Term: 1, Apply: rec.apply})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.Run(ctx)

	waitFor(t, 10*time.Second, func() bool { return f.Applied() >= total })
	seqs := rec.appliedSeqs()
	if len(seqs) != total {
		t.Fatalf("applied %d records, want %d", len(seqs), total)
	}
	for i, s := range seqs {
		if s != int64(i+1) {
			t.Fatalf("gap or reorder at %d: %v", i, seqs[max(0, i-2):i+1])
		}
	}
}

func TestFollowerRefusesFencedLeader(t *testing.T) {
	l := newLeader(t, DefaultTailSize) // term 1
	rec := &applyRecorder{}
	f := NewFollower(FollowerOptions{Leader: l.srv.URL, Term: 5, Apply: rec.apply})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrStaleTerm) {
			t.Fatalf("Run = %v, want ErrStaleTerm", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower kept streaming from a fenced leader")
	}
}

func TestFollowerAdoptsHigherTerm(t *testing.T) {
	l := newLeader(t, DefaultTailSize)
	l.src.SetTerm(7)
	if err := l.wal.Append(submitEvent(t, 1)); err != nil {
		t.Fatal(err)
	}

	var persisted int64
	rec := &applyRecorder{}
	f := NewFollower(FollowerOptions{
		Leader: l.srv.URL, Term: 2, Apply: rec.apply,
		OnTermChange: func(term int64) error { persisted = term; return nil },
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.Run(ctx)
	waitFor(t, 5*time.Second, func() bool { return f.Applied() >= 1 })
	if f.Term() != 7 || persisted != 7 {
		t.Fatalf("term = %d (persisted %d), want 7", f.Term(), persisted)
	}
}

func TestStreamCursorBeyondLogEndConflicts(t *testing.T) {
	l := newLeader(t, DefaultTailSize)
	if err := l.wal.Append(submitEvent(t, 1)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(l.srv.URL + "/v1/repl/wal?from=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("from beyond end = %d, want 409", resp.StatusCode)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	l := newLeader(t, DefaultTailSize)
	rc, err := FetchSnapshot(context.Background(), nil, l.srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil || !bytes.Equal(data, []byte("{}")) {
		t.Fatalf("snapshot = %q, %v", data, err)
	}
}

func TestTermPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.term")
	if term, err := LoadTerm(path); err != nil || term != 0 {
		t.Fatalf("missing term file = %d, %v; want 0, nil", term, err)
	}
	if err := SaveTerm(path, 42); err != nil {
		t.Fatal(err)
	}
	if term, err := LoadTerm(path); err != nil || term != 42 {
		t.Fatalf("reloaded term = %d, %v; want 42", term, err)
	}
}

func TestSwitchableJournal(t *testing.T) {
	var sj SwitchableJournal
	_, err := sj.WriteEvents([]store.Event{{Kind: store.EventCancel, TaskID: 1}})
	if !errors.Is(err, ErrNotWritable) {
		t.Fatalf("write before Set = %v, want ErrNotWritable", err)
	}
	if _, err := sj.WaitDurable(1); !errors.Is(err, ErrNotWritable) {
		t.Fatalf("wait before Set = %v, want ErrNotWritable", err)
	}
	var buf bytes.Buffer
	wal := store.NewWAL(&buf)
	defer wal.Close()
	sj.Set(wal)
	seq, err := sj.WriteEvents([]store.Event{submitEvent(t, 1)})
	if err != nil || seq != 1 {
		t.Fatalf("write after Set = %d, %v; want sequence 1", seq, err)
	}
	if _, err := sj.WaitDurable(seq); err != nil {
		t.Fatalf("wait after Set = %v", err)
	}
	if wal.LastSeq() != 1 {
		t.Fatalf("record did not reach the WAL")
	}
}

func TestFollowerSurvivesLeaderRestartOfStream(t *testing.T) {
	// Kill the leader's HTTP server mid-tail and bring up a new one on the
	// same source; the follower reconnects and resumes from applied+1.
	l := newLeader(t, DefaultTailSize)
	if err := l.wal.Append(submitEvent(t, 1)); err != nil {
		t.Fatal(err)
	}

	rec := &applyRecorder{}
	// httptest can't restart a server on the same address, so the follower
	// points at a tiny streaming proxy whose target we swap mid-test.
	var leaderURL string
	var mu sync.Mutex
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		target := leaderURL
		mu.Unlock()
		resp, err := http.Get(target + r.URL.Path + "?" + r.URL.RawQuery)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		fl, _ := w.(http.Flusher)
		buf := make([]byte, 4096)
		for {
			n, rerr := resp.Body.Read(buf)
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					return
				}
				if fl != nil {
					fl.Flush()
				}
			}
			if rerr != nil {
				return
			}
		}
	}))
	defer proxy.Close()
	mu.Lock()
	leaderURL = l.srv.URL
	mu.Unlock()
	f2 := NewFollower(FollowerOptions{Leader: proxy.URL, Term: 1, Apply: rec.apply})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f2.Run(ctx)
	waitFor(t, 5*time.Second, func() bool { return f2.Applied() >= 1 })

	// "Restart" the stream server: bring up a second server on the same
	// source, point the proxy at it, and cut every connection to the old
	// one mid-stream. (The old server is not fully Closed here — that
	// would block on any stream the reconnect loop races onto it.)
	srv2 := httptest.NewServer(l.src.Handler(nil))
	mu.Lock()
	leaderURL = srv2.URL
	mu.Unlock()
	l.srv.CloseClientConnections()

	if err := l.wal.Append(submitEvent(t, 2)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return f2.Applied() >= 2 })
	seqs := rec.appliedSeqs()
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("applied = %v, want [1 2] with no duplicates", seqs)
	}

	// Teardown in dependency order: stop the follower, end every stream by
	// closing the source, then the servers can drain.
	cancel()
	l.src.Close()
	srv2.Close()
}
