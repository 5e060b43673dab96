package repl

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"humancomp/internal/store"
	"humancomp/internal/task"
)

// leaderGroup is one leader write of events as a single group: the log it
// leaves, and the offset in that log just past each record.
func leaderGroup(t *testing.T, events []store.Event) (log []byte, ends []int) {
	t.Helper()
	var buf bytes.Buffer
	if err := store.NewWAL(&buf).AppendBatch(events); err != nil {
		t.Fatal(err)
	}
	sc := store.NewRecordScanner(bytes.NewReader(buf.Bytes()), 0)
	for sc.Scan() {
		ends = append(ends, int(sc.Offset()))
	}
	if err := sc.Err(); err != nil || len(ends) != len(events) {
		t.Fatalf("leader log scans to %d of %d records: %v", len(ends), len(events), err)
	}
	return buf.Bytes(), ends
}

// cutServer serves every /v1/repl/wal request the stream header and then
// the first cut bytes of records, and ends the response there.
func cutServer(t *testing.T, records []byte, cut *atomic.Int64) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := writeJSONLine(w, StreamHeader{Term: 1, From: 1}); err != nil {
			return
		}
		w.Write(records[:cut.Load()])
	}))
	t.Cleanup(srv.Close)
	return srv
}

// storeFollower is a follower of leader that applies to a fresh store and
// logs to a WAL in memory.
func storeFollower(leader string) (*Follower, *store.Store, *bytes.Buffer) {
	s, log := store.New(), &bytes.Buffer{}
	f := NewFollower(FollowerOptions{
		Leader: leader,
		Term:   1,
		Apply:  func(_ int64, e store.Event) error { return store.ApplyEvent(s, e) },
		WAL:    store.NewWAL(log),
	})
	return f, s, log
}

func snapshotOf(t *testing.T, s *store.Store) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := s.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestFollowerStreamCutAtEveryByte: a stream that ends at any byte of a
// leader's group leaves the follower with the leader's log up to the last
// whole record before the cut, a store that log replays to, and Applied at
// that record; a record the store refuses ends the follower with the
// records before it logged and nothing after.
func TestFollowerStreamCutAtEveryByte(t *testing.T) {
	gold := task.Answer{Words: []int{7}}
	answer := task.Answer{WorkerID: "w1", Words: []int{3}}
	goldProbe := submitEvent(t, 2)
	goldProbe.Gold = &gold
	log, ends := leaderGroup(t, []store.Event{
		submitEvent(t, 1),
		goldProbe,
		{Kind: store.EventAnswer, At: t0.Add(time.Second), TaskID: 1, Answer: &answer},
		submitEvent(t, 3),
		{Kind: store.EventCancel, At: t0.Add(2 * time.Second), TaskID: 3},
		{Kind: store.EventAnswer, At: t0.Add(3 * time.Second), TaskID: 2, Answer: &gold},
	})
	records := log[store.WALHeaderSize:]
	// prefix[w] is the leader's log up to its w-th record (a log no record
	// reached is never written), replayed[w] the store it replays to.
	prefix, replayed := make([][]byte, len(ends)+1), make([][]byte, len(ends)+1)
	for w := range prefix {
		if w > 0 {
			prefix[w] = log[:ends[w-1]]
		}
		s := store.New()
		if _, err := store.ReplayWALObserved(bytes.NewReader(prefix[w]), s, nil); err != nil {
			t.Fatal(err)
		}
		replayed[w] = snapshotOf(t, s)
	}
	var cut atomic.Int64
	srv := cutServer(t, records, &cut)

	whole := 0 // records wholly inside the cut
	for k := 0; k <= len(records); k++ {
		for whole < len(ends) && ends[whole]-store.WALHeaderSize <= k {
			whole++
		}
		cut.Store(int64(k))
		f, s, got := storeFollower(srv.URL)
		if err := f.stream(context.Background()); err != nil {
			t.Fatalf("cut at %d: stream = %v", k, err)
		}
		if !bytes.Equal(got.Bytes(), prefix[whole]) {
			t.Fatalf("cut at %d: follower logged %d bytes, want the leader's first %d (%d records)", k, got.Len(), len(prefix[whole]), whole)
		}
		if f.Applied() != int64(whole) {
			t.Fatalf("cut at %d: Applied = %d, want %d", k, f.Applied(), whole)
		}
		if !bytes.Equal(snapshotOf(t, s), replayed[whole]) {
			t.Fatalf("cut at %d: the follower's store differs from its log's replay", k)
		}
	}

	t.Run("a record the store refuses", func(t *testing.T) {
		log, ends := leaderGroup(t, []store.Event{
			submitEvent(t, 1), submitEvent(t, 2), submitEvent(t, 1), submitEvent(t, 3),
		})
		records := log[store.WALHeaderSize:]
		var cut atomic.Int64
		cut.Store(int64(len(records)))
		f, s, got := storeFollower(cutServer(t, records, &cut).URL)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := f.Run(ctx)
		if !isFatalApply(err) {
			t.Fatalf("Run = %v, want the duplicate submit's fatal error", err)
		}
		if want := log[:ends[1]]; !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("follower logged %d bytes, want the %d before the duplicate", got.Len(), len(want))
		}
		if f.Applied() != 2 || s.Len() != 2 {
			t.Fatalf("Applied %d, %d tasks stored; want the 2 records before the duplicate", f.Applied(), s.Len())
		}
	})
}

// countingFile is a follower's WAL file that counts its writes and fsyncs.
type countingFile struct {
	bytes.Buffer
	writes, syncs int
}

func (c *countingFile) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}

func (c *countingFile) Sync() error {
	c.syncs++
	return nil
}

// TestFollowerWritesAndFsyncsPerGroup: catching up on a backlog under
// SyncAlways, a follower writes and fsyncs once per group it received, not
// once per record, and what it writes is its leader's log.
func TestFollowerWritesAndFsyncsPerGroup(t *testing.T) {
	l := newLeader(t)
	const total = markEvery + 904
	appendN(t, l, 1, total)

	file := &countingFile{}
	f := NewFollower(FollowerOptions{
		Leader: l.srv.URL,
		Term:   1,
		Apply:  func(int64, store.Event) error { return nil },
		WAL:    store.NewWALWith(file, store.WALOptions{Policy: store.SyncAlways, Syncer: file}),
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	waitFor(t, 10*time.Second, func() bool { return f.Applied() >= total })
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	t.Logf("%d records: %d writes, %d fsyncs", total, file.writes, file.syncs)
	if file.writes >= total/10 || file.syncs >= total/10 {
		t.Fatalf("%d writes and %d fsyncs for %d records, want under one per 10 records", file.writes, file.syncs, total)
	}
	leader, err := os.ReadFile(l.walBuf.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file.Bytes(), leader) {
		t.Fatalf("follower logged %d bytes, leader's log is %d", file.Len(), len(leader))
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk gone") }

// TestFollowerWriteFailureIsFatal: a follower whose WAL refuses a write
// stops with a fatal error instead of reconnecting, and its log stays
// failed, which keeps the node unready.
func TestFollowerWriteFailureIsFatal(t *testing.T) {
	log, _ := leaderGroup(t, []store.Event{submitEvent(t, 1), submitEvent(t, 2)})
	records := log[store.WALHeaderSize:]
	var cut atomic.Int64
	cut.Store(int64(len(records)))
	wal := store.NewWAL(failingWriter{})
	f := NewFollower(FollowerOptions{
		Leader: cutServer(t, records, &cut).URL,
		Term:   1,
		Apply:  func(int64, store.Event) error { return nil },
		WAL:    wal,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Run(ctx); !isFatalApply(err) {
		t.Fatalf("Run = %v, want the failed write's fatal error", err)
	}
	if wal.Healthy() || f.Applied() != 0 {
		t.Fatalf("after a failed write: Healthy %v, Applied %d", wal.Healthy(), f.Applied())
	}
}
