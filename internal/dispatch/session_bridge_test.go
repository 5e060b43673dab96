package dispatch

import (
	"bytes"
	"context"
	"crypto/sha256"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"humancomp/internal/core"
	"humancomp/internal/repl"
	"humancomp/internal/session"
	"humancomp/internal/store"
	"humancomp/internal/task"
)

// TestAgreementIsOneRecord: a session agreement is one write. A live
// agreement adds exactly one WAL record, a submit whose Label task on the
// item is Done and carries both players' answers; a replay agreement adds
// one with the live seat's answer alone; a round that did not agree adds
// none. After that run, beside ordinary queue traffic, the checkpoint built
// live, the one recovered from the WAL and a follower's after it applies
// the leader's stream are byte-equal (SHA-256).
func TestAgreementIsOneRecord(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "leader.wal")
	f, err := os.Create(walPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	src := repl.NewSource(repl.SourceOptions{Term: 1, WALPath: walPath})
	t.Cleanup(src.Close)
	srv := httptest.NewServer(src.Handler(nil))
	t.Cleanup(srv.Close)
	wal := store.NewWALWith(f, store.WALOptions{OnRecord: src.OnRecord})
	t.Cleanup(func() { wal.Close() })
	cfg := core.DefaultConfig()
	cfg.OnlineQuality = true
	recovered, follower := core.New(cfg), core.New(cfg)
	cfg.Journal = wal
	sys := core.New(cfg)
	bridge := NewSessionBridge(sys)

	records := func() []store.Event {
		t.Helper()
		data, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		var out []store.Event
		sc := store.NewRecordScanner(bytes.NewReader(data), 0)
		for sc.Scan() {
			// An event's Task, Answer and Gold are the scanner's until the
			// next Scan: the Task is copied, and the rest is not read.
			e := sc.Event()
			if e.Task != nil {
				tk := *e.Task
				e.Task = &tk
			}
			out = append(out, e)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	// agree hands the bridge one finished round and returns the records it
	// added to the log.
	agree := func(r session.Result) []store.Event {
		t.Helper()
		before := len(records())
		bridge.OnResult(r)
		return records()[before:]
	}
	wantAgreement := func(added []store.Event, item, word int, players ...string) {
		t.Helper()
		if len(added) != 1 {
			t.Fatalf("the agreement added %d records, want 1: %+v", len(added), added)
		}
		e := added[0]
		if e.Kind != store.EventSubmit || e.Task == nil {
			t.Fatalf("the agreement's record is %+v, want a submit", e)
		}
		tk := e.Task
		if tk.Kind != task.Label || tk.Status != task.Done || tk.Payload.ImageID != item || len(tk.Answers()) != len(players) {
			t.Fatalf("the agreement's task is %+v, want a done label task on item %d with %d answers", tk, item, len(players))
		}
		for i, a := range tk.Answers() {
			if a.WorkerID != players[i] || len(a.Words) != 1 || a.Words[0] != word {
				t.Fatalf("answer %d is %+v, want %s typing %d", i, a, players[i], word)
			}
		}
	}

	// Ordinary queue traffic around the agreements: a gold probe and a
	// plain task, each leased and answered.
	if _, err := sys.SubmitGold(task.Judge, task.Payload{ImageID: 9}, 1, 1, task.Answer{Choice: 1}); err != nil {
		t.Fatal(err)
	}
	wantAgreement(agree(session.Result{Item: 3, Mode: session.Live, Players: [2]string{"alice", "bob"}, Agreed: true, Word: 30}), 3, 30, "alice", "bob")
	if _, err := sys.SubmitTask(task.Compare, task.Payload{ImageID: 4}, 2, 0); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"alice", "alice", "carol"} { // the probe, then the task twice
		_, lease, err := sys.NextTask(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.SubmitAnswer(lease, task.Answer{Choice: 1}); err != nil {
			t.Fatal(err)
		}
	}
	wantAgreement(agree(session.Result{Item: 3, Mode: session.Replay, Players: [2]string{"carol", "replay:alice"}, Agreed: true, Word: 31}), 3, 31, "carol")
	if added := agree(session.Result{Item: 2, Mode: session.Live, Players: [2]string{"dave", "erin"}, Word: -1}); len(added) != 0 {
		t.Fatalf("a round that did not agree added %d records", len(added))
	}
	if placed, dropped := bridge.Stats(); placed != 3 || dropped != 0 {
		t.Fatalf("bridge placed %d / dropped %d answers, want 3/0", placed, dropped)
	}
	if st := sys.Stats(); st.TasksSubmitted != 4 || st.AnswersTotal != 6 || st.Queue.Open != 0 || st.Queue.InFlight != 0 {
		t.Fatalf("stats %+v; want 4 submits, 6 answers and nothing open or leased", st)
	}

	checkpoint := func(s *core.System) [sha256.Size]byte {
		t.Helper()
		var b bytes.Buffer
		if err := s.Snapshot(&b); err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(b.Bytes())
	}
	live := checkpoint(sys)

	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.ReplayWALObserved(bytes.NewReader(data), recovered.Store(), recovered.ObserveRecoveredEvent); err != nil {
		t.Fatal(err)
	}
	if got := checkpoint(recovered); got != live {
		t.Errorf("the checkpoint recovered from the WAL differs from the live one")
	}

	follower.SetReadOnly(true)
	fl := repl.NewFollower(repl.FollowerOptions{Leader: srv.URL, Term: 1, Apply: func(_ int64, e store.Event) error {
		if err := store.ApplyEvent(follower.Store(), e); err != nil {
			return err
		}
		follower.ObserveRecoveredEvent(e)
		return nil
	}, WAL: store.NewWAL(io.Discard)})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- fl.Run(ctx) }()
	for deadline := time.Now().Add(10 * time.Second); fl.Applied() < wal.Len(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the follower applied %d of %d records", fl.Applied(), wal.Len())
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := checkpoint(follower); got != live {
		t.Errorf("the follower's checkpoint differs from the leader's")
	}
}
