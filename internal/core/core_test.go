package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"humancomp/internal/queue"
	"humancomp/internal/store"
	"humancomp/internal/task"
	"humancomp/internal/vocab"
)

// fakeClock is a settable clock for lease-expiry tests.
type fakeClock struct{ now time.Time }

func (f *fakeClock) Now() time.Time { return f.now }

var t0 = time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)

func newSystem() (*System, *fakeClock) {
	clk := &fakeClock{now: t0}
	cfg := DefaultConfig()
	cfg.Clock = clk
	return New(cfg), clk
}

func TestSubmitLeaseAnswerFlow(t *testing.T) {
	s, _ := newSystem()
	id, err := s.SubmitTask(task.Label, task.Payload{ImageID: 7}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	tk, lease, err := s.NextTask("alice")
	if err != nil || tk.ID != id {
		t.Fatalf("NextTask = %v, %v", tk, err)
	}
	if err := s.SubmitAnswer(lease, task.Answer{Words: []int{3}}); err != nil {
		t.Fatal(err)
	}
	tk2, lease2, err := s.NextTask("bob")
	if err != nil || tk2.ID != id {
		t.Fatalf("second lease: %v, %v", tk2, err)
	}
	if err := s.SubmitAnswer(lease2, task.Answer{Words: []int{5}}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Task(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != task.Done || len(got.Answers) != 2 {
		t.Fatalf("task after redundancy: %+v", got)
	}
	st := s.Stats()
	if st.TasksSubmitted != 1 || st.AnswersTotal != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestGWAPClampsAnswerBeforeLease: a clock stepped back between lease and
// answer records the round as zero play instead of panicking the GWAP.
func TestGWAPClampsAnswerBeforeLease(t *testing.T) {
	s, clk := newSystem()
	if _, err := s.SubmitTask(task.Label, task.Payload{ImageID: 7}, 1, 0); err != nil {
		t.Fatal(err)
	}
	_, lease, err := s.NextTask("alice")
	if err != nil {
		t.Fatal(err)
	}
	clk.now = t0.Add(-time.Minute)
	if err := s.SubmitAnswer(lease, task.Answer{Words: []int{3}}); err != nil {
		t.Fatal(err)
	}
	rep := s.GWAP()
	if rep.TotalPlayHours != 0 || rep.Sessions != 1 || rep.Players != 1 || rep.Outputs != 1 {
		t.Fatalf("GWAP = %+v, want zero play, 1 session, 1 player, 1 output", rep)
	}
}

func TestNextTaskValidation(t *testing.T) {
	s, _ := newSystem()
	if _, _, err := s.NextTask(""); err == nil {
		t.Fatal("empty worker ID accepted")
	}
	if _, _, err := s.NextTask("w"); !errors.Is(err, queue.ErrEmpty) {
		t.Fatalf("empty system: %v", err)
	}
}

func TestGoldUpdatesReputation(t *testing.T) {
	s, _ := newSystem()
	expected := task.Answer{Choice: 1}
	id, err := s.SubmitGold(task.Judge, task.Payload{ClipA: 1, ClipB: 2}, 2, 0, expected)
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsGold(id) {
		t.Fatal("gold task not marked")
	}

	_, lease, err := s.NextTask("good")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitAnswer(lease, task.Answer{Choice: 1}); err != nil {
		t.Fatal(err)
	}
	_, lease, err = s.NextTask("bad")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitAnswer(lease, task.Answer{Choice: 0}); err != nil {
		t.Fatal(err)
	}

	rep := s.Reputation()
	if rep.Probes("good") != 1 || rep.Probes("bad") != 1 {
		t.Fatalf("probes: %d, %d", rep.Probes("good"), rep.Probes("bad"))
	}
	if rep.Accuracy("good") <= rep.Accuracy("bad") {
		t.Errorf("gold scoring inverted: good=%.2f bad=%.2f", rep.Accuracy("good"), rep.Accuracy("bad"))
	}
	if s.Stats().GoldChecked != 2 {
		t.Errorf("GoldChecked = %d", s.Stats().GoldChecked)
	}
}

func TestAnswerMatches(t *testing.T) {
	cases := []struct {
		name     string
		kind     task.Kind
		expected task.Answer
		got      task.Answer
		want     bool
	}{
		{"label hit", task.Label, task.Answer{Words: []int{1, 2}}, task.Answer{Words: []int{9, 2}}, true},
		{"label miss", task.Label, task.Answer{Words: []int{1, 2}}, task.Answer{Words: []int{9}}, false},
		{"locate overlap", task.Locate, task.Answer{Box: vocab.Rect{X: 0, Y: 0, W: 10, H: 10}},
			task.Answer{Box: vocab.Rect{X: 1, Y: 1, W: 10, H: 10}}, true},
		{"locate far", task.Locate, task.Answer{Box: vocab.Rect{X: 0, Y: 0, W: 10, H: 10}},
			task.Answer{Box: vocab.Rect{X: 50, Y: 50, W: 10, H: 10}}, false},
		{"transcribe case", task.Transcribe, task.Answer{Text: "Hello"}, task.Answer{Text: " hello "}, true},
		{"transcribe typo", task.Transcribe, task.Answer{Text: "hello"}, task.Answer{Text: "helo"}, false},
		{"judge hit", task.Judge, task.Answer{Choice: 1}, task.Answer{Choice: 1}, true},
		{"compare miss", task.Compare, task.Answer{Choice: 0}, task.Answer{Choice: 1}, false},
	}
	for _, c := range cases {
		if got := AnswerMatches(c.kind, c.expected, c.got); got != c.want {
			t.Errorf("%s: AnswerMatches = %v", c.name, got)
		}
	}
}

func TestAggregateChoiceWeighted(t *testing.T) {
	s, _ := newSystem()
	// Train reputations via gold probes: "expert" 10/10, three "guessers" 5/10.
	for i := 0; i < 10; i++ {
		gid, err := s.SubmitGold(task.Judge, task.Payload{}, 4, 0, task.Answer{Choice: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []string{"expert", "g1", "g2", "g3"} {
			_, lease, err := s.NextTask(w)
			if err != nil {
				t.Fatal(err)
			}
			choice := 1
			if w != "expert" && i%2 == 0 {
				choice = 0
			}
			if err := s.SubmitAnswer(lease, task.Answer{Choice: choice}); err != nil {
				t.Fatal(err)
			}
		}
		_ = gid
	}
	// Real task: expert says 0, the three guessers say 1.
	id, err := s.SubmitTask(task.Judge, task.Payload{}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"expert", "g1", "g2", "g3"} {
		_, lease, err := s.NextTask(w)
		if err != nil {
			t.Fatal(err)
		}
		choice := 1
		if w == "expert" {
			choice = 0
		}
		if err := s.SubmitAnswer(lease, task.Answer{Choice: choice}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.AggregateChoice(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Choice != 0 {
		t.Errorf("weighted aggregate = %d; expert should outweigh guessers", res.Choice)
	}
	if res.Votes != 4 || res.Confidence <= 0 || res.Confidence > 1 {
		t.Errorf("result = %+v", res)
	}
}

func TestAggregateChoiceErrors(t *testing.T) {
	s, _ := newSystem()
	id, _ := s.SubmitTask(task.Label, task.Payload{}, 1, 0)
	if _, err := s.AggregateChoice(id); !errors.Is(err, ErrWrongKind) {
		t.Fatalf("wrong kind: %v", err)
	}
	jid, _ := s.SubmitTask(task.Judge, task.Payload{}, 1, 0)
	if _, err := s.AggregateChoice(jid); err == nil {
		t.Fatal("no answers should error")
	}
	if _, err := s.AggregateChoice(999); err == nil {
		t.Fatal("unknown task should error")
	}
}

func TestAggregateWords(t *testing.T) {
	s, _ := newSystem()
	id, _ := s.SubmitTask(task.Label, task.Payload{ImageID: 1}, 3, 0)
	answers := []task.Answer{
		{Words: []int{5, 9, 5}}, // duplicate within one answer counts once
		{Words: []int{5}},
		{Words: []int{9, 2}},
	}
	for i, a := range answers {
		_, lease, err := s.NextTask(string(rune('a' + i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SubmitAnswer(lease, a); err != nil {
			t.Fatal(err)
		}
	}
	words, err := s.AggregateWords(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != 3 || words[0] != (WordCount{Word: 5, Count: 2}) || words[1] != (WordCount{Word: 9, Count: 2}) {
		t.Fatalf("AggregateWords = %v", words)
	}
	if _, err := s.AggregateWords(999); err == nil {
		t.Fatal("unknown task should error")
	}
	jid, _ := s.SubmitTask(task.Judge, task.Payload{}, 1, 0)
	if _, err := s.AggregateWords(jid); !errors.Is(err, ErrWrongKind) {
		t.Fatalf("wrong kind: %v", err)
	}
}

func TestLeaseExpiryThroughClock(t *testing.T) {
	s, clk := newSystem()
	if _, err := s.SubmitTask(task.Label, task.Payload{}, 1, 0); err != nil {
		t.Fatal(err)
	}
	_, lease, err := s.NextTask("a")
	if err != nil {
		t.Fatal(err)
	}
	clk.now = clk.now.Add(3 * time.Minute) // past the 2-minute TTL
	if n := s.ExpireLeases(); n != 1 {
		t.Fatalf("expired %d leases", n)
	}
	if err := s.SubmitAnswer(lease, task.Answer{Words: []int{1}}); !errors.Is(err, queue.ErrUnknownLease) {
		t.Fatalf("submit on expired lease: %v", err)
	}
	if _, _, err := s.NextTask("b"); err != nil {
		t.Fatalf("task not requeued after expiry: %v", err)
	}
}

func TestReleaseAndCancel(t *testing.T) {
	s, _ := newSystem()
	id, _ := s.SubmitTask(task.Label, task.Payload{}, 1, 0)
	_, lease, err := s.NextTask("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReleaseTask(lease); err != nil {
		t.Fatal(err)
	}
	if err := s.CancelTask(id); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.NextTask("a"); !errors.Is(err, queue.ErrEmpty) {
		t.Fatalf("canceled task still leasable: %v", err)
	}
}

func TestNewPanicsOnBadTTL(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LeaseTTL 0 did not panic")
		}
	}()
	New(Config{})
}

func BenchmarkSubmitLeaseAnswer(b *testing.B) {
	s, _ := newSystem()
	for i := 0; i < b.N; i++ {
		if _, err := s.SubmitTask(task.Label, task.Payload{}, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, lease, err := s.NextTask("w")
		if err != nil {
			b.Fatal(err)
		}
		if err := s.SubmitAnswer(lease, task.Answer{Words: []int{1}}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRequeueOpenAfterRestore(t *testing.T) {
	s, _ := newSystem()
	openID, _ := s.SubmitTask(task.Label, task.Payload{ImageID: 1}, 1, 0)
	doneID, _ := s.SubmitTask(task.Label, task.Payload{ImageID: 2}, 1, 5) // leased first
	tk, lease, err := s.NextTask("w")
	if err != nil || tk.ID != doneID {
		t.Fatalf("setup lease: %v %v", tk, err)
	}
	if err := s.SubmitAnswer(lease, task.Answer{Words: []int{1}}); err != nil {
		t.Fatal(err)
	}

	// Simulate a restart: snapshot, restore into a fresh system, requeue.
	var buf bytes.Buffer
	if err := s.Store().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s2, _ := newSystem()
	if err := s2.Store().Restore(&buf); err != nil {
		t.Fatal(err)
	}
	s2.RequeueOpen()
	tk, lease, err = s2.NextTask("w")
	if err != nil || tk.ID != openID {
		t.Fatalf("after requeue: task=%v err=%v", tk, err)
	}
	if err := s2.SubmitAnswer(lease, task.Answer{Words: []int{2}}); err != nil {
		t.Fatal(err)
	}
	// The done task must not come back.
	if _, _, err := s2.NextTask("w3"); !errors.Is(err, queue.ErrEmpty) {
		t.Fatalf("done task requeued: %v", err)
	}
	// RequeueOpen is idempotent.
	s2.RequeueOpen()
}

// TestTimeInQueueCoversEveryOpenTask: every first lease is observed as time
// in queue, however large the backlog — more open tasks than the trace ring
// holds events included.
func TestTimeInQueueCoversEveryOpenTask(t *testing.T) {
	const n = 20000 // > trace.DefaultCapacity
	s, clk := newSystem()
	specs := make([]SubmitSpec, n)
	for i := range specs {
		specs[i] = SubmitSpec{Kind: task.Label, Payload: task.Payload{ImageID: i}, Redundancy: 2}
	}
	for i, o := range s.SubmitBatch(specs) {
		if o.Err != nil {
			t.Fatalf("submit %d: %v", i, o.Err)
		}
	}
	clk.now = t0.Add(time.Second)
	if got := len(s.LeaseBatch("w", n)); got != n {
		t.Fatalf("leased %d tasks, want %d", got, n)
	}
	inQueue, _, _ := s.Trace().Latencies()
	if inQueue.Count() != n || inQueue.Sum() != n*time.Second {
		t.Fatalf("time in queue: %d observations totalling %v, want %d of 1s", inQueue.Count(), inQueue.Sum(), n)
	}
}

func TestCancelTaskEdgeCases(t *testing.T) {
	s, _ := newSystem()

	// Unknown ID: the system never saw it.
	if err := s.CancelTask(42); !errors.Is(err, queue.ErrUnknownTask) {
		t.Fatalf("cancel unknown: %v", err)
	}

	// Done task: redundancy met, the queue dropped it, the store remembers.
	id, _ := s.SubmitTask(task.Label, task.Payload{}, 1, 0)
	_, lease, err := s.NextTask("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitAnswer(lease, task.Answer{Words: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.CancelTask(id); !errors.Is(err, task.ErrWrongStatus) {
		t.Fatalf("cancel done: %v", err)
	}

	// Double cancel: the second attempt sees a finished task.
	id2, _ := s.SubmitTask(task.Label, task.Payload{}, 1, 0)
	if err := s.CancelTask(id2); err != nil {
		t.Fatal(err)
	}
	if err := s.CancelTask(id2); !errors.Is(err, task.ErrWrongStatus) {
		t.Fatalf("double cancel: %v", err)
	}

	// Cancel while leased: cancellation wins and the in-flight answer
	// bounces off the drained queue.
	id3, _ := s.SubmitTask(task.Label, task.Payload{}, 1, 0)
	_, lease3, err := s.NextTask("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CancelTask(id3); err != nil {
		t.Fatalf("cancel while leased: %v", err)
	}
	got, err := s.Task(id3)
	if err != nil || got.Status != task.Canceled {
		t.Fatalf("status after cancel while leased: %+v, %v", got, err)
	}
	if err := s.SubmitAnswer(lease3, task.Answer{Words: []int{1}}); !errors.Is(err, task.ErrWrongStatus) {
		t.Fatalf("answer after cancel: %v", err)
	}
}

// flakyJournal fails its first appends, then recovers.
type flakyJournal struct{ failures int }

func (j *flakyJournal) WriteEvents([]store.Event) (int64, error) {
	if j.failures > 0 {
		j.failures--
		return 0, errors.New("journal: disk full")
	}
	return 1, nil
}

func (j *flakyJournal) WaitDurable(int64) (time.Duration, error) { return 0, nil }

func TestSubmitTaskJournalErrorRollsBack(t *testing.T) {
	clk := &fakeClock{now: t0}
	cfg := DefaultConfig()
	cfg.Clock = clk
	cfg.Journal = &flakyJournal{failures: 1}
	s := New(cfg)

	if _, err := s.SubmitTask(task.Label, task.Payload{}, 1, 0); err == nil {
		t.Fatal("submit with failing journal succeeded")
	}
	// The failed submit left no trace: nothing stored, nothing leasable,
	// nothing counted.
	if _, _, err := s.NextTask("w"); !errors.Is(err, queue.ErrEmpty) {
		t.Fatalf("unjournaled task leasable: %v", err)
	}
	if st := s.Stats(); st.TasksSubmitted != 0 || st.StoredTasks != 0 {
		t.Fatalf("failed submit counted: %+v", st)
	}
	// Once the journal recovers the system keeps working.
	id, err := s.SubmitTask(task.Label, task.Payload{}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Task(id); err != nil {
		t.Fatalf("task after journal recovery: %v", err)
	}
}
