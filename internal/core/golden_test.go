package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"humancomp/internal/queue"
	"humancomp/internal/repl"
	"humancomp/internal/rng"
	"humancomp/internal/sim"
	"humancomp/internal/store"
	"humancomp/internal/task"
	"humancomp/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_* from this run")

// TestWritePathGolden replays one seeded schedule of every mutating
// operation — single and batch submit (gold probes, an invalid item, an
// invalid gold expectation), single and batch lease, single and batch
// answer (a bogus lease among them), release, cancel, lease expiry and a
// stretch with the journal refusing appends — under a virtual clock, and
// compares what it leaves behind with files written by the same test at
// the commit before the write path was collapsed to one implementation per
// operation: the WAL bytes, the snapshot bytes, Stats(), every request's
// result and every task's lifecycle stage sequence. Requests alternate
// between the plain entry points and the Ctx ones under a live span
// handle, so both must leave the same bytes.
//
// Two things computed in floating point are left out, because Go may fuse
// multiply-adds on some architectures and the files must not depend on
// where they were written: the estimator's state in the snapshot sidecar
// and the confidence mean in Stats. Early completion itself (a threshold
// on that arithmetic) is in: its finish records are WAL bytes.
func TestWritePathGolden(t *testing.T) {
	wal, snap, text := runGoldenSchedule(t)
	base := filepath.Join("testdata", "golden_s1")
	for ext, got := range map[string][]byte{".wal": wal, ".snapshot.json": snap, ".txt": text} {
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(base+ext, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(base + ext)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the golden file (%d bytes, want %d)%s",
				base+ext, len(got), len(want), firstDiff(got, want))
		}
	}
}

// firstDiff renders the first differing line of two texts; binary files
// get the byte offset only.
func firstDiff(got, want []byte) string {
	n := 0
	for n < len(got) && n < len(want) && got[n] == want[n] {
		n++
	}
	line := func(b []byte) string {
		lo := bytes.LastIndexByte(b[:min(n, len(b))], '\n') + 1
		hi := len(b)
		if i := bytes.IndexByte(b[lo:], '\n'); i >= 0 {
			hi = lo + i
		}
		return strings.ToValidUTF8(string(b[lo:min(hi, lo+300)]), "?")
	}
	return fmt.Sprintf("\nfirst difference at byte %d\n got: %s\nwant: %s", n, line(got), line(want))
}

type goldenLease struct {
	lease  queue.LeaseID
	id     task.ID
	kind   task.Kind
	worker string
}

func runGoldenSchedule(t *testing.T) (walBytes, snapBytes, text []byte) {
	t.Helper()
	clk := sim.NewSimulator(time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC))
	var walBuf bytes.Buffer
	wal := store.NewWAL(&walBuf)
	// The switchable journal is the failure injector: detached, every
	// append fails whole; reattached, the log continues where it was.
	journal := &repl.SwitchableJournal{}
	journal.Set(wal)
	cfg := DefaultConfig()
	cfg.Clock = clk
	cfg.Journal = journal
	cfg.TraceCapacity = 1 << 18
	cfg.OnlineQuality = true
	cfg.ConfidenceTarget = 0.9
	cfg.Spans = trace.SpanConfig{Enabled: true}
	s := New(cfg)

	r := rng.New(14)
	var log bytes.Buffer
	var held []goldenLease
	var maxID task.ID
	workers := []string{"ann", "bob", "cy", "dee", "eli", "fay"}
	errStr := func(err error) string {
		switch {
		case err == nil:
			return "ok"
		case errors.Is(err, queue.ErrUnknownTask), errors.Is(err, task.ErrWrongStatus):
			// An answer or cancel that found its task finished or gone: which
			// of the two errors a late answer gets is the one behaviour this
			// file's commit changed on purpose (TestLateAnswerIsWrongStatus).
			return "err=task finished or unknown"
		}
		return "err=" + err.Error()
	}
	// ctx returns a traced context on every other request.
	traced := false
	ctxFor := func(op string) (context.Context, func()) {
		traced = !traced
		if !traced {
			return nil, func() {}
		}
		h := s.Spans().StartTrace(trace.TraceID{}, trace.SpanID{}, op)
		return trace.NewContext(context.Background(), h), func() { s.Spans().Finish(h, "") }
	}
	spec := func() SubmitSpec {
		sp := SubmitSpec{Redundancy: 1 + r.Intn(3), Priority: r.Intn(4)}
		switch r.Intn(3) {
		case 0:
			sp.Kind, sp.Payload = task.Label, task.Payload{ImageID: 1 + r.Intn(50), Taboo: []int{r.Intn(9)}}
		case 1:
			sp.Kind, sp.Payload = task.Judge, task.Payload{ClipA: 1 + r.Intn(50), ClipB: 1 + r.Intn(50)}
		default:
			sp.Kind, sp.Payload = task.Compare, task.Payload{ImageID: 1 + r.Intn(50), ImageB: 1 + r.Intn(50)}
		}
		if r.Intn(5) == 0 {
			sp.Gold = true
			if sp.Kind == task.Label {
				sp.Expected = task.Answer{Words: []int{r.Intn(4)}}
			} else {
				sp.Expected = task.Answer{Choice: r.Intn(2)}
			}
		}
		return sp
	}
	answerFor := func(l goldenLease) task.Answer {
		if l.kind == task.Label {
			return task.Answer{Words: []int{r.Intn(4), 10 + r.Intn(4)}}
		}
		// Mostly agreeing votes, so some tasks cross the confidence target.
		c := int(l.id) & 1
		if r.Intn(6) == 0 {
			c = 1 - c
		}
		return task.Answer{Choice: c}
	}
	take := func(i int) goldenLease {
		l := held[i]
		held = append(held[:i], held[i+1:]...)
		return l
	}
	noteID := func(id task.ID) {
		if id > maxID {
			maxID = id
		}
	}

	for step := 0; step < 400; step++ {
		switch step {
		case 180:
			journal.Set(nil)
			fmt.Fprintf(&log, "%03d journal detached\n", step)
		case 215:
			journal.Set(wal)
			fmt.Fprintf(&log, "%03d journal attached\n", step)
		}
		clk.Run(clk.Now().Add(time.Duration(1+r.Intn(5)) * time.Second))
		worker := workers[r.Intn(len(workers))]
		switch op := r.Intn(24); {
		case op < 3: // single submit, gold or plain by the spec
			sp := spec()
			ctx, done := ctxFor("submit")
			var id task.ID
			var err error
			switch {
			case sp.Gold && ctx != nil:
				id, err = s.SubmitGoldCtx(ctx, sp.Kind, sp.Payload, sp.Redundancy, sp.Priority, sp.Expected)
			case sp.Gold:
				id, err = s.SubmitGold(sp.Kind, sp.Payload, sp.Redundancy, sp.Priority, sp.Expected)
			case ctx != nil:
				id, err = s.SubmitTaskCtx(ctx, sp.Kind, sp.Payload, sp.Redundancy, sp.Priority)
			default:
				id, err = s.SubmitTask(sp.Kind, sp.Payload, sp.Redundancy, sp.Priority)
			}
			done()
			noteID(id)
			fmt.Fprintf(&log, "%03d submit gold=%v -> id=%d %s\n", step, sp.Gold, id, errStr(err))
		case op < 5: // batch submit, sometimes with a bad item or a bad gold expectation
			specs := make([]SubmitSpec, 1+r.Intn(5))
			for i := range specs {
				specs[i] = spec()
			}
			switch r.Intn(4) {
			case 0:
				specs[r.Intn(len(specs))].Redundancy = -1
			case 1:
				specs[r.Intn(len(specs))] = SubmitSpec{Kind: task.Judge, Redundancy: 1, Gold: true, Expected: task.Answer{Choice: 7}}
			}
			ctx, done := ctxFor("submit_batch")
			var out []SubmitOutcome
			if ctx != nil {
				out = s.SubmitBatchCtx(ctx, specs)
			} else {
				out = s.SubmitBatch(specs)
			}
			done()
			fmt.Fprintf(&log, "%03d submit_batch n=%d ->", step, len(specs))
			for _, o := range out {
				noteID(o.ID)
				fmt.Fprintf(&log, " [id=%d %s]", o.ID, errStr(o.Err))
			}
			log.WriteByte('\n')
		case op < 10: // single lease
			ctx, done := ctxFor("next")
			var v task.View
			var lease queue.LeaseID
			var err error
			if ctx != nil {
				v, lease, err = s.NextTaskCtx(ctx, worker)
			} else {
				v, lease, err = s.NextTask(worker)
			}
			done()
			if err == nil {
				held = append(held, goldenLease{lease, v.ID, v.Kind, worker})
			}
			fmt.Fprintf(&log, "%03d next %s -> task=%d lease=%d answers=%d %s\n", step, worker, v.ID, lease, len(v.Answers), errStr(err))
		case op < 12: // batch lease
			max := 1 + r.Intn(4)
			ctx, done := ctxFor("lease_batch")
			var grants []queue.LeaseGrant
			if ctx != nil {
				grants = s.LeaseBatchCtx(ctx, worker, max)
			} else {
				grants = s.LeaseBatch(worker, max)
			}
			done()
			fmt.Fprintf(&log, "%03d lease_batch %s max=%d ->", step, worker, max)
			for _, g := range grants {
				held = append(held, goldenLease{g.Lease, g.Task.ID, g.Task.Kind, worker})
				fmt.Fprintf(&log, " [task=%d lease=%d]", g.Task.ID, g.Lease)
			}
			log.WriteByte('\n')
		case op < 17: // single answer
			if len(held) == 0 {
				continue
			}
			l := take(r.Intn(len(held)))
			ctx, done := ctxFor("answer")
			var err error
			if ctx != nil {
				err = s.SubmitAnswerCtx(ctx, l.lease, answerFor(l))
			} else {
				err = s.SubmitAnswer(l.lease, answerFor(l))
			}
			done()
			fmt.Fprintf(&log, "%03d answer lease=%d task=%d -> %s\n", step, l.lease, l.id, errStr(err))
		case op < 20: // batch answer, sometimes with a lease nobody holds
			var items []queue.CompleteItem
			for n := 1 + r.Intn(4); n > 0 && len(held) > 0; n-- {
				l := take(r.Intn(len(held)))
				items = append(items, queue.CompleteItem{Lease: l.lease, Answer: answerFor(l)})
			}
			if r.Intn(3) == 0 {
				items = append(items, queue.CompleteItem{Lease: queue.LeaseID(1 << 40), Answer: task.Answer{Words: []int{1}}})
			}
			ctx, done := ctxFor("answer_batch")
			var out []AnswerOutcome
			if ctx != nil {
				out = s.AnswerBatchDetailedCtx(ctx, items)
			} else {
				out = s.AnswerBatchDetailed(items)
			}
			done()
			fmt.Fprintf(&log, "%03d answer_batch n=%d ->", step, len(items))
			for i, o := range out {
				fmt.Fprintf(&log, " [lease=%d task=%d status=%v early=%v %s]", items[i].Lease, o.TaskID, o.Status, o.EarlyDone, errStr(o.Err))
			}
			log.WriteByte('\n')
		case op < 21: // release
			if len(held) == 0 {
				continue
			}
			l := take(r.Intn(len(held)))
			fmt.Fprintf(&log, "%03d release lease=%d -> %s\n", step, l.lease, errStr(s.ReleaseTask(l.lease)))
		case op < 23: // cancel any task ever submitted, finished ones included
			if maxID == 0 {
				continue
			}
			id := task.ID(1 + r.Intn(int(maxID)))
			fmt.Fprintf(&log, "%03d cancel task=%d -> %s\n", step, id, errStr(s.CancelTask(id)))
		default: // a pause long enough to expire every outstanding lease
			clk.Run(clk.Now().Add(cfg.LeaseTTL + time.Second))
			fmt.Fprintf(&log, "%03d expire -> %d\n", step, s.ExpireLeases())
		}
	}

	var snap bytes.Buffer
	if err := s.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if walked := s.Store().Count(task.Open); st.Queue.Open != walked {
		t.Errorf("queue counts %d open tasks, a walk over the store finds %d", st.Queue.Open, walked)
	}
	st.Quality.ConfidenceMean = 0
	stats, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "stats %s\n", stats)
	out.Write(log.Bytes())
	for id := task.ID(1); id <= maxID; id++ {
		fmt.Fprintf(&out, "task %d gold=%v:", id, s.IsGold(id))
		for _, e := range s.TaskTrace(id) {
			fmt.Fprintf(&out, " %s", e.Stage)
		}
		out.WriteByte('\n')
	}
	return walBuf.Bytes(), stripEstimatorState(t, snap.Bytes()), out.Bytes()
}

// stripEstimatorState drops calibration.online_ds from a snapshot
// document and re-encodes it (object keys come out sorted).
func stripEstimatorState(t *testing.T, snap []byte) []byte {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(snap, &doc); err != nil {
		t.Fatal(err)
	}
	var cal map[string]json.RawMessage
	if err := json.Unmarshal(doc["calibration"], &cal); err != nil {
		t.Fatal(err)
	}
	delete(cal, "online_ds")
	var err error
	if doc["calibration"], err = json.Marshal(cal); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// hookJournal runs before ahead of each write of a group, on the writer's
// goroutine, and after once the group is on the log, each with the group's
// first event. A submit is written before the queue lock is taken; an
// answer, cancel or finish in the critical section that applied it. When
// set, durable runs ahead of each durable wait, with the lock released.
type hookJournal struct {
	Journal
	before, after func(store.Event)
	durable       func(seq int64)
}

func (j *hookJournal) WriteEvents(events []store.Event) (int64, error) {
	j.before(events[0])
	seq, err := j.Journal.WriteEvents(events)
	j.after(events[0])
	return seq, err
}

func (j *hookJournal) WaitDurable(seq int64) (time.Duration, error) {
	if j.durable != nil {
		j.durable(seq)
	}
	return j.Journal.WaitDurable(seq)
}

// TestLateJournalledAnswerRecovers pins acked ⟺ recovered for an answer
// acknowledged after the finish (or cancel) that closed its task: cy's
// answer is applied and written while the task is open — behind bob's, in
// the finish case, whose answer crosses the confidence target — and cy's
// wait for durability is held until the close is written. cy's answer was
// acknowledged, so the log must replay, in the order the live queue
// applied it, the recovered store must checkpoint to the live store's
// bytes, and the estimator must end with the task completed.
func TestLateJournalledAnswerRecovers(t *testing.T) {
	for _, closing := range []store.EventKind{store.EventFinish, store.EventCancel} {
		t.Run(string(closing), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Clock = sim.NewSimulator(time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC))
			cfg.OnlineQuality = true
			cfg.ConfidenceTarget = 0.6 // two agreeing votes cross it
			recovered := New(cfg)

			var (
				wal           bytes.Buffer
				log           = store.NewWAL(&wal)
				s             *System
				leases        = map[string]queue.LeaseID{}
				bobSeq, cySeq atomic.Int64
				cyWritten     = make(chan struct{})
				closed        = make(chan struct{})
				cyAcked       = make(chan error, 1)
			)
			// cyAnswers returns once the queue has applied and written cy's
			// answer and cy is waiting for it to be durable.
			cyAnswers := func() {
				go func() { cyAcked <- s.SubmitAnswer(leases["cy"], task.Answer{Choice: 1}) }()
				<-cyWritten
			}
			cfg.Journal = &hookJournal{
				Journal: log,
				before:  func(store.Event) {},
				after: func(e store.Event) {
					switch {
					case e.Kind == closing:
						close(closed)
					case e.Kind != store.EventAnswer:
					case e.Answer.WorkerID == "cy":
						cySeq.Store(log.LastSeq())
						close(cyWritten)
					case e.Answer.WorkerID == "bob":
						bobSeq.Store(log.LastSeq())
					}
				},
				durable: func(seq int64) {
					switch seq {
					case cySeq.Load():
						<-closed
					case bobSeq.Load():
						if closing == store.EventFinish {
							// bob's answer is applied and about to finish the
							// task: cy goes in behind him, ahead of the finish.
							cyAnswers()
						}
					}
				},
			}
			s = New(cfg)

			id, err := s.SubmitTask(task.Judge, task.Payload{ClipA: 1, ClipB: 2}, 5, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []string{"ann", "bob", "cy"} {
				if _, leases[w], err = s.NextTask(w); err != nil {
					t.Fatal(err)
				}
			}
			if closing == store.EventFinish {
				for _, w := range []string{"ann", "bob"} {
					if err := s.SubmitAnswer(leases[w], task.Answer{Choice: 1}); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				cyAnswers()
				if err := s.CancelTask(id); err != nil {
					t.Fatal(err)
				}
			}
			if err := <-cyAcked; err != nil {
				t.Fatalf("cy's answer, recorded while the task was open, was refused: %v", err)
			}
			if v, err := s.Task(id); err != nil || v.Status == task.Open || v.Answers[len(v.Answers)-1].WorkerID != "cy" {
				t.Fatalf("live task after the schedule: %+v, %v; want closed with cy's answer last", v, err)
			}

			// The queue's lifecycle events are emitted as it applies each
			// change: the log must hold the same changes in the same order.
			var applied, logged []string
			for _, e := range s.TaskTrace(id) {
				switch e.Stage {
				case trace.StageAnswer:
					applied = append(applied, "answer "+e.Worker)
				case trace.StageComplete:
					applied = append(applied, string(store.EventFinish))
				case trace.StageCancel:
					applied = append(applied, string(store.EventCancel))
				}
			}
			for sc := store.NewRecordScanner(bytes.NewReader(wal.Bytes()), 0); sc.Scan(); {
				switch e := sc.Event(); e.Kind {
				case store.EventAnswer:
					logged = append(logged, "answer "+e.Answer.WorkerID)
				case store.EventFinish, store.EventCancel:
					logged = append(logged, string(e.Kind))
				}
			}
			if !slices.Equal(logged, applied) {
				t.Fatalf("log order %q, live apply order %q", logged, applied)
			}

			if _, err := store.ReplayWALObserved(bytes.NewReader(wal.Bytes()), recovered.Store(), recovered.ObserveRecoveredEvent); err != nil {
				t.Fatalf("the log of acknowledged writes does not replay: %v", err)
			}
			if live, got := checkpointSum(t, s.Store()), checkpointSum(t, recovered.Store()); live != got {
				t.Fatalf("recovered checkpoint %x, live %x", got, live)
			}
			if closing == store.EventFinish {
				if p, err := recovered.TaskPosterior(id); err != nil || !p.Done {
					t.Fatalf("recovered estimator: %+v, %v; want the task completed", p, err)
				}
			}
		})
	}
}

// TestAnswerCannotOvertakeInTheLog: answers a and b to one task, b sent
// while a is at the journal, where a's hook waits up to 50 ms for b to get
// there too. Written after the queue lock was released, b would be logged
// ahead of a though applied behind it, and the log would replay the two
// answers in the other order. Written in the critical section that applied
// them, b waits for the lock until a is on the log: the log order is the
// apply order and the recovered checkpoint is the live one.
func TestAnswerCannotOvertakeInTheLog(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Clock = sim.NewSimulator(time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC))
	recovered := New(cfg)

	var (
		wal        bytes.Buffer
		aAtJournal = make(chan struct{})
		bAtJournal = make(chan struct{})
	)
	worker := func(e store.Event) string {
		if e.Kind != store.EventAnswer {
			return ""
		}
		return e.Answer.WorkerID
	}
	cfg.Journal = &hookJournal{
		Journal: store.NewWAL(&wal),
		before: func(e store.Event) {
			switch worker(e) {
			case "a":
				close(aAtJournal)
				select {
				case <-bAtJournal:
				case <-time.After(50 * time.Millisecond):
				}
			case "b":
				close(bAtJournal)
			}
		},
		after: func(store.Event) {},
	}
	s := New(cfg)
	id, err := s.SubmitTask(task.Label, task.Payload{ImageID: 1}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	leases := map[string]queue.LeaseID{}
	for _, w := range []string{"a", "b"} {
		if _, leases[w], err = s.NextTask(w); err != nil {
			t.Fatal(err)
		}
	}
	aAcked := make(chan error, 1)
	go func() { aAcked <- s.SubmitAnswer(leases["a"], task.Answer{Words: []int{1}}) }()
	<-aAtJournal
	if err := s.SubmitAnswer(leases["b"], task.Answer{Words: []int{2}}); err != nil {
		t.Fatal(err)
	}
	if err := <-aAcked; err != nil {
		t.Fatal(err)
	}

	if _, err := store.ReplayWAL(bytes.NewReader(wal.Bytes()), recovered.Store()); err != nil {
		t.Fatalf("the log of acknowledged writes does not replay: %v", err)
	}
	live, _ := s.Task(id)
	got, _ := recovered.Task(id)
	order := func(v task.View) (ws []string) {
		for _, a := range v.Answers {
			ws = append(ws, a.WorkerID)
		}
		return ws
	}
	if !slices.Equal(order(got), order(live)) {
		t.Errorf("answers replay in the order %q, were applied in the order %q", order(got), order(live))
	}
	if live, got := checkpointSum(t, s.Store()), checkpointSum(t, recovered.Store()); live != got {
		t.Fatalf("recovered checkpoint %x, live %x", got, live)
	}
}

// checkpointSum is the SHA-256 of st's checkpoint.
func checkpointSum(t *testing.T, st *store.Store) [sha256.Size]byte {
	t.Helper()
	var b bytes.Buffer
	if err := st.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(b.Bytes())
}

// TestSubmitIsUnknownUntilItIsQueued: a submit stores and enqueues its task
// in one hold of the queue lock, after the journal append. Until then the
// ID resolves nowhere: a cancel or a targeted lease of the ID being
// submitted, made from the journal just before the append and just after
// it, gets queue.ErrUnknownTask, so nothing about the task can be decided,
// or journalled, ahead of it. Once the submit returns, the task leases as
// any other and the queue counts what the store holds open.
func TestSubmitIsUnknownUntilItIsQueued(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Clock = sim.NewSimulator(time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC))
	var (
		wal   bytes.Buffer
		s     *System
		early []error
	)
	probe := func(e store.Event) {
		if e.Kind != store.EventSubmit {
			return
		}
		_, _, err := s.LeaseTaskFor(e.Task.ID, "early")
		early = append(early, err, s.CancelTask(e.Task.ID))
	}
	cfg.Journal = &hookJournal{Journal: store.NewWAL(&wal), before: probe, after: probe}
	s = New(cfg)
	id, err := s.SubmitTask(task.Label, task.Payload{ImageID: 1}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(early) != 4 {
		t.Fatalf("the journal saw %d probes, want 4", len(early))
	}
	for i, err := range early {
		if !errors.Is(err, queue.ErrUnknownTask) {
			t.Errorf("%s %s the append: %v, want queue.ErrUnknownTask",
				[]string{"lease", "cancel"}[i%2], []string{"before", "after"}[i/2], err)
		}
	}
	if v, _, err := s.LeaseTaskFor(id, "late"); err != nil || v.ID != id {
		t.Fatalf("lease after the submit: task %d, %v", v.ID, err)
	}
	if open, stored := s.Stats().Queue.Open, s.Store().Count(task.Open); open != 1 || stored != 1 {
		t.Fatalf("the queue counts %d open tasks, the store holds %d; want 1 each", open, stored)
	}
}

// TestConcurrentWriteMixKeepsOneOpenSet: submits of label and compare
// tasks, cancels of the newest IDs (the one a submit may be journalling
// included), leases, answers and — the quality plane on, with a target two
// agreeing votes cross — early finishes, from goroutines that each draw
// their operations from a seeded source. Once they are done, the queue
// counts exactly the open tasks the store holds, and the WAL of
// acknowledged writes replays to the same checkpoint, byte for byte: every
// answer, cancel and finish is on the log in the order it was applied.
// (The calibration sidecar is left out: the estimator observes outside the
// queue lock.)
func TestConcurrentWriteMixKeepsOneOpenSet(t *testing.T) {
	var wal bytes.Buffer
	cfg := DefaultConfig()
	cfg.Journal = store.NewWAL(&wal)
	cfg.OnlineQuality = true
	cfg.ConfidenceTarget = 0.6
	s := New(cfg)
	var newest atomic.Int64 // the ID a submit returned last, give or take a racing goroutine
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(31 + g))
			worker := fmt.Sprintf("w%d", g)
			type held struct {
				lease queue.LeaseID
				kind  task.Kind
			}
			var leases []held
			for step := 0; step < 400; step++ {
				switch op := r.Intn(10); {
				case op < 3:
					specs := make([]SubmitSpec, 1+r.Intn(3))
					for i := range specs {
						specs[i] = SubmitSpec{Kind: task.Label, Payload: task.Payload{ImageID: step}, Redundancy: 1 + r.Intn(3), Priority: r.Intn(3)}
						if r.Intn(2) == 0 {
							specs[i].Kind, specs[i].Payload = task.Compare, task.Payload{ImageID: step, ImageB: step + 1}
						}
					}
					for _, o := range s.SubmitBatch(specs) {
						if o.Err != nil {
							t.Errorf("submit: %v", o.Err)
							return
						}
						newest.Store(int64(o.ID))
					}
				case op < 5:
					id := task.ID(newest.Load() + 1 - int64(r.Intn(4)))
					if err := s.CancelTask(id); err != nil && !errors.Is(err, task.ErrWrongStatus) && !errors.Is(err, queue.ErrUnknownTask) {
						t.Errorf("cancel %d: %v", id, err)
					}
				case op < 8:
					if v, l, err := s.NextTask(worker); err == nil {
						leases = append(leases, held{l, v.Kind})
					}
				default:
					if len(leases) == 0 {
						continue
					}
					i := r.Intn(len(leases))
					a := task.Answer{Words: []int{step}}
					if leases[i].kind == task.Compare {
						a = task.Answer{Choice: min(1, r.Intn(4))} // mostly agreeing
					}
					if err := s.SubmitAnswer(leases[i].lease, a); err != nil && !errors.Is(err, task.ErrWrongStatus) {
						t.Errorf("answer: %v", err)
					}
					leases = append(leases[:i], leases[i+1:]...)
				}
			}
		}(g)
	}
	wg.Wait()

	open := s.Store().IDs(task.Open)
	if got := s.Stats().Queue.Open; got != len(open) || got == 0 {
		t.Fatalf("the queue counts %d open tasks, the store holds %d", got, len(open))
	}
	if s.QualityStats().EarlyCompleted == 0 {
		t.Fatal("no task finished early: the mix does not cover early finishes")
	}
	recovered := New(DefaultConfig())
	if _, err := store.ReplayWAL(bytes.NewReader(wal.Bytes()), recovered.Store()); err != nil {
		t.Fatalf("the log of acknowledged writes does not replay: %v", err)
	}
	if got := recovered.Store().IDs(task.Open); !slices.Equal(got, open) {
		t.Fatalf("replay recovers %d open tasks, the live store holds %d", len(got), len(open))
	}
	if live, got := checkpointSum(t, s.Store()), checkpointSum(t, recovered.Store()); live != got {
		t.Fatalf("recovered checkpoint %x, live %x", got, live)
	}
}

// TestSubmitIsJournalledBeforeItIsLeasable: another connection leasing
// while a submit is on its way to the log must not get the task. Stored and
// enqueued before its submit was journalled, the task could be leased and
// answered in that window, its answer journalled ahead of it, and the log of
// acknowledged writes would no longer replay.
func TestSubmitIsJournalledBeforeItIsLeasable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Clock = sim.NewSimulator(time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC))
	recovered := New(cfg)

	var (
		wal   bytes.Buffer
		s     *System
		raced error
	)
	cfg.Journal = &hookJournal{
		Journal: store.NewWAL(&wal),
		before: func(e store.Event) {
			if e.Kind != store.EventSubmit {
				return
			}
			_, lease, err := s.NextTask("early")
			if err == nil {
				err = s.SubmitAnswer(lease, task.Answer{Words: []int{1}})
			}
			raced = err
		},
		after: func(store.Event) {},
	}
	s = New(cfg)
	id, err := s.SubmitTask(task.Label, task.Payload{ImageID: 1}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Acknowledged, the task leases and answers as any other.
	_, lease, err := s.NextTask("late")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitAnswer(lease, task.Answer{Words: []int{2}}); err != nil {
		t.Fatal(err)
	}

	if _, err := store.ReplayWAL(bytes.NewReader(wal.Bytes()), recovered.Store()); err != nil {
		t.Fatalf("the log of acknowledged writes does not replay: %v", err)
	}
	if !errors.Is(raced, queue.ErrEmpty) {
		t.Fatalf("a lease during the submit's append got %v, want queue.ErrEmpty", raced)
	}
	if live, got := s.Store().Count(task.Open), recovered.Store().Count(task.Open); live != 1 || got != 1 {
		t.Fatalf("open tasks: live %d, recovered %d; want 1 each", live, got)
	}
	if v, err := recovered.Task(id); err != nil || len(v.Answers) != 1 || v.Answers[0].WorkerID != "late" {
		t.Fatalf("recovered task %+v, %v; want late's answer alone", v, err)
	}
}
