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
	"strings"
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

// hookJournal runs before ahead of each one-event append, on the appender's
// goroutine, and after once the event is on the log.
type hookJournal struct {
	Journal
	before, after func(store.Event)
}

func (j *hookJournal) AppendBatchObserved(events []store.Event) (write, sync time.Duration, err error) {
	j.before(events[0])
	write, sync, err = j.Journal.AppendBatchObserved(events)
	j.after(events[0])
	return write, sync, err
}

// TestLateJournalledAnswerRecovers pins acked ⟺ recovered for the one
// schedule the write path cannot order: answers are journalled after the
// queue has recorded them with nothing held across the two, so an answer
// the queue took while the task was open can reach the log behind the
// finish (or cancel) that closed it. Two writers, made deterministic by
// holding cy's append until the close is written: cy's answer was
// acknowledged, so the log must replay, the recovered store must checkpoint
// to the live store's bytes, and the estimator must end with the task
// completed.
func TestLateJournalledAnswerRecovers(t *testing.T) {
	for _, closing := range []store.EventKind{store.EventFinish, store.EventCancel} {
		t.Run(string(closing), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Clock = sim.NewSimulator(time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC))
			cfg.OnlineQuality = true
			cfg.ConfidenceTarget = 0.6 // two agreeing votes cross it
			recovered := New(cfg)

			var (
				wal       bytes.Buffer
				s         *System
				leases    = map[string]queue.LeaseID{}
				cyArrived = make(chan struct{})
				closed    = make(chan struct{})
				cyAcked   = make(chan error, 1)
			)
			// cyAnswers returns once the queue holds cy's answer and its append
			// is waiting at the journal.
			cyAnswers := func() {
				go func() { cyAcked <- s.SubmitAnswer(leases["cy"], task.Answer{Choice: 1}) }()
				<-cyArrived
			}
			cfg.Journal = &hookJournal{
				Journal: store.NewWAL(&wal),
				before: func(e store.Event) {
					switch {
					case e.Kind != store.EventAnswer:
					case e.Answer.WorkerID == "cy":
						close(cyArrived)
						<-closed
					case e.Answer.WorkerID == "bob" && closing == store.EventFinish:
						// bob is in the queue and about to finish the task:
						// cy goes in behind him, ahead of the finish.
						cyAnswers()
					}
				},
				after: func(e store.Event) {
					if e.Kind == closing {
						close(closed)
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

			if _, err := store.ReplayWALObserved(bytes.NewReader(wal.Bytes()), recovered.Store(), recovered.ObserveRecoveredEvent); err != nil {
				t.Fatalf("the log of acknowledged writes does not replay: %v", err)
			}
			sum := func(st *store.Store) [sha256.Size]byte {
				var b bytes.Buffer
				if err := st.Snapshot(&b); err != nil {
					t.Fatal(err)
				}
				return sha256.Sum256(b.Bytes())
			}
			if live, got := sum(s.Store()), sum(recovered.Store()); live != got {
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
