package dispatch

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"humancomp/internal/core"
	"humancomp/internal/queue"
	"humancomp/internal/sim"
	"humancomp/internal/store"
	"humancomp/internal/task"
)

// TestLateAnswerIs409: a worker answering on a lease whose task has since
// finished (here: early, by confidence) or been cancelled gets 409
// "task: not open" from POST /v1/leases/{id} and as the item status of
// POST /v1/leases:answers — both while the queue still holds the task's
// entry and after it has dropped it. The second case used to be a 404
// "queue: unknown task".
func TestLateAnswerIs409(t *testing.T) {
	for _, end := range []string{"finish", "cancel"} {
		for _, dropped := range []bool{false, true} {
			for _, batch := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/dropped=%v/batch=%v", end, dropped, batch), func(t *testing.T) {
					cfg := core.DefaultConfig()
					cfg.OnlineQuality = true
					cfg.ConfidenceTarget = 0.6
					sys := core.New(cfg)
					srv := httptest.NewServer(NewServer(sys))
					t.Cleanup(srv.Close)
					c := NewClient(srv.URL, srv.Client())

					id, err := c.Submit(task.Judge, task.Payload{ClipA: 1, ClipB: 2}, 5, 0)
					if err != nil {
						t.Fatal(err)
					}
					leases := map[string]queue.LeaseID{}
					for _, w := range []string{"ann", "bob", "late"} {
						if _, leases[w], err = c.Next(w); err != nil {
							t.Fatal(err)
						}
					}
					switch {
					case dropped && end == "finish":
						// Two agreeing votes cross the 0.6 target: the quality
						// plane finishes the task with three answers to spare.
						for _, w := range []string{"ann", "bob"} {
							if err := c.Answer(leases[w], task.Answer{Choice: 1}); err != nil {
								t.Fatal(err)
							}
						}
					case dropped:
						if err := c.Cancel(id); err != nil {
							t.Fatal(err)
						}
					default:
						// Finished or cancelled in place, as a replica's apply
						// loop does: the queue has not dropped the entry yet.
						kind := store.EventCancel
						if end == "finish" {
							kind = store.EventFinish
						}
						if err := store.ApplyEvent(sys.Store(), store.Event{Kind: kind, At: time.Now(), TaskID: id}); err != nil {
							t.Fatal(err)
						}
					}
					if v, err := sys.Task(id); err != nil || v.Status == task.Open {
						t.Fatalf("task still open before the late answer: %+v, %v", v, err)
					}

					late := task.Answer{Choice: 0}
					if batch {
						res, err := c.AnswerBatch([]BatchAnswerItem{{Lease: leases["late"], Answer: late}})
						if err != nil {
							t.Fatal(err)
						}
						if res[0].Status != http.StatusConflict || res[0].Error != task.ErrWrongStatus.Error() {
							t.Fatalf("late batch answer = %+v, want 409 %q", res[0], task.ErrWrongStatus)
						}
						return
					}
					var apiErr *APIError
					if err := c.Answer(leases["late"], late); !errors.As(err, &apiErr) ||
						apiErr.Status != http.StatusConflict || apiErr.Message != task.ErrWrongStatus.Error() {
						t.Fatalf("late answer = %v, want 409 %q", err, task.ErrWrongStatus)
					}
				})
			}
		}
	}
}

// TestOldFormLeaseIDIsAnUnknownLease: a lease ID used to carry the index of
// one of several lock shards in its low bits (seq<<3 | 5 on an eight-shard
// node); it is now the sequence number alone. Leases are never persisted, so
// a worker that kept such an ID across a restart holds a number this process
// never granted, and gets exactly what a worker whose lease has expired gets
// — 404 "queue: unknown or expired lease" — on answer, release and as a
// batch item, with a live lease outstanding beside it.
func TestOldFormLeaseIDIsAnUnknownLease(t *testing.T) {
	clk := sim.NewSimulator(time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC))
	cfg := core.DefaultConfig()
	cfg.Clock = clk
	srv := httptest.NewServer(NewServer(core.New(cfg)))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, srv.Client())

	for i := 0; i < 2; i++ {
		if _, err := c.Submit(task.Label, task.Payload{ImageID: 1 + i}, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	_, expired, err := c.Next("gone")
	if err != nil {
		t.Fatal(err)
	}
	clk.Run(clk.Now().Add(cfg.LeaseTTL + time.Second))
	if _, _, err := c.Next("here"); err != nil { // a live lease in the table
		t.Fatal(err)
	}

	const oldForm = queue.LeaseID(41<<3 | 5)
	a := task.Answer{Words: []int{1}}
	for _, lease := range []queue.LeaseID{expired, oldForm} {
		for op, err := range map[string]error{"answer": c.Answer(lease, a), "release": c.Release(lease)} {
			var apiErr *APIError
			if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Message != queue.ErrUnknownLease.Error() {
				t.Errorf("%s on lease %d = %v, want 404 %q", op, lease, err, queue.ErrUnknownLease)
			}
		}
		res, err := c.AnswerBatch([]BatchAnswerItem{{Lease: lease, Answer: a}})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Status != http.StatusNotFound || res[0].Error != queue.ErrUnknownLease.Error() {
			t.Errorf("batch answer on lease %d = %+v, want 404 %q", lease, res[0], queue.ErrUnknownLease)
		}
	}
}
