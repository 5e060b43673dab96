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
						live, err := sys.Store().Get(id)
						if err != nil {
							t.Fatal(err)
						}
						lock := sys.Store().LockerFor(id)
						lock.Lock()
						if end == "finish" {
							err = live.Finish(time.Now())
						} else {
							err = live.Cancel(time.Now())
						}
						lock.Unlock()
						if err != nil {
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
