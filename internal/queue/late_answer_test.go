package queue

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"humancomp/internal/task"
)

// TestLateAnswerIsWrongStatus: an answer on a live lease whose task has
// finished or been cancelled is refused with task.ErrWrongStatus whether
// the queue closed the task itself or it was closed in place behind the
// queue's back — it used to be ErrUnknownTask (a 404 on the wire) once the
// queue had dropped the task, and ErrWrongStatus (409) a moment earlier.
// Single and batch completion agree, and the refusal retires the lease.
func TestLateAnswerIsWrongStatus(t *testing.T) {
	for _, end := range []string{"finish", "cancel"} {
		for _, dropped := range []bool{false, true} {
			for _, batch := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/dropped=%v/batch=%v", end, dropped, batch), func(t *testing.T) {
					q := New(time.Minute)
					tk := newTask(t, 1, 0, 3)
					if err := q.Add(tk); err != nil {
						t.Fatal(err)
					}
					_, lease, err := q.Lease("late", t0)
					if err != nil {
						t.Fatal(err)
					}
					switch {
					case dropped && end == "finish":
						if _, ok := q.FinishEarly(tk.ID, t0); !ok {
							t.Fatal("FinishEarly refused an open task")
						}
					case dropped:
						if err := q.Cancel(tk.ID, t0); err != nil {
							t.Fatal(err)
						}
					case end == "finish":
						// The state a replica's apply loop leaves: the task is
						// finished in place, the queue has not looked yet.
						_ = stored(t, q, tk.ID).Finish(t0)
					default:
						_ = stored(t, q, tk.ID).Cancel(t0)
					}
					// Closed through the queue, the task is uncounted at once; in
					// place, it stays counted (see Queue.open).
					want := 1
					if dropped {
						want = 0
					}
					if open := q.Stats(t0).Open; open != want {
						t.Fatalf("closed through the queue = %v, Stats().Open = %d, want %d", dropped, open, want)
					}

					complete := func() error {
						a := task.Answer{Words: []int{1}}
						if batch {
							return q.CompleteBatch([]CompleteItem{{Lease: lease, Answer: a}}, t0)[0].Err
						}
						_, err := q.Complete(lease, a, t0)
						return err
					}
					if err := complete(); !errors.Is(err, task.ErrWrongStatus) {
						t.Fatalf("late answer err = %v, want task.ErrWrongStatus", err)
					}
					if err := complete(); !errors.Is(err, ErrUnknownLease) {
						t.Fatalf("second late answer err = %v, want ErrUnknownLease (lease retired)", err)
					}
				})
			}
		}
	}
}
