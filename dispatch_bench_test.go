package humancomp_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"humancomp/internal/core"
	"humancomp/internal/queue"
	"humancomp/internal/task"
)

// Parallel dispatch data-plane benchmarks: every goroutine RunParallel
// spawns is one dispatch client hammering submit / lease / answer. Run
// with -benchmem.

// BenchmarkDispatchSubmit measures task submission alone: atomic ID
// allocation, store insert, queue insert.
func BenchmarkDispatchSubmit(b *testing.B) {
	sys := core.New(core.DefaultConfig())
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := sys.SubmitTask(task.Label, task.Payload{ImageID: 1}, 1, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDispatchSubmitLeaseAnswer measures the full round trip behind
// POST /v1/tasks + POST /v1/next + POST /v1/leases/{id}: submissions and
// completions balance, so the queue stays near-empty while allocator,
// tables, heap and lease table are all exercised every iteration.
func BenchmarkDispatchSubmitLeaseAnswer(b *testing.B) {
	sys := core.New(core.DefaultConfig())
	var wid atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		worker := fmt.Sprintf("bench-w%d", wid.Add(1))
		for pb.Next() {
			if _, err := sys.SubmitTask(task.Label, task.Payload{ImageID: 1}, 1, 0); err != nil {
				b.Fatal(err)
			}
			_, lease, err := sys.NextTask(worker)
			if errors.Is(err, queue.ErrEmpty) {
				continue // another goroutine leased our submission first
			}
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.SubmitAnswer(lease, task.Answer{Words: []int{1}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchBatch is the batch the *Batch benchmarks move per iteration.
const benchBatch = 64

// BenchmarkDispatchSubmitBatch measures batched submission: one iteration
// moves benchBatch tasks through SubmitBatchCtx, which takes each lock once
// per batch and appends one WAL group instead of 64 records.
func BenchmarkDispatchSubmitBatch(b *testing.B) {
	ctx := context.Background()
	sys := core.New(core.DefaultConfig())
	specs := make([]core.SubmitSpec, benchBatch)
	for i := range specs {
		specs[i] = core.SubmitSpec{Kind: task.Label, Payload: task.Payload{ImageID: 1}, Redundancy: 1}
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			for _, out := range sys.SubmitBatchCtx(ctx, specs) {
				if out.Err != nil {
					b.Fatal(out.Err)
				}
			}
		}
	})
}

// BenchmarkDispatchSubmitLeaseAnswerBatch measures the batched round trip
// behind POST /v1/tasks:batch + /v1/leases:batch + /v1/leases:answers:
// each iteration submits a batch, leases up to a batch for one worker and
// answers every granted lease.
func BenchmarkDispatchSubmitLeaseAnswerBatch(b *testing.B) {
	ctx := context.Background()
	sys := core.New(core.DefaultConfig())
	specs := make([]core.SubmitSpec, benchBatch)
	for i := range specs {
		specs[i] = core.SubmitSpec{Kind: task.Label, Payload: task.Payload{ImageID: 1}, Redundancy: 1}
	}
	var wid atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		worker := fmt.Sprintf("bench-w%d", wid.Add(1))
		items := make([]queue.CompleteItem, 0, benchBatch)
		for pb.Next() {
			for _, out := range sys.SubmitBatchCtx(ctx, specs) {
				if out.Err != nil {
					b.Fatal(out.Err)
				}
			}
			grants := sys.LeaseBatchCtx(ctx, worker, benchBatch)
			items = items[:0]
			for _, g := range grants {
				items = append(items, queue.CompleteItem{Lease: g.Lease, Answer: task.Answer{Words: []int{1}}})
			}
			for _, o := range sys.AnswerBatchDetailedCtx(ctx, items) {
				if o.Err != nil {
					b.Fatal(o.Err)
				}
			}
		}
	})
}
