package main

// layers.go is the adapter between the harness and the program: every call
// into humancomp/internal/... is in this file, so a later change to a
// package's API is repaired here and nowhere else. It replays a workload's
// request stream against successively smaller in-process stacks —
// dispatch.Server.ServeHTTP, then core.System, then the public functions of
// queue, store, store.WAL, quality, trace and jsonx that core composes —
// timing each call from outside, so a layer's self time is one rung's
// measurement minus the next rung's, not an estimate.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"humancomp/internal/core"
	"humancomp/internal/dispatch"
	"humancomp/internal/jsonx"
	"humancomp/internal/metrics"
	"humancomp/internal/quality"
	"humancomp/internal/queue"
	"humancomp/internal/repl"
	"humancomp/internal/store"
	"humancomp/internal/task"
	"humancomp/internal/trace"
)

const (
	// confidenceTarget is hcservd -confidence-target in every workload. The
	// workloads were specified at 0.95; it is 0 (confidence-based early
	// completion off, the estimator still observing every vote) because at
	// the commit this benchmark was written against, two concurrent answers
	// to one task can reach the WAL in the opposite order to the queue, and
	// when the first of them triggers an early finish the log reads answer,
	// finish, answer — which recovery rejects ("task: not open") and the
	// node then refuses to boot. README.md, "Known defect". Set it back to
	// 0.95 in the change that follows the fix.
	confidenceTarget  = 0.0
	qualityMinAnswers = 2 // hcservd -quality-min-answers default
	leaseTTL          = 2 * time.Minute
)

// countingSyncer counts the fsyncs a WAL issues.
type countingSyncer struct {
	f *os.File
	n atomic.Int64
}

func (c *countingSyncer) Sync() error {
	c.n.Add(1)
	return c.f.Sync()
}

// journalFile is a WAL on a file in dir at the workload's sync policy,
// with the replication tap attached as hcservd attaches it.
type journalFile struct {
	wal   *store.WAL
	file  *os.File
	syncs *countingSyncer
	src   *repl.Source
}

func newJournalFile(w *workload, dir, name string) (*journalFile, error) {
	policy, err := store.ParseSyncPolicy(w.walSync)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	j := &journalFile{file: f, syncs: &countingSyncer{f: f}}
	j.src = repl.NewSource(repl.SourceOptions{WALPath: path})
	j.wal = store.NewWALWith(f, store.WALOptions{Policy: policy, Syncer: j.syncs, OnRecord: j.src.OnRecord})
	return j, nil
}

func (j *journalFile) close() {
	_ = j.wal.Close() // a rung's log is scratch; nothing reads it after the rung
	j.src.Close()
	_ = j.file.Close()
}

func coreConfig(journal core.Journal, tracing bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.LeaseTTL = leaseTTL
	cfg.Journal = journal
	cfg.OnlineQuality = true
	cfg.ConfidenceTarget = confidenceTarget
	cfg.QualityMinAnswers = qualityMinAnswers
	cfg.Spans = trace.SpanConfig{Enabled: tracing}
	if !tracing {
		cfg.TraceCapacity = -1
	}
	return cfg
}

func specPayload(t taskSpec) (task.Kind, task.Payload) {
	k, err := task.ParseKind(t.Kind)
	if err != nil {
		panic(err) // the generator only names kinds the program has
	}
	return k, task.Payload{ImageID: t.ImageA, ImageB: t.ImageB}
}

func submitSpecs(specs []taskSpec) []core.SubmitSpec {
	out := make([]core.SubmitSpec, len(specs))
	for i, t := range specs {
		k, p := specPayload(t)
		out[i] = core.SubmitSpec{Kind: k, Payload: p, Redundancy: t.Redundancy, Priority: t.Priority}
	}
	return out
}

// preloadSystem makes the workload's resident set through the batch path.
func preloadSystem(sys *core.System, w *workload, seed int64) error {
	src := newPreloadSpecs(w, seed)
	for len(src) > 0 {
		n := min(preloadBatch, len(src))
		for _, o := range sys.SubmitBatchCtx(context.Background(), submitSpecs(src[:n])) {
			if o.Err != nil {
				return o.Err
			}
		}
		src = src[n:]
	}
	return nil
}

// timings collects every measured call of the in-process rungs by name.
type timings struct {
	m    map[string][]time.Duration
	log  *spanLog
	span bool // record spans too: on for a rung's pass over the workload's own stream
}

func (t *timings) add(i int, name, parent string, start time.Time, d time.Duration) {
	t.m[name] = append(t.m[name], d)
	if t.span && t.log != nil {
		t.log.add(i, name, parent, start, d)
	}
}

func (t *timings) p50(name string) float64 { return durQuantile(t.m[name], 0.5) }
func (t *timings) p99(name string) float64 { return durQuantile(t.m[name], 0.99) }

// perItem is p50 of a batch call divided by the batch size.
func (t *timings) perItem(name string) float64 { return t.p50(name) / batchItems }

// memWriter is an http.ResponseWriter into memory, reused across calls.
type memWriter struct {
	h      http.Header
	status int
	buf    bytes.Buffer
}

func (m *memWriter) Header() http.Header { return m.h }
func (m *memWriter) WriteHeader(s int) {
	if m.status == 0 {
		m.status = s
	}
}
func (m *memWriter) Write(b []byte) (int, error) {
	if m.status == 0 {
		m.status = http.StatusOK
	}
	return m.buf.Write(b)
}

// handlerDoer is the handler rung's transport: the request the wire driver
// would send, handed straight to ServeHTTP. Only the ServeHTTP call is
// timed; building the request is the harness's cost.
type handlerDoer struct {
	h    http.Handler
	auth []string
	rw   memWriter
}

func newHandlerDoer(h http.Handler) *handlerDoer {
	return &handlerDoer{h: h, auth: []string{"Bearer " + apiKey}, rw: memWriter{h: make(http.Header)}}
}

func (d *handlerDoer) do(method, path string, body []byte, idemKey string) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://bench"+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	req.RemoteAddr = "127.0.0.1:1"
	req.Header["Authorization"] = d.auth
	if body != nil {
		req.Header["Content-Type"] = jsonType
	}
	if idemKey != "" {
		req.Header["Idempotency-Key"] = []string{idemKey}
	}
	clear(d.rw.h)
	d.rw.status = 0
	d.rw.buf.Reset()
	start := time.Now()
	d.h.ServeHTTP(&d.rw, req)
	took := time.Since(start)
	return d.rw.status, d.rw.buf.Bytes(), took, nil
}

// nopHandler prices the harness's own share of a handler-rung request.
type nopHandler struct{}

func (nopHandler) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusNoContent)
}

// stack is one in-process node: journal, core and the HTTP handler.
type stack struct {
	j   *journalFile
	sys *core.System
	srv *dispatch.Server
}

func newStack(w *workload, seed int64, dir, name string) (*stack, error) {
	j, err := newJournalFile(w, dir, name)
	if err != nil {
		return nil, err
	}
	sys := core.New(coreConfig(j.wal, true))
	if err := preloadSystem(sys, w, seed); err != nil {
		j.close()
		return nil, err
	}
	// hcservd logs every request at info; the handler rung keeps the
	// formatting and drops the write.
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := dispatch.NewServerWith(sys, dispatch.Options{
		APIKeys: []string{apiKey}, Logger: logger,
		RequestTimeout: 30 * time.Second, MaxInFlight: 1024,
	})
	return &stack{j: j, sys: sys, srv: srv}, nil
}

// coverage is a stream that touches every route the per-layer table
// names, for the routes a workload's own mix leaves out.
func coverage(w *workload) *workload {
	c := *w
	c.unit = []opKind{opSubmit, opNext, opAnswer, opSubmitBatch, opLeaseBatch, opAnswerBatch,
		opGetTask, opTrace}
	if w.kind == "compare" { // only choice tasks have a posterior to ask for
		c.unit = append(c.unit, opPosterior)
	}
	return &c
}

func mallocs() (n, bytes uint64, pauseNs uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs
}

// level is one rung of the ladder: something that can make the call an op
// stands for and time it. The rungs take turns request by request, so a
// drift in the machine (fsync gets slower, a neighbour wakes up) moves the
// same request on every rung and cancels in the subtraction.
type level interface {
	step(i int, o op, st *stream) error
}

// lockstep replays st on every level in turn until the budget is spent and
// returns how many requests each level made.
func lockstep(levels []level, st *stream, budget time.Duration) (int, error) {
	deadline := time.Now().Add(budget)
	i := 0
	for ; time.Now().Before(deadline); i++ {
		o := st.ops[i%len(st.ops)]
		for _, l := range levels {
			if err := l.step(i, o, st); err != nil {
				return i, fmt.Errorf("in-process replay, request %d (%s): %w", i, o.kind, err)
			}
		}
	}
	return i, nil
}

// handlerLevel makes the request through dispatch.Server.ServeHTTP.
type handlerLevel struct {
	s  *stack
	c  *client
	tm *timings
}

func newHandlerLevel(w *workload, seed int64, crowd *crowd, dir string, tm *timings) (*handlerLevel, error) {
	s, err := newStack(w, seed, dir, "handler.wal")
	if err != nil {
		return nil, err
	}
	c := &client{w: w, crowd: crowd, d: newHandlerDoer(s.srv), pool: &leasePool{}, recent: &recentRing{}, keyTag: "h-"}
	return &handlerLevel{s: s, c: c, tm: tm}, nil
}

func (h *handlerLevel) step(i int, o op, st *stream) error {
	start := time.Now()
	k, took, ok, _ := h.c.exec(o, st)
	if !ok {
		return fmt.Errorf("handler: %s", h.c.led.firstErr)
	}
	h.tm.add(i, "dispatch.handler_"+k.String(), "wire", start, took)
	if h.tm.span {
		h.tm.m["dispatch.handler"] = append(h.tm.m["dispatch.handler"], took)
	}
	return nil
}

// extras measures what only the handler rung can: allocations per request
// on the workload's own mix, and the idempotency layer.
func (h *handlerLevel) extras(st *stream, from, ops int, budget time.Duration, out map[string]float64) error {
	att0, _ := h.c.led.totals()
	req0, resp0 := h.c.led.reqBytes, h.c.led.respBytes
	m0, b0, p0 := mallocs()
	for i := from; i < from+ops; i++ {
		if err := h.step(i, st.ops[i%len(st.ops)], st); err != nil {
			return err
		}
	}
	m1, b1, p1 := mallocs()
	att1, _ := h.c.led.totals()
	n := float64(att1 - att0)
	out["dispatch.gc_pause_ms_total"] = float64(p1-p0) / 1e6
	out["dispatch.req_bytes"] = float64(h.c.led.reqBytes-req0) / n
	out["dispatch.resp_bytes"] = float64(h.c.led.respBytes-resp0) / n

	// The same requests against a handler that does nothing: what the
	// harness itself allocates per request, to take out of the count.
	nop := newHandlerDoer(nopHandler{})
	hm0, hb0, _ := mallocs()
	for i := from; i < from+ops; i++ {
		o := st.ops[i%len(st.ops)]
		var body []byte
		if o.body >= 0 {
			body = st.bodies[o.body]
		}
		_, _, _, _ = nop.do(http.MethodPost, "/v1/next", body, "k")
	}
	hm1, hb1, _ := mallocs()
	out["dispatch.allocs_per_req"] = (float64(m1-m0) - float64(hm1-hm0)) / n
	out["dispatch.alloc_bytes_per_req"] = (float64(b1-b0) - float64(hb1-hb0)) / n

	// Idempotency: the same submit without a key, with a fresh key, and
	// with a key the server has already answered.
	d := newHandlerDoer(h.s.srv)
	body := h.c.w.newSpecFixed().appendJSON(nil)
	var bare, keyed, replayed []time.Duration
	deadline := time.Now().Add(budget)
	for i := 0; time.Now().Before(deadline); i++ {
		key := "idem-" + strconv.Itoa(i)
		_, _, t0, _ := d.do(http.MethodPost, "/v1/tasks", body, "")
		_, _, t1, _ := d.do(http.MethodPost, "/v1/tasks", body, key)
		status, _, t2, _ := d.do(http.MethodPost, "/v1/tasks", body, key)
		if status != http.StatusCreated || d.rw.h.Get("Idempotent-Replay") != "true" {
			return fmt.Errorf("idempotent replay: status %d, replay header %q", status, d.rw.h.Get("Idempotent-Replay"))
		}
		bare, keyed, replayed = append(bare, t0), append(keyed, t1), append(replayed, t2)
	}
	out["dispatch.idem_overhead_us"] = durQuantile(keyed, 0.5) - durQuantile(bare, 0.5)
	out["dispatch.idem_replay_us"] = durQuantile(replayed, 0.5)
	return nil
}

// coreCtx opens the request root a handler would have opened, so core
// records its child spans as it does in production.
func coreCtx(sys *core.System, route string) (context.Context, trace.Handle) {
	h := sys.Spans().StartTrace(trace.TraceID{}, trace.SpanID{}, route)
	return trace.NewContext(context.Background(), h), h
}

func (c *crowd) answer(w *workload, worker uint16, taskID int64) task.Answer {
	if w.kind == "compare" {
		return task.Answer{Choice: c.vote(worker, taskID)}
	}
	return task.Answer{Words: []int{c.word(worker, taskID)}}
}

// coreRunner replays ops as direct core.System calls.
type coreRunner struct {
	w      *workload
	crowd  *crowd
	sys    *core.System
	j      *journalFile
	tm     *timings
	pool   leasePool
	recent recentRing
	items  int64
}

// exec makes the call op o stands for and returns the op made (with the
// same fallbacks as the wire client), when the call began and how long
// the core call alone took.
func (r *coreRunner) exec(o op, st *stream) (opKind, time.Time, time.Duration, error) {
	k, h, target := o.resolve(r.w, &r.pool, &r.recent)
	sys := r.sys
	ctx, sh := coreCtx(sys, k.String())
	defer sys.Spans().Finish(sh, "")
	var start time.Time
	var took time.Duration
	var err error
	switch k {
	case opSubmit:
		kind, p := specPayload(st.specs[o.body][0])
		t := st.specs[o.body][0]
		start = time.Now()
		_, err = sys.SubmitTaskCtx(ctx, kind, p, t.Redundancy, t.Priority)
		took = time.Since(start)
		r.items++
	case opSubmitBatch:
		specs := submitSpecs(st.specs[o.body])
		start = time.Now()
		outs := sys.SubmitBatchCtx(ctx, specs)
		took = time.Since(start)
		for _, o := range outs {
			if o.Err != nil {
				err = o.Err
			}
		}
		r.items += int64(len(outs))
	case opNext:
		start = time.Now()
		v, lease, e := sys.NextTaskCtx(ctx, workerIDs[o.worker])
		took = time.Since(start)
		if err = e; err == nil {
			r.pool.put(held{worker: o.worker, grants: []grant{{int64(lease), int64(v.ID)}}})
			r.items++
		}
	case opLeaseBatch:
		start = time.Now()
		gs := sys.LeaseBatchCtx(ctx, workerIDs[o.worker], batchItems)
		took = time.Since(start)
		if len(gs) == 0 {
			err = queue.ErrEmpty
			break
		}
		hs := make([]grant, len(gs))
		for i, g := range gs {
			hs[i] = grant{int64(g.Lease), int64(g.Task.ID)}
		}
		r.pool.put(held{worker: o.worker, grants: hs})
		r.items += int64(len(gs))
	case opAnswer:
		g := h.grants[0]
		a := r.crowd.answer(r.w, h.worker, g.task)
		start = time.Now()
		err = sys.SubmitAnswerCtx(ctx, queue.LeaseID(g.lease), a)
		took = time.Since(start)
		if errors.Is(err, task.ErrWrongStatus) { // late answer, as on the wire
			err = nil
		} else if err == nil {
			r.recent.add(g.task)
			r.items++
		}
	case opAnswerBatch:
		items := make([]queue.CompleteItem, len(h.grants))
		for i, g := range h.grants {
			items[i] = queue.CompleteItem{Lease: queue.LeaseID(g.lease), Answer: r.crowd.answer(r.w, h.worker, g.task)}
		}
		start = time.Now()
		outs := sys.AnswerBatchDetailedCtx(ctx, items)
		took = time.Since(start)
		for _, o := range outs {
			if o.Err != nil && !errors.Is(o.Err, task.ErrWrongStatus) {
				err = o.Err
			}
		}
		r.items += int64(len(outs))
	case opGetTask:
		start = time.Now()
		_, err = sys.Task(task.ID(target))
		took = time.Since(start)
	case opPosterior:
		start = time.Now()
		_, err = sys.TaskPosterior(task.ID(target))
		took = time.Since(start)
	case opTrace:
		start = time.Now()
		_ = sys.TaskTrace(task.ID(target))
		took = time.Since(start)
	}
	return k, start, took, err
}

func (r *coreRunner) step(i int, o op, st *stream) error {
	k, start, took, err := r.exec(o, st)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	r.tm.add(i, "core."+k.String(), "dispatch.handler_"+k.String(), start, took)
	return nil
}

func sum(xs []int64) (n int64) {
	for _, x := range xs {
		n += x
	}
	return
}

// newCoreLevel builds the system the core rung calls into, and prices
// its resident set while nothing else is being allocated.
func newCoreLevel(w *workload, seed int64, crowd *crowd, dir string, tm *timings, out map[string]float64) (*coreRunner, error) {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	j, err := newJournalFile(w, dir, "core.wal")
	if err != nil {
		return nil, err
	}
	sys := core.New(coreConfig(j.wal, true))
	if err := preloadSystem(sys, w, seed); err != nil {
		j.close()
		return nil, err
	}
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	out["store.heap_bytes_per_task"] = (float64(ms1.HeapAlloc) - float64(ms0.HeapAlloc)) / float64(w.preload)
	return &coreRunner{w: w, crowd: crowd, sys: sys, j: j, tm: tm}, nil
}

// extras continues the stream on this rung alone to count what the
// lockstep pass cannot attribute (allocations are process-wide), then uses
// the system the rung leaves behind — the workload's resident set and the
// workload's own log — for the parallel and whole-store measurements.
func (r *coreRunner) extras(st *stream, from, ops int, budget time.Duration, clients int, dir string, out map[string]float64) error {
	w, crowd, sys, j := r.w, r.crowd, r.sys, r.j
	ql0, sl0 := sys.ShardLockCounts()
	ev0, by0, sy0 := j.wal.Len(), j.wal.Size(), j.syncs.n.Load()
	items0 := r.items
	m0, _, _ := mallocs()
	for i := from; i < from+ops; i++ {
		if err := r.step(i, st.ops[i%len(st.ops)], st); err != nil {
			return err
		}
	}
	m1, _, _ := mallocs()
	ql1, sl1 := sys.ShardLockCounts()
	ev1, by1, sy1 := j.wal.Len(), j.wal.Size(), j.syncs.n.Load()
	items := float64(r.items - items0)
	out["core.allocs_per_item"] = float64(m1-m0) / items
	out["queue.lock_acq_per_item"] = float64(sum(ql1)-sum(ql0)) / items
	out["store.lock_acq_per_item"] = float64(sum(sl1)-sum(sl0)) / items
	if ev1 > ev0 {
		out["store.wal_bytes_per_event"] = float64(by1-by0) / float64(ev1-ev0)
		out["store.wal_fsyncs_per_event"] = float64(sy1-sy0) / float64(ev1-ev0)
	}

	// The sharding claim: the same submit+lease+answer cycle on one
	// goroutine and on every core, against the same system and journal.
	cycle := func(worker uint16) error { return coreCycle(context.Background(), sys, w, crowd, worker) }
	rate := func(goroutines int, d time.Duration) (float64, float64, error) {
		var wg sync.WaitGroup
		var cycles atomic.Int64
		var firstErr atomic.Value
		e0, s0 := j.wal.Len(), j.syncs.n.Load()
		begin := time.Now()
		deadline := begin.Add(d)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; time.Now().Before(deadline); i++ {
					// Disjoint worker sets per goroutine: two goroutines
					// never ask as the same worker at once.
					if err := cycle(uint16((i*goroutines + g) % numWorkers)); err != nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
					cycles.Add(1)
				}
			}(g)
		}
		wg.Wait()
		if err, _ := firstErr.Load().(error); err != nil {
			return 0, 0, err
		}
		perEvent := 0.0
		if e1 := j.wal.Len(); e1 > e0 {
			perEvent = float64(j.syncs.n.Load()-s0) / float64(e1-e0)
		}
		return float64(cycles.Load()) * 3 / time.Since(begin).Seconds(), perEvent, nil
	}
	one, _, err := rate(1, budget/2)
	if err != nil {
		return fmt.Errorf("core cycle: %w", err)
	}
	many, group, err := rate(clients, budget/2)
	if err != nil {
		return fmt.Errorf("core cycle, %d goroutines: %w", clients, err)
	}
	out["core.parallel_speedup"] = many / one
	out["store.wal_group_fsyncs_per_event"] = group

	// Whole-store costs on the resident set this rung built.
	var sweeps []time.Duration
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		sys.ExpireLeases()
		sweeps = append(sweeps, time.Since(t0))
	}
	out["queue.expire_sweep_ms"] = durQuantile(sweeps, 0.5) / 1000

	var snap bytes.Buffer
	t0 := time.Now()
	if err := sys.Store().Snapshot(&snap); err != nil {
		return err
	}
	out["store.snapshot_s"] = time.Since(t0).Seconds()
	out["store.snapshot_bytes_per_task"] = float64(snap.Len()) / float64(sys.Store().Len())
	t0 = time.Now()
	if err := store.NewSharded(0).Restore(&snap); err != nil {
		return err
	}
	out["store.restore_s"] = time.Since(t0).Seconds()

	// Recovery and follower apply, both over this rung's own log.
	if err := j.wal.Close(); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "core.wal"), os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	t0 = time.Now()
	rs, err := store.RecoverWALObserved(f, store.NewSharded(0), func(store.Event) {})
	if err != nil {
		return err
	}
	out["store.wal_replay_events_per_s"] = float64(rs.Applied) / time.Since(t0).Seconds()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	follower := store.NewSharded(0)
	sc := store.NewRecordScanner(f, 0)
	applied := 0
	t0 = time.Now()
	for sc.Scan() {
		if err := store.ApplyEvent(follower, sc.Event()); err != nil {
			return err
		}
		applied++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	out["repl.apply_us_per_event"] = us(time.Since(t0)) / float64(applied)
	return nil
}

// coreCycle is one task's life through core: submit, lease, answer.
func coreCycle(ctx context.Context, sys *core.System, w *workload, crowd *crowd, worker uint16) error {
	kind, p := specPayload(w.newSpecFixed())
	if _, err := sys.SubmitTaskCtx(ctx, kind, p, w.redundancy, 0); err != nil {
		return err
	}
	v, lease, err := sys.NextTaskCtx(ctx, workerIDs[worker])
	if err != nil {
		return err
	}
	err = sys.SubmitAnswerCtx(ctx, lease, crowd.answer(w, worker, int64(v.ID)))
	if errors.Is(err, task.ErrWrongStatus) { // a late answer, as on the wire
		return nil
	}
	return err
}

// newSpecFixed is a constant task of the workload's kind, for loops whose
// point is the call, not the payload.
func (w *workload) newSpecFixed() taskSpec {
	t := taskSpec{Kind: w.kind, ImageA: 1, Redundancy: w.redundancy}
	if w.kind == "compare" {
		t.ImageB = 2
	}
	return t
}

// leafRung replays the stream as the calls core composes, each made and
// timed on its own: the leaves of the span tree.
type leafRung struct {
	w      *workload
	crowd  *crowd
	st     *store.Store
	q      *queue.Queue
	j      *journalFile
	wal    *store.WAL
	est    *quality.OnlineDawidSkene
	rec    *trace.Recorder
	plane  *trace.SpanPlane
	pool   leasePool
	recent recentRing
	tm     *timings
}

var spanTreeOps = [8]string{"http.decode", "idem.lookup", "core.submit", "queue.lockwait",
	"wal.append", "wal.fsync", "quality.update", "http.encode"}

// spanTree is the span work one request costs: a root, the eight children
// a submit records, and the tail-sampling decision.
func spanTree(p *trace.SpanPlane) {
	h := p.StartTrace(trace.TraceID{}, trace.SpanID{}, "POST /v1/tasks")
	now := time.Now()
	for _, op := range spanTreeOps {
		h.Observe(op, trace.NoSpan, now, time.Microsecond, 0)
	}
	p.Finish(h, "")
}

func (l *leafRung) timed(i int, name, parent string, f func()) {
	t0 := time.Now()
	f()
	l.tm.add(i, name, parent, t0, time.Since(t0))
}

// journal appends to the WAL. The append is timed from outside, so it
// includes encoding the event, which the write duration AppendObserved
// reports leaves out; the fsync wait is the one AppendObserved reports.
func (l *leafRung) journal(i int, parent string, events ...store.Event) error {
	t0 := time.Now()
	var s time.Duration
	var err error
	name := "store.wal_append"
	if len(events) == 1 {
		_, s, err = l.wal.AppendObserved(events[0])
	} else {
		name = "store.wal_batch_append"
		_, s, err = l.wal.AppendBatchObserved(events)
	}
	total := time.Since(t0)
	l.tm.add(i, name, parent, t0, total-s)
	if s > 0 {
		l.tm.add(i, "store.wal_fsync", parent, t0.Add(total-s), s)
	}
	return err
}

// observe folds one recorded answer into the estimator and applies core's
// completion rule, so the queue this rung builds evolves like the real one.
func (l *leafRung) observe(i int, parent string, res queue.CompleteResult, now time.Time) {
	if res.Kind != task.Compare {
		return
	}
	key := strconv.FormatInt(int64(res.TaskID), 10)
	var post []float64
	l.timed(i, "quality.observe", parent, func() {
		post, _, _ = l.est.Observe(key, res.Answer.WorkerID, res.Answer.Choice)
	})
	if res.Status == task.Done {
		l.est.Complete(key)
		return
	}
	conf := 0.0
	for _, p := range post {
		conf = max(conf, p)
	}
	if confidenceTarget > 0 && conf >= confidenceTarget && res.Answers >= qualityMinAnswers {
		if _, ok := l.q.FinishEarly(res.TaskID, now); ok {
			l.est.Complete(key)
		}
	}
}

func (l *leafRung) step(i int, o op, st *stream) error {
	k, h, target := o.resolve(l.w, &l.pool, &l.recent)
	parent := "core." + k.String()
	handler := "dispatch.handler_" + k.String()
	now := time.Now()

	// What dispatch does around core: decode the body, keep a span tree.
	var body []byte
	var into any
	switch k {
	case opSubmit:
		body, into = st.bodies[o.body], new(dispatch.SubmitRequest)
	case opSubmitBatch:
		body, into = st.bodies[o.body], new(dispatch.BatchSubmitRequest)
	case opNext:
		body, into = nextBodies[o.worker], new(dispatch.NextRequest)
	case opLeaseBatch:
		body, into = leaseBatchBodies[o.worker], new(dispatch.BatchNextRequest)
	case opAnswer:
		g := h.grants[0]
		if l.w.kind == "compare" {
			body = choiceBodies[l.crowd.vote(h.worker, g.task)]
		} else {
			body = wordBodies[l.crowd.word(h.worker, g.task)]
		}
		into = new(dispatch.AnswerRequest)
	}
	if into != nil {
		var err error
		l.timed(i, "jsonx.unmarshal_"+k.String(), handler, func() { err = jsonx.UnmarshalStrict(body, into) })
		if err != nil {
			return err
		}
	}
	l.timed(i, "trace.span_tree", handler, func() { spanTree(l.plane) })

	switch k {
	case opSubmit, opSubmitBatch:
		specs := st.specs[o.body]
		ts := make([]*task.Task, len(specs))
		events := make([]store.Event, len(specs))
		for n, sp := range specs {
			kind, p := specPayload(sp)
			t, err := task.New(l.st.NextID(), kind, p, sp.Redundancy, now)
			if err != nil {
				return err
			}
			t.Priority = sp.Priority
			clean := task.Task(t.View())
			ts[n], events[n] = t, store.Event{Kind: store.EventSubmit, At: now, Task: &clean}
		}
		if k == opSubmit {
			l.timed(i, "store.put", parent, func() { l.st.Put(ts[0]) })
			var err error
			l.timed(i, "queue.add", parent, func() { err = l.q.Add(ts[0]) })
			if err != nil {
				return err
			}
		} else {
			l.timed(i, "store.put_batch", parent, func() { l.st.PutBatch(ts) })
			var errs []error
			l.timed(i, "queue.add_batch", parent, func() { errs = l.q.AddBatch(ts) })
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
		}
		return l.journal(i, parent, events...)
	case opNext:
		var v task.View
		var lease queue.LeaseID
		var err error
		l.timed(i, "queue.lease", parent, func() { v, lease, err = l.q.Lease(workerIDs[o.worker], now) })
		if err != nil {
			return err
		}
		l.pool.put(held{worker: o.worker, grants: []grant{{int64(lease), int64(v.ID)}}})
	case opLeaseBatch:
		var gs []queue.LeaseGrant
		l.timed(i, "queue.lease_batch", parent, func() { gs = l.q.LeaseBatch(workerIDs[o.worker], batchItems, now) })
		if len(gs) == 0 {
			return queue.ErrEmpty
		}
		hs := make([]grant, len(gs))
		for n, g := range gs {
			hs[n] = grant{int64(g.Lease), int64(g.Task.ID)}
		}
		l.pool.put(held{worker: o.worker, grants: hs})
	case opAnswer:
		g := h.grants[0]
		var res queue.CompleteResult
		var err error
		a := l.crowd.answer(l.w, h.worker, g.task)
		l.timed(i, "queue.complete", parent, func() { res, err = l.q.Complete(queue.LeaseID(g.lease), a, now) })
		if errors.Is(err, task.ErrWrongStatus) {
			return nil
		}
		if err != nil {
			return err
		}
		rec := res.Answer
		if err := l.journal(i, parent, store.Event{Kind: store.EventAnswer, At: now, TaskID: res.TaskID, Answer: &rec}); err != nil {
			return err
		}
		l.observe(i, parent, res, now)
		l.recent.add(g.task)
	case opAnswerBatch:
		items := make([]queue.CompleteItem, len(h.grants))
		for n, g := range h.grants {
			items[n] = queue.CompleteItem{Lease: queue.LeaseID(g.lease), Answer: l.crowd.answer(l.w, h.worker, g.task)}
		}
		var outs []queue.CompleteOutcome
		l.timed(i, "queue.complete_batch", parent, func() { outs = l.q.CompleteBatch(items, now) })
		var events []store.Event
		for n := range outs {
			if errors.Is(outs[n].Err, task.ErrWrongStatus) {
				continue
			}
			if outs[n].Err != nil {
				return outs[n].Err
			}
			rec := outs[n].Result.Answer
			events = append(events, store.Event{Kind: store.EventAnswer, At: now, TaskID: outs[n].Result.TaskID, Answer: &rec})
		}
		if len(events) > 0 {
			if err := l.journal(i, parent, events...); err != nil {
				return err
			}
		}
		for n := range outs {
			if outs[n].Err == nil {
				l.observe(i, parent, outs[n].Result, now)
			}
		}
	case opGetTask:
		var err error
		l.timed(i, "store.view", parent, func() { _, err = l.st.View(task.ID(target)) })
		return err
	case opPosterior:
		l.timed(i, "quality.posterior", parent, func() { l.est.Posterior(strconv.FormatInt(target, 10)) })
	case opTrace:
		l.timed(i, "trace.task_events", parent, func() { l.rec.TaskEvents(task.ID(target)) })
	}
	return nil
}

func newLeafLevel(w *workload, seed int64, crowd *crowd, dir string, tm *timings) (*leafRung, error) {
	j, err := newJournalFile(w, dir, "leaf.wal")
	if err != nil {
		return nil, err
	}
	st := store.NewSharded(0)
	l := &leafRung{
		w: w, crowd: crowd, st: st, q: queue.NewSharded(leaseTTL, st.Shards(), st), j: j, wal: j.wal,
		est:   quality.NewOnlineDawidSkene(quality.OnlineDSConfig{Classes: 2}),
		rec:   trace.NewRecorder(0),
		plane: trace.NewSpanPlane(trace.SpanConfig{Enabled: true}),
		tm:    tm,
	}
	st.SetRecorder(l.rec)
	l.q.SetRecorder(l.rec)
	now := time.Now()
	for src := newPreloadSpecs(w, seed); len(src) > 0; {
		n := min(preloadBatch, len(src))
		ts := make([]*task.Task, n)
		events := make([]store.Event, n)
		for i, sp := range src[:n] {
			kind, p := specPayload(sp)
			t, err := task.New(st.NextID(), kind, p, sp.Redundancy, now)
			if err != nil {
				j.close()
				return nil, err
			}
			t.Priority = sp.Priority
			clean := task.Task(t.View())
			ts[i], events[i] = t, store.Event{Kind: store.EventSubmit, At: now, Task: &clean}
		}
		st.PutBatch(ts)
		for _, err := range l.q.AddBatch(ts) {
			if err != nil {
				j.close()
				return nil, err
			}
		}
		// Through the log, as core's preload goes: the log's length is
		// part of the state an append meets.
		if err := j.wal.AppendBatch(events); err != nil {
			j.close()
			return nil, err
		}
		src = src[n:]
	}
	return l, nil
}

// block times n calls of f together; for calls too short to time singly.
func block(n int, f func()) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return time.Since(t0) / time.Duration(n)
}

// cannedTransport answers every request with one fixed reply, so
// dispatch.Client is measured with nothing behind it.
type cannedTransport struct{}

func (cannedTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusCreated,
		Header:     http.Header{"Content-Type": jsonType},
		Body:       io.NopCloser(bytes.NewReader([]byte(`{"id":1}`))),
	}, nil
}

// microRung measures the calls that are not on a request's path in
// isolation, or that are too short to time one at a time.
func microRung(w *workload, seed int64, budget time.Duration, out map[string]float64) error {
	slice := budget / 8
	until := func() func() bool {
		deadline := time.Now().Add(slice)
		return func() bool { return time.Now().Before(deadline) }
	}

	// jsonx on the bodies this workload's clients send.
	st := newStream(coverage(w), seed, 0)
	var single, batch []byte
	for i, b := range st.bodies {
		if len(st.specs[i]) == 1 && single == nil {
			single = b
		}
		if len(st.specs[i]) > 1 && batch == nil {
			batch = b
		}
	}
	var ds, db []time.Duration
	var req dispatch.SubmitRequest
	var breq dispatch.BatchSubmitRequest
	m0, _, _ := mallocs()
	calls := 0
	for more := until(); more(); calls++ {
		t0 := time.Now()
		if err := jsonx.UnmarshalStrict(single, &req); err != nil {
			return err
		}
		ds = append(ds, time.Since(t0))
	}
	m1, _, _ := mallocs()
	for more := until(); more(); {
		t0 := time.Now()
		if err := jsonx.UnmarshalStrict(batch, &breq); err != nil {
			return err
		}
		db = append(db, time.Since(t0))
	}
	out["jsonx.unmarshal_submit_us"] = durQuantile(ds, 0.5)
	out["jsonx.unmarshal_batch_us"] = durQuantile(db, 0.5)
	out["jsonx.ns_per_byte"] = durQuantile(db, 0.5) * 1000 / float64(len(batch))
	out["jsonx.allocs_per_call"] = float64(m1-m0) / float64(calls)

	// trace: the recorder append and the span tree.
	rec := trace.NewRecorder(0)
	var da []time.Duration
	id := task.ID(0)
	for more := until(); more(); {
		da = append(da, block(256, func() {
			id++
			rec.Append(trace.Event{TaskID: id, Stage: trace.StageSubmit})
		}))
	}
	out["trace.recorder_append_ns"] = durQuantile(da, 0.5) * 1000

	// trace.core_overhead_ratio: the same cycle on two small systems that
	// differ only in whether spans and the lifecycle ring are on.
	cycleTime := func(tracing bool) (float64, error) {
		sys := core.New(coreConfig(store.NewWAL(io.Discard), tracing))
		small := *w
		small.preload = 1000
		if err := preloadSystem(sys, &small, seed); err != nil {
			return 0, err
		}
		crowd := newCrowd(seed)
		var dc []time.Duration
		for i, more := 0, until(); more(); i++ {
			ctx := context.Background()
			var sh trace.Handle
			if tracing {
				ctx, sh = coreCtx(sys, "cycle")
			}
			t0 := time.Now()
			if err := coreCycle(ctx, sys, w, crowd, uint16(i%numWorkers)); err != nil {
				return 0, err
			}
			dc = append(dc, time.Since(t0))
			sys.Spans().Finish(sh, "")
		}
		return durQuantile(dc, 0.5), nil
	}
	on, err := cycleTime(true)
	if err != nil {
		return err
	}
	off, err := cycleTime(false)
	if err != nil {
		return err
	}
	out["trace.core_overhead_ratio"] = on / off

	// metrics: one histogram observation.
	var hist metrics.LatencyHist
	var dh []time.Duration
	v := time.Duration(0)
	for more := until(); more(); {
		dh = append(dh, block(256, func() {
			v += 977 * time.Nanosecond
			hist.Observe(v % (50 * time.Millisecond))
		}))
	}
	out["metrics.hist_observe_ns"] = durQuantile(dh, 0.5) * 1000

	// quality: allocations of one observation (its time is a leaf span).
	est := quality.NewOnlineDawidSkene(quality.OnlineDSConfig{Classes: 2})
	const observes = 20000
	m0, _, _ = mallocs()
	for i := 0; i < observes; i++ {
		est.Observe(strconv.Itoa(i/3), workerIDs[i%numWorkers], i&1)
	}
	m1, _, _ = mallocs()
	out["quality.allocs_per_observe"] = float64(m1-m0) / observes

	// repl: the tap that runs under the WAL append lock.
	src := repl.NewSource(repl.SourceOptions{})
	defer src.Close()
	frame := make([]byte, 256)
	var seq int64
	var dr []time.Duration
	for more := until(); more(); {
		dr = append(dr, block(256, func() {
			seq++
			src.OnRecord(seq, frame)
		}))
	}
	out["repl.on_record_ns"] = durQuantile(dr, 0.5) * 1000

	// dispatch.Client with nothing behind it.
	cl := dispatch.NewClient("http://bench.invalid", &http.Client{Transport: cannedTransport{}})
	kind, p := specPayload(w.newSpecFixed())
	var dcl []time.Duration
	for more := until(); more(); {
		t0 := time.Now()
		if _, err := cl.Submit(kind, p, w.redundancy, 0); err != nil {
			return err
		}
		dcl = append(dcl, time.Since(t0))
	}
	out["dispatch.client_call_us"] = durQuantile(dcl, 0.5)
	return nil
}

// allocPassOps is how many requests the single-rung passes that count
// allocations replay.
const allocPassOps = 1000

// runLayers runs every in-process rung for one workload and returns the
// per-layer metrics they yield. Spans go to log.
func runLayers(w *workload, seed int64, dir string, budget time.Duration, clients int, log *spanLog) (map[string]float64, *timings, error) {
	out := make(map[string]float64)
	tm := &timings{m: make(map[string][]time.Duration), log: log}
	crowd := newCrowd(seed)
	hl, err := newHandlerLevel(w, seed, crowd, dir, tm)
	if err != nil {
		return nil, nil, err
	}
	defer hl.s.j.close()
	cl, err := newCoreLevel(w, seed, crowd, dir, tm, out)
	if err != nil {
		return nil, nil, err
	}
	defer cl.j.close()
	ll, err := newLeafLevel(w, seed, crowd, dir, tm)
	if err != nil {
		return nil, nil, err
	}
	defer ll.j.close()

	// The workload's own stream, every rung in turn: the span trees.
	st := newStream(w, seed, 0)
	tm.span = true
	log.rung()
	// Innermost rung first. The batch routes leave megabytes of garbage per
	// call, and a rung that runs straight after a bigger one pays for part
	// of its collection; leaves-first keeps child ≤ parent where the other
	// order had the WAL append reading twice its own caller.
	rungs := []level{ll, cl, hl}
	ops, err := lockstep(rungs, st, budget*4/10)
	tm.span = false
	if err != nil {
		return nil, nil, err
	}
	// Every route the table names, for those the workload's mix lacks.
	cov := coverage(w)
	hl.c.w, cl.w, ll.w = cov, cov, cov
	if _, err := lockstep(rungs, newStream(cov, seed, 0), budget*15/100); err != nil {
		return nil, nil, err
	}
	hl.c.w, cl.w, ll.w = w, w, w
	if err := hl.extras(st, ops, allocPassOps, budget*5/100, out); err != nil {
		return nil, nil, err
	}
	if err := cl.extras(st, ops, allocPassOps, budget*10/100, clients, dir, out); err != nil {
		return nil, nil, err
	}
	if err := microRung(w, seed, budget*2/10, out); err != nil {
		return nil, nil, err
	}

	for _, k := range []opKind{opSubmit, opNext, opAnswer, opSubmitBatch, opLeaseBatch, opAnswerBatch, opGetTask} {
		out["dispatch.handler_"+k.String()+"_us"] = tm.p50("dispatch.handler_" + k.String())
		out["dispatch.handler_"+k.String()+"_p99_us"] = tm.p99("dispatch.handler_" + k.String())
	}
	out["core.submit_us"] = tm.p50("core.submit")
	out["core.next_us"] = tm.p50("core.next")
	out["core.answer_us"] = tm.p50("core.answer")
	out["core.submit_batch_us_per_item"] = tm.perItem("core.submit_batch")
	out["core.lease_batch_us_per_item"] = tm.perItem("core.lease_batch")
	out["core.answer_batch_us_per_item"] = tm.perItem("core.answer_batch")
	out["queue.add_us"] = tm.p50("queue.add")
	out["queue.lease_us"] = tm.p50("queue.lease")
	out["queue.complete_us"] = tm.p50("queue.complete")
	out["queue.lease_batch_us_per_item"] = tm.perItem("queue.lease_batch")
	out["store.put_us"] = tm.p50("store.put")
	out["store.view_us"] = tm.p50("store.view")
	out["store.wal_append_us"] = tm.p50("store.wal_append")
	out["store.wal_fsync_us"] = tm.p50("store.wal_fsync")
	out["store.wal_batch_append_us_per_event"] = tm.perItem("store.wal_batch_append")
	out["quality.observe_us"] = tm.p50("quality.observe")
	out["trace.span_tree_us"] = tm.p50("trace.span_tree")
	return out, tm, nil
}
