package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// doer sends one request and returns the status, the reply body and how
// long the exchange took. The wire doer crosses a socket; the handler rung
// supplies one that calls ServeHTTP. The body is only valid until the
// next call.
type doer interface {
	do(method, path string, body []byte, idemKey string) (status int, reply []byte, took time.Duration, err error)
}

// wireDoer is plain net/http over one shared keep-alive transport; each
// load goroutine owns one, so the buffers need no lock.
type wireDoer struct {
	base   string
	client *http.Client
	auth   []string
	buf    bytes.Buffer
}

var jsonType = []string{"application/json"}

func newTransport(conns int) *http.Transport {
	return &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
	}
}

func newWireDoer(base string, tr *http.Transport) *wireDoer {
	return &wireDoer{
		base:   base,
		client: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		auth:   []string{"Bearer " + apiKey},
	}
}

func (d *wireDoer) do(method, path string, body []byte, idemKey string) (int, []byte, time.Duration, error) {
	start := time.Now()
	var req *http.Request
	var err error
	if body != nil {
		req, err = http.NewRequest(method, d.base+path, bytes.NewReader(body))
	} else {
		req, err = http.NewRequest(method, d.base+path, nil)
	}
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header["Authorization"] = d.auth
	if body != nil {
		req.Header["Content-Type"] = jsonType
	}
	if idemKey != "" {
		req.Header["Idempotency-Key"] = []string{idemKey}
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	d.buf.Reset()
	_, err = d.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, d.buf.Bytes(), time.Since(start), err
}

// grant is one lease the generator holds.
type grant struct {
	lease, task int64
}

// held is the leases one next or lease_batch reply granted to a worker.
type held struct {
	worker uint16
	grants []grant
}

// leasePool is the leases granted and not yet answered, oldest first: a
// worker who took a task earlier answers earlier.
type leasePool struct {
	mu sync.Mutex
	q  []held
}

func (p *leasePool) put(h held) {
	p.mu.Lock()
	p.q = append(p.q, h)
	p.mu.Unlock()
}

func (p *leasePool) take() (held, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.q) == 0 {
		return held{}, false
	}
	h := p.q[0]
	p.q = p.q[1:]
	return h, true
}

// answerRec is one answer the server acknowledged.
type answerRec struct {
	task   int64
	worker uint16
}

// ledger is what one load goroutine knows the server acknowledged, kept
// to check the server's state against afterwards.
type ledger struct {
	attempted [numOps]int64
	failed    [numOps]int64
	empty     [numOps]int64
	shed      int64 // 429 replies
	reqBytes  int64
	respBytes int64

	submitted []int64     // task IDs of acked submits
	answers   []answerRec // acked answers
	late      []int64     // tasks whose answer arrived after the quality plane finished them
	firstErr  string
}

func (l *ledger) merge(o *ledger) {
	for k := range l.attempted {
		l.attempted[k] += o.attempted[k]
		l.failed[k] += o.failed[k]
		l.empty[k] += o.empty[k]
	}
	l.shed += o.shed
	l.reqBytes += o.reqBytes
	l.respBytes += o.respBytes
	l.submitted = append(l.submitted, o.submitted...)
	l.answers = append(l.answers, o.answers...)
	l.late = append(l.late, o.late...)
	if l.firstErr == "" {
		l.firstErr = o.firstErr
	}
}

func (l *ledger) totals() (attempted, failed int64) {
	for k := range l.attempted {
		attempted += l.attempted[k]
		failed += l.failed[k]
	}
	return
}

// recentRing is the tasks most recently answered; only those are sure to
// have a posterior the server still holds.
type recentRing struct {
	mu  sync.Mutex
	ids [256]int64
	n   int
}

func (r *recentRing) add(id int64) {
	r.mu.Lock()
	r.ids[r.n%len(r.ids)] = id
	r.n++
	r.mu.Unlock()
}

func (r *recentRing) pick(i uint32) (int64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.n
	if n > len(r.ids) {
		n = len(r.ids)
	}
	if n == 0 {
		return 0, false
	}
	return r.ids[int(i)%n], true
}

// client executes ops against a doer. Closed-loop clients each own their
// stream, pool and ring; open-loop senders share them.
type client struct {
	w       *workload
	crowd   *crowd
	d       doer
	pool    *leasePool
	recent  *recentRing
	led     ledger
	keyTag  string // makes this client's idempotency keys unique in the run
	keySeq  int
	scratch []byte
}

// Reply shapes, reduced to what the generator checks or needs.
type (
	idReply struct {
		ID int64 `json:"id"`
	}
	nextReply struct {
		Task  idReply `json:"task"`
		Lease int64   `json:"lease"`
	}
	batchSubmitReply struct {
		Results []struct {
			Status int   `json:"status"`
			ID     int64 `json:"id"`
		} `json:"results"`
	}
	batchNextReply struct {
		Leases []nextReply `json:"leases"`
	}
	batchAnswerReply struct {
		Results []struct {
			Status int    `json:"status"`
			Error  string `json:"error"`
		} `json:"results"`
	}
	taskIDReply struct {
		TaskID int64 `json:"task_id"`
	}
)

var (
	workerIDs        [numWorkers]string
	nextBodies       [numWorkers][]byte
	leaseBatchBodies [numWorkers][]byte
	choiceBodies     = [2][]byte{[]byte(`{"answer":{"choice":0}}`), []byte(`{"answer":{"choice":1}}`)}
	wordBodies       [numLabelWords + 1][]byte
)

func init() {
	for i := range workerIDs {
		workerIDs[i] = fmt.Sprintf("w%03d", i)
		nextBodies[i] = []byte(`{"worker_id":"` + workerIDs[i] + `"}`)
		leaseBatchBodies[i] = []byte(`{"worker_id":"` + workerIDs[i] + `","max":` + strconv.Itoa(batchItems) + `}`)
	}
	for i := range wordBodies {
		wordBodies[i] = []byte(`{"answer":{"words":[` + strconv.Itoa(i) + `]}}`)
	}
}

func (c *client) nextKey() string {
	c.keySeq++
	return c.keyTag + strconv.Itoa(c.keySeq)
}

// fail records a failed request: a transport error, a refusal, a wrong
// status or a wrong body. It returns false, exec's verdict on the request.
func (c *client) fail(k opKind, format string, args ...any) bool {
	c.led.failed[k]++
	if c.led.firstErr == "" {
		c.led.firstErr = k.String() + ": " + fmt.Sprintf(format, args...)
	}
	return false
}

// answerBody is what the held worker says about a task.
func (c *client) answerBody(worker uint16, task int64) []byte {
	if c.w.kind == "compare" {
		return choiceBodies[c.crowd.vote(worker, task)]
	}
	return wordBodies[c.crowd.word(worker, task)]
}

// lateAnswer recognises the reply to an answer whose task the quality
// plane finished on confidence while the lease was out: 409 "task: not
// open" when the finished task is still in the queue's table, 404 "queue:
// unknown task" once it has been dropped from it. The work was wasted,
// but the server did what it documents (queue.FinishEarly), so the
// request is late, not failed; verify checks the task really is done.
func lateAnswer(status int, reply []byte) bool {
	switch status {
	case http.StatusConflict:
		return bytes.Contains(reply, []byte("task: not open"))
	case http.StatusNotFound:
		return bytes.Contains(reply, []byte("queue: unknown task"))
	}
	return false
}

// resolve turns a stream op into the request to make now. An answer spends
// the oldest lease in the pool; with none to spend it becomes the lease
// route, so the pool refills instead of the op failing. A posterior is
// asked of a recently answered task, the only ones sure to have one, and
// becomes a task read before any answer has landed. Reads get their target.
func (o op) resolve(w *workload, pool *leasePool, recent *recentRing) (k opKind, h held, target int64) {
	k = o.kind
	if k == opAnswer || k == opAnswerBatch {
		var ok bool
		if h, ok = pool.take(); !ok {
			k -= opAnswer - opNext // answer → next, answer_batch → lease_batch
		}
	}
	if k == opPosterior {
		var ok bool
		if target, ok = recent.pick(o.pick); !ok {
			k = opGetTask
		}
	}
	if k == opGetTask || k == opTrace {
		target = w.residentID(o.pick)
	}
	return k, h, target
}

// exec sends one op and checks the reply. It returns the op actually sent
// (see resolve), the time the exchange took, whether the reply was the
// right one, and the successful items it carried. A lease route with
// nothing to hand out is a right reply with no items.
func (c *client) exec(o op, st *stream) (opKind, time.Duration, bool, int) {
	k, h, target := o.resolve(c.w, c.pool, c.recent)

	method, path, idem := http.MethodPost, "", ""
	var body []byte
	switch k {
	case opSubmit:
		path, body = "/v1/tasks", st.bodies[o.body]
	case opSubmitBatch:
		path, body = "/v1/tasks:batch", st.bodies[o.body]
	case opNext:
		path, body = "/v1/next", nextBodies[o.worker]
	case opLeaseBatch:
		path, body = "/v1/leases:batch", leaseBatchBodies[o.worker]
	case opAnswer:
		g := h.grants[0]
		path = "/v1/leases/" + strconv.FormatInt(g.lease, 10)
		body = c.answerBody(h.worker, g.task)
	case opAnswerBatch:
		path = "/v1/leases:answers"
		b := append(c.scratch[:0], `{"answers":[`...)
		for i, g := range h.grants {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"lease":`...)
			b = strconv.AppendInt(b, g.lease, 10)
			b = append(b, ',')
			ab := c.answerBody(h.worker, g.task)
			b = append(b, ab[1:len(ab)-1]...) // "answer":{...}
			b = append(b, '}')
		}
		b = append(b, `]}`...)
		c.scratch, body = b, b
	case opGetTask:
		method, path = http.MethodGet, "/v1/tasks/"+strconv.FormatInt(target, 10)
	case opPosterior:
		method, path = http.MethodGet, "/v1/tasks/"+strconv.FormatInt(target, 10)+"/posterior"
	case opTrace:
		method, path = http.MethodGet, "/v1/tasks/"+strconv.FormatInt(target, 10)+"/trace"
	}
	if k.mutating() {
		idem = c.nextKey()
	}

	c.led.attempted[k]++
	c.led.reqBytes += int64(len(body))
	status, reply, took, err := c.d.do(method, path, body, idem)
	c.led.respBytes += int64(len(reply))
	if err != nil {
		return k, took, c.fail(k, "%v", err), 0
	}
	if status == http.StatusTooManyRequests {
		c.led.shed++
	}

	items := 0
	switch k {
	case opSubmit:
		var r idReply
		if status != http.StatusCreated || json.Unmarshal(reply, &r) != nil || r.ID <= 0 {
			return k, took, c.fail(k, "status %d body %.80q", status, reply), 0
		}
		c.led.submitted = append(c.led.submitted, r.ID)
		items = 1
	case opSubmitBatch:
		var r batchSubmitReply
		if status != http.StatusOK || json.Unmarshal(reply, &r) != nil || len(r.Results) != len(st.specs[o.body]) {
			return k, took, c.fail(k, "status %d body %.80q", status, reply), 0
		}
		for _, it := range r.Results {
			if it.Status != http.StatusCreated || it.ID <= 0 {
				return k, took, c.fail(k, "item status %d", it.Status), 0
			}
			c.led.submitted = append(c.led.submitted, it.ID)
		}
		items = len(r.Results)
	case opNext:
		if status == http.StatusNoContent {
			c.led.empty[k]++
			return k, took, true, 0
		}
		var r nextReply
		if status != http.StatusOK || json.Unmarshal(reply, &r) != nil || r.Lease <= 0 || r.Task.ID <= 0 {
			return k, took, c.fail(k, "status %d body %.80q", status, reply), 0
		}
		c.pool.put(held{worker: o.worker, grants: []grant{{lease: r.Lease, task: r.Task.ID}}})
		items = 1
	case opLeaseBatch:
		var r batchNextReply
		if status != http.StatusOK || json.Unmarshal(reply, &r) != nil {
			return k, took, c.fail(k, "status %d body %.80q", status, reply), 0
		}
		if len(r.Leases) == 0 {
			c.led.empty[k]++
			return k, took, true, 0
		}
		gs := make([]grant, len(r.Leases))
		for i, l := range r.Leases {
			if l.Lease <= 0 || l.Task.ID <= 0 {
				return k, took, c.fail(k, "lease %d task %d", l.Lease, l.Task.ID), 0
			}
			gs[i] = grant{lease: l.Lease, task: l.Task.ID}
		}
		c.pool.put(held{worker: o.worker, grants: gs})
		items = len(gs)
	case opAnswer:
		g := h.grants[0]
		switch {
		case status == http.StatusNoContent:
			c.led.answers = append(c.led.answers, answerRec{g.task, h.worker})
			c.recent.add(g.task)
			items = 1
		case lateAnswer(status, reply):
			c.led.late = append(c.led.late, g.task)
		default:
			return k, took, c.fail(k, "status %d body %.80q", status, reply), 0
		}
	case opAnswerBatch:
		var r batchAnswerReply
		if status != http.StatusOK || json.Unmarshal(reply, &r) != nil || len(r.Results) != len(h.grants) {
			return k, took, c.fail(k, "status %d body %.80q", status, reply), 0
		}
		for i, it := range r.Results {
			g := h.grants[i]
			switch it.Status {
			case http.StatusNoContent:
				c.led.answers = append(c.led.answers, answerRec{g.task, h.worker})
				items++
			default:
				if !lateAnswer(it.Status, []byte(it.Error)) {
					return k, took, c.fail(k, "item status %d: %s", it.Status, it.Error), 0
				}
				c.led.late = append(c.led.late, g.task)
			}
		}
	case opGetTask:
		var r idReply
		if status != http.StatusOK || json.Unmarshal(reply, &r) != nil || r.ID != target {
			return k, took, c.fail(k, "status %d body %.80q", status, reply), 0
		}
		items = 1
	case opPosterior, opTrace:
		var r taskIDReply
		if status != http.StatusOK || json.Unmarshal(reply, &r) != nil || r.TaskID != target {
			return k, took, c.fail(k, "status %d body %.80q", status, reply), 0
		}
		items = 1
	}
	return k, took, true, items
}

// loadSpec is what a load phase needs to know about the run it is in.
type loadSpec struct {
	w       *workload
	seed    int64
	crowd   *crowd
	base    string
	clients int
	runTag  string // unique per harness process, so idempotency keys never repeat across phases
	phase   int
}

func (ls *loadSpec) newClient(d doer, idx int, pool *leasePool, recent *recentRing) *client {
	return &client{
		w: ls.w, crowd: ls.crowd, d: d, pool: pool, recent: recent,
		keyTag: fmt.Sprintf("%s-%d-%d-", ls.runTag, ls.phase, idx),
	}
}

// closedLoop runs ls.clients clients for d, each sending its next request
// when the previous reply arrives, and returns their samples and merged
// ledger. record, when set, sees every request with its stream index.
func closedLoop(ls *loadSpec, d time.Duration, record func(cl, i int, k opKind, start time.Time, took time.Duration)) ([]sample, *ledger) {
	ls.phase++
	tr := newTransport(ls.clients)
	defer tr.CloseIdleConnections()
	clients := make([]*client, ls.clients)
	samples := make([][]sample, ls.clients)
	var wg sync.WaitGroup
	begin := time.Now()
	deadline := begin.Add(d)
	for ci := range clients {
		c := ls.newClient(newWireDoer(ls.base, tr), ci, &leasePool{}, &recentRing{})
		clients[ci] = c
		st := newStream(ls.w, ls.seed, ci)
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			out := make([]sample, 0, 1<<16)
			for i := 0; ; i++ {
				start := time.Now()
				if !start.Before(deadline) {
					break
				}
				k, took, ok, items := c.exec(st.ops[i%len(st.ops)], st)
				out = append(out, sample{
					at: start.Add(took).Sub(begin), lat: took, kind: k, items: int32(items), ok: ok,
				})
				if record != nil {
					record(ci, i, k, start, took)
				}
			}
			samples[ci] = out
		}(ci)
	}
	wg.Wait()
	return collect(clients, samples)
}

// collect pools the samples and ledgers of a phase's load goroutines.
func collect(clients []*client, samples [][]sample) ([]sample, *ledger) {
	led := &ledger{}
	var all []sample
	for ci, c := range clients {
		led.merge(&c.led)
		all = append(all, samples[ci]...)
	}
	return all, led
}

// rung is the result of one open-loop rate.
type rung struct {
	RateReqPerS float64 `json:"rate_req_per_s"`
	Seconds     float64 `json:"seconds"`
	Sent        int     `json:"sent"`
	Failed      int64   `json:"failed"`
	LatP50Ms    float64 `json:"lat_p50_ms"`
	LatP99Ms    float64 `json:"lat_p99_ms"`
	GenLagP50Us float64 `json:"gen_lag_p50_us"`
	GenLagP99Us float64 `json:"gen_lag_p99_us"`
	BacklogEnd  int     `json:"backlog_end"` // arrivals due and not yet picked up when the rung ended
	Valid       bool    `json:"valid"`       // generator kept its schedule
	MetLimit    bool    `json:"met_limit"`
}

// maxGenLagP50 is how late the generator may run at the median before the
// rung says more about the generator than about the server. (The tail of
// its lateness is the host's scheduling jitter, which the server suffers
// too; README.md, "Open-loop scheduler".)
const maxGenLagP50 = 200 * time.Microsecond

type arrival struct {
	i   int
	due time.Time
}

// sleepUntil sleeps on the calling (locked) OS thread. time.Sleep goes
// through the netpoller, which rounds sub-millisecond sleeps up to a
// millisecond; nanosleep wakes within ~0.1 ms.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}

// schedule emits Poisson arrivals at rate for d on its own OS thread and
// returns how late each left.
func schedule(r *rand.Rand, rate float64, d time.Duration, out chan<- arrival) []time.Duration {
	runtime.LockOSThread()
	// Unlocked on return: a goroutine that exits locked takes its thread
	// with it, and a child started from that thread dies by Pdeathsig.
	defer runtime.UnlockOSThread()
	defer close(out)
	lag := make([]time.Duration, 0, int(rate*d.Seconds()*1.2)+16)
	begin := time.Now()
	due := begin
	for i := 0; ; i++ {
		due = due.Add(time.Duration(r.ExpFloat64() / rate * float64(time.Second)))
		if due.Sub(begin) >= d {
			return lag
		}
		sleepUntil(due)
		lag = append(lag, time.Since(due))
		out <- arrival{i: i, due: due}
	}
}

// openLoop offers Poisson arrivals at rate for d. At most ls.clients
// requests are in flight; an arrival that finds every sender busy waits,
// and the wait counts, because latency runs from the instant it was due.
func openLoop(ls *loadSpec, rate float64, d time.Duration, pool *leasePool, recent *recentRing) (rung, *ledger) {
	ls.phase++
	tr := newTransport(ls.clients)
	defer tr.CloseIdleConnections()
	st := newStream(ls.w, ls.seed, ls.clients)
	// Sized for every arrival of the rung, so the scheduler never blocks
	// on a slow server and its lateness stays its own.
	queue := make(chan arrival, int(rate*d.Seconds()*1.5)+1024)
	r := rand.New(rand.NewSource(ls.seed*31 + int64(ls.phase)))

	clients := make([]*client, ls.clients)
	samples := make([][]sample, ls.clients)
	var wg sync.WaitGroup
	begin := time.Now()
	end := begin.Add(d)
	backlog := 0
	var backlogOnce sync.Once
	for ci := range clients {
		c := ls.newClient(newWireDoer(ls.base, tr), ci, pool, recent)
		clients[ci] = c
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			var out []sample
			for a := range queue {
				if time.Now().After(end) {
					backlogOnce.Do(func() { backlog = len(queue) + 1 })
				}
				k, _, ok, items := c.exec(st.ops[a.i%len(st.ops)], st)
				done := time.Now()
				out = append(out, sample{
					at: done.Sub(begin), lat: done.Sub(a.due), kind: k, items: int32(items), ok: ok,
				})
			}
			samples[ci] = out
		}(ci)
	}
	lag := schedule(r, rate, d, queue)
	wg.Wait()
	all, led := collect(clients, samples)
	_, failed := led.totals()
	out := rung{
		RateReqPerS: rate, Seconds: d.Seconds(), Sent: len(all), Failed: failed,
		LatP50Ms:    finite(median(latencyMs(all))),
		LatP99Ms:    finite(windowedP99(all, d)),
		GenLagP50Us: durQuantile(lag, 0.5),
		GenLagP99Us: durQuantile(lag, 0.99),
		BacklogEnd:  backlog,
	}
	out.Valid = out.GenLagP50Us <= us(maxGenLagP50)
	// A backlog worth more than the latency limit of arrivals means the
	// queue was still growing when the rung ended.
	growing := float64(backlog) > rate*ls.w.limitMs/1000
	out.MetLimit = out.Valid && failed == 0 && !growing && out.LatP99Ms <= ls.w.limitMs
	return out, led
}
