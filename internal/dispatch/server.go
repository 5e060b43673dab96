// Package dispatch serves a core.System over HTTP: the task dispatch
// service of the repro hint. The API is a small JSON REST surface —
// submit tasks, lease the next task for a worker, submit or release
// answers, read results and aggregates — with no game logic of its own;
// every handler is a thin translation onto core.
//
//	POST   /v1/tasks            submit a task (optionally gold)
//	POST   /v1/tasks:batch      submit up to 256 tasks in one request
//	GET    /v1/tasks            list tasks (status filter, pagination)
//	GET    /v1/tasks/{id}       fetch a task with its answers
//	DELETE /v1/tasks/{id}       cancel an open task
//	GET    /v1/tasks/{id}/words aggregated word votes (label/describe)
//	GET    /v1/tasks/{id}/choice aggregated choice (compare/judge)
//	GET    /v1/tasks/{id}/posterior online class posterior (choice tasks)
//	GET    /v1/tasks/{id}/trace ordered lifecycle trace events
//	POST   /v1/next             lease the next task for a worker
//	POST   /v1/leases:batch     lease up to N tasks for one worker
//	POST   /v1/leases/{id}      submit the answer for a lease
//	POST   /v1/leases:answers   answer up to 256 leases in one request
//	DELETE /v1/leases/{id}      release a lease unanswered
//	GET    /v1/stats            system counters
//	GET    /healthz             liveness
//
// Read-path contract: handlers never serialize live *task.Task pointers.
// Every task that crosses the wire is a task.View snapshot copied under
// the owning lock, so reads can never race with the queue recording
// answers. All /v1 routes sit behind the auth/rate-limit middleware when
// one is configured.
//
// Every request carries an ID: the server adopts a well-formed
// X-Request-Id from the client or generates one, echoes it on the
// response, carries it on the request's exchange (which is the request
// context) into the structured log line, and includes it in JSON error
// envelopes, so a failing call can be matched to its server-side log
// entry from either end.
package dispatch

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"humancomp/internal/core"
	"humancomp/internal/jsonx"
	"humancomp/internal/match"
	"humancomp/internal/queue"
	"humancomp/internal/session"
	"humancomp/internal/store"
	"humancomp/internal/task"
	"humancomp/internal/trace"
)

// SubmitRequest is the body of POST /v1/tasks.
type SubmitRequest struct {
	Kind       string       `json:"kind"`
	Payload    task.Payload `json:"payload"`
	Redundancy int          `json:"redundancy"`
	Priority   int          `json:"priority"`
	// Gold marks the task as a reputation probe with the given expected
	// answer.
	Gold     bool         `json:"gold,omitempty"`
	Expected *task.Answer `json:"expected,omitempty"`
}

// SubmitResponse is the body returned by POST /v1/tasks.
type SubmitResponse struct {
	ID task.ID `json:"id"`
}

// NextRequest is the body of POST /v1/next.
type NextRequest struct {
	WorkerID string `json:"worker_id"`
}

// NextResponse is the body returned by POST /v1/next.
type NextResponse struct {
	Task  task.View     `json:"task"`
	Lease queue.LeaseID `json:"lease"`
}

// AnswerRequest is the body of POST /v1/leases/{id}.
type AnswerRequest struct {
	Answer task.Answer `json:"answer"`
}

// TraceResponse is the body returned by GET /v1/tasks/{id}/trace: the
// task's retained lifecycle events in emission order.
type TraceResponse struct {
	TaskID task.ID       `json:"task_id"`
	Events []trace.Event `json:"events"`
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// Server wires a core.System into an http.Handler.
type Server struct {
	sys      *core.System
	mux      *http.ServeMux // reached through ServeHTTP, which hands it the request's exchange
	stats    *endpointStats
	logger   *slog.Logger
	idem     *idemCache       // Idempotency-Key replay cache
	spans    *trace.SpanPlane // request span plane; nil when disabled
	sessions *session.Plane   // live session plane; nil when disabled
}

// NewServer returns a ready-to-serve open dispatch server over sys. Every
// route is instrumented; the admin handler's GET /metrics exports
// per-route request counts and latency histograms.
func NewServer(sys *core.System) *Server { return NewServerWith(sys, Options{}) }

// NewServerWith returns a dispatch server with optional API-key auth and
// per-key rate limiting on all /v1 routes (the health probe stays open).
func NewServerWith(sys *core.System, opts Options) *Server {
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{sys: sys, mux: http.NewServeMux(), stats: newEndpointStats(), logger: logger,
		idem: newIdemCache(idemCapacity), spans: sys.Spans()}
	guard := newAuthLimiter(opts)
	// Middleware order, outermost first: the exchange with its request ID
	// (ServeHTTP, whole mux), auth/rate limit, metrics+log, concurrency
	// shedding, request deadline, then — on the mutating routes —
	// idempotency replay around the handler, so a replayed response is
	// counted and logged like any other. Every layer runs on the
	// connection's goroutine and keeps its per-request state on the
	// exchange.
	serve := func(pattern string, h handler) { s.mount(pattern, guard.wrap(s.instrument(pattern, h))) }
	route := func(pattern string, h handler) { // one limiter per route
		serve(pattern, newShedder(opts.MaxInFlight).wrap(withDeadline(opts.RequestTimeout, h)))
	}
	routeIdem := func(pattern string, h handler) { route(pattern, s.idem.wrap(pattern, h)) }
	// write gates a mutating route on the system being writable: a
	// follower answers 503 + X-Leader before reading the body. It sits
	// inside the idempotency wrapper, which caches only 2xx responses, so a
	// rejected write is never replayed as a success after promotion.
	write := func(next handler) handler {
		return func(e *exchange, r *http.Request) {
			if !s.sys.ReadOnly() {
				next(e, r)
				return
			}
			if opts.Leader != "" {
				e.Header().Set("X-Leader", opts.Leader)
			}
			writeJSON(e, http.StatusServiceUnavailable,
				errorResponse{Error: core.ErrReadOnly.Error(), RequestID: e.id})
		}
	}
	routeIdem("POST /v1/tasks", write(s.handleSubmit))
	routeIdem("POST /v1/tasks:batch", write(s.handleSubmitBatch))
	route("GET /v1/tasks", s.handleListTasks)
	route("GET /v1/tasks/{id}", s.handleGetTask)
	route("DELETE /v1/tasks/{id}", write(s.handleCancel))
	route("GET /v1/tasks/{id}/words", s.handleWords)
	route("GET /v1/tasks/{id}/choice", s.handleChoice)
	route("GET /v1/tasks/{id}/posterior", s.handlePosterior)
	route("GET /v1/tasks/{id}/trace", s.handleTrace)
	route("POST /v1/next", write(s.handleNext))
	route("POST /v1/leases:batch", write(s.handleNextBatch))
	routeIdem("POST /v1/leases:answers", write(s.handleAnswerBatch))
	routeIdem("POST /v1/leases/{id}", write(s.handleAnswer))
	route("DELETE /v1/leases/{id}", write(s.handleRelease))
	route("GET /v1/stats", s.handleStats)
	if opts.Sessions != nil {
		s.sessions = opts.Sessions
		// Session routes block by design (matchmaking deadline, long-poll
		// wait): they keep the auth/rate-limit guard and instrumentation
		// but skip the shedder and request deadline — a parked long-poll is
		// idle, not stuck, and must not eat the in-flight budget or be cut
		// off mid-wait.
		serve("POST /v1/sessions/join", s.handleSessionJoin)
		serve("GET /v1/sessions/{id}/events", s.handleSessionEvents)
		serve("POST /v1/sessions/{id}/guess", s.handleSessionGuess)
		serve("POST /v1/sessions/{id}/pass", s.handleSessionPass)
		serve("POST /v1/sessions/{id}/leave", s.handleSessionLeave)
		serve("GET /v1/sessions/stats", s.handleSessionStats)
	}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	return s
}

// jsonBufPool recycles response encoding buffers across requests, so the
// hot path does not allocate a fresh encoder buffer per response. Buffers
// that grew beyond maxPooledBuf (an oversized task listing) are dropped
// rather than pinned in the pool forever.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 64 << 10

// encodeFailed is the body sent, with a 500, in place of a response that
// cannot be encoded.
const encodeFailed = `{"error":"dispatch: response encoding failed"}`

// writeJSON encodes v with the given status. Encoding goes through a
// pooled buffer, which also yields an exact Content-Length header.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		jsonBufPool.Put(buf)
		http.Error(w, encodeFailed, http.StatusInternalServerError)
		return
	}
	writeBuffer(w, status, buf)
}

// writeBuffer sends buf, a pooled buffer holding a JSON body, with the
// given status, and returns it to the pool.
func writeBuffer(w http.ResponseWriter, status int, buf *bytes.Buffer) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledBuf {
		jsonBufPool.Put(buf)
	}
}

// statusOf maps a domain error onto its HTTP status code; the same table
// backs whole-request errors (writeError) and per-item batch envelopes.
func statusOf(err error) int {
	switch {
	case errors.Is(err, queue.ErrEmpty):
		return http.StatusNoContent
	case errors.Is(err, queue.ErrUnknownLease),
		errors.Is(err, queue.ErrUnknownTask),
		errors.Is(err, core.ErrNoPosterior),
		errors.Is(err, session.ErrUnknown):
		return http.StatusNotFound
	case errors.Is(err, session.ErrNotPlayer):
		return http.StatusForbidden
	case errors.Is(err, task.ErrWrongStatus),
		errors.Is(err, task.ErrWorkerRepeat),
		errors.Is(err, queue.ErrDuplicateID),
		errors.Is(err, session.ErrEnded),
		errors.Is(err, session.ErrRetired),
		errors.Is(err, match.ErrAlreadyWaiting):
		return http.StatusConflict
	case errors.Is(err, session.ErrBadWord),
		errors.Is(err, session.ErrNoPlayer):
		return http.StatusBadRequest
	case errors.Is(err, task.ErrEmptyAnswer),
		errors.Is(err, task.ErrBadChoice),
		errors.Is(err, task.ErrBadRedundancy),
		errors.Is(err, task.ErrUnknownKind),
		errors.Is(err, core.ErrWrongKind),
		errors.Is(err, core.ErrQualityDisabled):
		return http.StatusUnprocessableEntity
	case errors.Is(err, core.ErrReadOnly),
		errors.Is(err, session.ErrNoPartner),
		errors.Is(err, session.ErrClosed):
		// Transient refusals: a follower rejecting a write (the
		// route-level guard adds the X-Leader hint), or a lone player the
		// session plane cannot seat yet. The client retry loop backs off
		// and tries again.
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// writeError maps domain errors onto HTTP status codes. The request
// supplies the ID echoed in the error envelope.
func writeError(w http.ResponseWriter, r *http.Request, err error) {
	status := statusOf(err)
	if status == http.StatusNoContent {
		w.WriteHeader(status)
		return
	}
	writeJSON(w, status, errorResponse{Error: err.Error(), RequestID: requestIDOf(r)})
}

func badRequest(w http.ResponseWriter, r *http.Request, format string, args ...any) {
	writeJSON(w, http.StatusBadRequest,
		errorResponse{Error: fmt.Sprintf(format, args...), RequestID: requestIDOf(r)})
}

const (
	// maxSingleBody bounds single-item POST bodies. The largest legal
	// payloads (a gold task with expected answer) are well under 1 KiB;
	// 1 MiB leaves generous slack without trusting Content-Length.
	maxSingleBody = 1 << 20
	// maxBatchBody bounds batch POST bodies: 256 items of fat payloads.
	maxBatchBody = 16 << 20
)

// readBody reads the bounded request body into the exchange's buffer,
// answering 413 (JSON envelope) when the limit is exceeded. A request
// with a deadline hands it to the connection first, so a body that
// trickles in is cut off there — the read is the one place a request
// waits on its client — and answered 503 like any other timeout.
func (e *exchange) readBody(r *http.Request, limit int64) bool {
	if !e.deadline.IsZero() {
		// Asked of the connection's writer directly, not through an
		// http.ResponseController: a writer with no connection behind it
		// (tests, the in-process bench rung — their bodies are already in
		// memory) would have the controller allocate a not-supported
		// error per request.
		if c, ok := e.w.(interface{ SetReadDeadline(time.Time) error }); ok {
			_ = c.SetReadDeadline(e.deadline) // a read past it fails, which is the point
		}
	}
	body := http.MaxBytesReader(e, r.Body, limit)
	if _, err := e.body.ReadFrom(body); err != nil {
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			writeJSON(e, http.StatusRequestEntityTooLarge, errorResponse{
				Error: fmt.Sprintf("dispatch: request body exceeds %d bytes", tooBig.Limit), RequestID: e.id})
		case e.timedOut():
			answerTimeout(e)
		default:
			badRequest(e, r, "dispatch: reading request body: %v", err)
		}
		return false
	}
	return true
}

// decode reads the request body: it is slurped into the exchange's pooled
// buffer, bounded by http.MaxBytesReader, and parsed with
// jsonx.UnmarshalStrict — the request type's canonical reader, where it
// has one (body.go), else a json.Decoder with DisallowUnknownFields —
// under an "http.decode" child span (attr = body bytes) when the request
// is traced. The decoded value owns all its memory (both copy strings and
// allocate slices), so it outlives the buffer. The hot single-call routes
// decode into the request structs the exchange carries, so a steady-state
// request allocates the decoded field values, plus the Decoder where the
// body goes to it.
func (e *exchange) decode(r *http.Request, v any, limit int64) bool {
	t0 := e.sh.Now()
	ok := e.readBody(r, limit)
	if ok {
		if err := jsonx.UnmarshalStrict(e.body.Bytes(), v); err != nil {
			badRequest(e, r, "dispatch: invalid request body: %v", err)
			ok = false
		}
	}
	e.sh.ObserveSince("http.decode", trace.NoSpan, t0, int64(e.body.Len()))
	return ok
}

// writeJSONSpanned is writeJSON plus an "http.encode" child span (attr =
// response status) when the request is traced.
func writeJSONSpanned(e *exchange, status int, v any) {
	t0 := e.sh.Now()
	writeJSON(e, status, v)
	e.sh.ObserveSince("http.encode", trace.NoSpan, t0, int64(status))
}

func pathID[T ~int64](w http.ResponseWriter, r *http.Request) (T, bool) {
	raw := r.PathValue("id")
	n, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || n < 0 {
		badRequest(w, r, "dispatch: invalid id %q", raw)
		return 0, false
	}
	return T(n), true
}

func (s *Server) handleSubmit(e *exchange, r *http.Request) {
	req := &e.submit
	if !e.decode(r, req, maxSingleBody) {
		return
	}
	kind, err := task.ParseKind(req.Kind)
	if err != nil {
		badRequest(e, r, "%v", err)
		return
	}
	var id task.ID
	if req.Gold {
		if req.Expected == nil {
			badRequest(e, r, "dispatch: gold task requires expected answer")
			return
		}
		id, err = s.sys.SubmitGoldCtx(r.Context(), kind, req.Payload, req.Redundancy, req.Priority, *req.Expected)
	} else {
		id, err = s.sys.SubmitTaskCtx(r.Context(), kind, req.Payload, req.Redundancy, req.Priority)
	}
	if err != nil {
		writeError(e, r, err)
		return
	}
	writeJSONSpanned(e, http.StatusCreated, SubmitResponse{ID: id})
}

// TaskList is the body returned by GET /v1/tasks.
type TaskList struct {
	Tasks []task.View `json:"tasks"`
	Total int         `json:"total"`
}

// handleListTasks serves GET /v1/tasks?status=open&offset=0&limit=50.
// Tasks are ordered by ID; Total counts all matches before pagination.
// Only the requested page is copied out of the store: the request costs one
// page of views, not a copy of the table or a list of its IDs.
func (s *Server) handleListTasks(e *exchange, r *http.Request) {
	q := r.URL.Query()
	st := store.AnyStatus
	if raw := q.Get("status"); raw != "" {
		for _, known := range []task.Status{task.Open, task.Done, task.Canceled} {
			if raw == known.String() {
				st = known
			}
		}
		if st == store.AnyStatus {
			badRequest(e, r, "dispatch: unknown status %q", raw)
			return
		}
	}

	offset, limit := 0, 50
	if raw := q.Get("offset"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			badRequest(e, r, "dispatch: invalid offset %q", raw)
			return
		}
		offset = n
	}
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 || n > 1000 {
			badRequest(e, r, "dispatch: invalid limit %q (1..1000)", raw)
			return
		}
		limit = n
	}
	var out TaskList
	out.Tasks, out.Total = s.sys.Store().Views(st, offset, limit)
	writeJSON(e, http.StatusOK, out)
}

// handleGetTask serves GET /v1/tasks/{id}. The task is encoded where it is
// stored, under the store's read lock, by the storage codec: the bytes
// json.Encoder makes of its view, without the copy or the reflection.
func (s *Server) handleGetTask(e *exchange, r *http.Request) {
	id, ok := pathID[task.ID](e, r)
	if !ok {
		return
	}
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	doc, err := s.sys.Store().AppendJSON(buf.AvailableBuffer(), id)
	if err != nil {
		jsonBufPool.Put(buf)
		if errors.Is(err, store.ErrNotFound) {
			writeJSON(e, http.StatusNotFound, errorResponse{Error: err.Error(), RequestID: requestIDOf(r)})
		} else {
			http.Error(e, encodeFailed, http.StatusInternalServerError)
		}
		return
	}
	buf.Write(append(doc, '\n')) // json.Encoder ends a value with a newline
	writeBuffer(e, http.StatusOK, buf)
}

// handleTrace serves GET /v1/tasks/{id}/trace: the retained lifecycle
// events for one task, oldest first. A task the ring has fully evicted
// returns an empty event list (not 404) as long as the task itself
// exists; an unknown task is 404.
func (s *Server) handleTrace(e *exchange, r *http.Request) {
	id, ok := pathID[task.ID](e, r)
	if !ok {
		return
	}
	events := s.sys.TaskTrace(id)
	if len(events) == 0 {
		if _, err := s.sys.Task(id); err != nil {
			writeJSON(e, http.StatusNotFound, errorResponse{Error: err.Error(), RequestID: requestIDOf(r)})
			return
		}
		events = []trace.Event{}
	}
	writeJSON(e, http.StatusOK, TraceResponse{TaskID: id, Events: events})
}

func (s *Server) handleCancel(e *exchange, r *http.Request) {
	id, ok := pathID[task.ID](e, r)
	if !ok {
		return
	}
	if err := s.sys.CancelTask(id); err != nil {
		writeError(e, r, err)
		return
	}
	e.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleWords(e *exchange, r *http.Request) {
	id, ok := pathID[task.ID](e, r)
	if !ok {
		return
	}
	words, err := s.sys.AggregateWords(id)
	if err != nil {
		writeError(e, r, err)
		return
	}
	writeJSON(e, http.StatusOK, words)
}

func (s *Server) handleChoice(e *exchange, r *http.Request) {
	id, ok := pathID[task.ID](e, r)
	if !ok {
		return
	}
	res, err := s.sys.AggregateChoice(id)
	if err != nil {
		writeError(e, r, err)
		return
	}
	writeJSON(e, http.StatusOK, res)
}

// handlePosterior serves GET /v1/tasks/{id}/posterior: the online
// estimator's class posterior and confidence for a choice task. 422 when
// the system runs without the quality plane, 404 when the estimator holds
// no state for the task (non-choice kind, no answers yet, evicted).
func (s *Server) handlePosterior(e *exchange, r *http.Request) {
	id, ok := pathID[task.ID](e, r)
	if !ok {
		return
	}
	info, err := s.sys.TaskPosterior(id)
	if err != nil {
		writeError(e, r, err)
		return
	}
	writeJSON(e, http.StatusOK, info)
}

func (s *Server) handleNext(e *exchange, r *http.Request) {
	req := &e.next
	if !e.decode(r, req, maxSingleBody) {
		return
	}
	if req.WorkerID == "" {
		badRequest(e, r, "dispatch: worker_id required")
		return
	}
	t, lease, err := s.sys.NextTaskCtx(r.Context(), req.WorkerID)
	if err != nil {
		writeError(e, r, err)
		return
	}
	writeJSONSpanned(e, http.StatusOK, NextResponse{Task: t, Lease: lease})
}

func (s *Server) handleAnswer(e *exchange, r *http.Request) {
	id, ok := pathID[queue.LeaseID](e, r)
	if !ok {
		return
	}
	req := &e.answer
	if !e.decode(r, req, maxSingleBody) {
		return
	}
	if err := s.sys.SubmitAnswerCtx(r.Context(), id, req.Answer); err != nil {
		writeError(e, r, err)
		return
	}
	e.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleRelease(e *exchange, r *http.Request) {
	id, ok := pathID[queue.LeaseID](e, r)
	if !ok {
		return
	}
	if err := s.sys.ReleaseTask(id); err != nil {
		writeError(e, r, err)
		return
	}
	e.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(e *exchange, r *http.Request) {
	writeJSON(e, http.StatusOK, s.sys.Stats())
}
