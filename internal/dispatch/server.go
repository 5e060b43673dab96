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
//	GET    /v1/tasks/{id}/trace ordered lifecycle trace events
//	POST   /v1/next             lease the next task for a worker
//	POST   /v1/leases:batch     lease up to N tasks for one worker
//	POST   /v1/leases/{id}      submit the answer for a lease
//	POST   /v1/leases:answers   answer up to 256 leases in one request
//	DELETE /v1/leases/{id}      release a lease unanswered
//	GET    /v1/stats            system counters
//	GET    /v1/metrics          per-endpoint request metrics
//	GET    /healthz             liveness
//
// Read-path contract: handlers never serialize live *task.Task pointers.
// Every task that crosses the wire is a task.View snapshot copied under
// the owning lock, so reads can never race with the queue recording
// answers. All /v1 routes — including /v1/metrics — sit behind the
// auth/rate-limit middleware when one is configured.
//
// Every request carries an ID: the server adopts a well-formed
// X-Request-Id from the client or generates one, echoes it on the
// response, threads it through the request context into the structured
// log line, and includes it in JSON error envelopes, so a failing call
// can be matched to its server-side log entry from either end.
package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"

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

// discardHandler drops every record. (slog's stock discard handler
// arrived after the Go release this module declares, so the few callers
// that want a no-op logger get this one.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// DiscardLogger returns a logger that drops everything — the default when
// Options.Logger is nil, and what tests pass to silence request logs.
func DiscardLogger() *slog.Logger { return slog.New(discardHandler{}) }

// Server wires a core.System into an http.Handler.
type Server struct {
	sys      *core.System
	mux      *http.ServeMux
	handler  http.Handler // mux wrapped with the request-ID middleware
	stats    *endpointStats
	logger   *slog.Logger
	idem     *idemCache       // Idempotency-Key replay cache; nil when disabled
	spans    *trace.SpanPlane // request span plane; nil when disabled
	sessions *session.Plane   // live session plane; nil when disabled
}

// NewServer returns a ready-to-serve open dispatch server over sys. Every
// route is instrumented; GET /v1/metrics reports per-endpoint request
// counts and latency quantiles.
func NewServer(sys *core.System) *Server { return NewServerWith(sys, Options{}) }

// NewServerWith returns a dispatch server with optional API-key auth and
// per-key rate limiting on all /v1 routes (the health probe stays open).
func NewServerWith(sys *core.System, opts Options) *Server {
	logger := opts.Logger
	if logger == nil {
		logger = DiscardLogger()
	}
	s := &Server{sys: sys, mux: http.NewServeMux(), stats: newEndpointStats(), logger: logger,
		spans: sys.Spans()}
	if opts.IdempotencyCapacity >= 0 {
		s.idem = newIdemCache(opts.IdempotencyCapacity)
	}
	guard := newAuthLimiter(opts)
	// Middleware order, outermost first: request ID (whole mux), auth/rate
	// limit, metrics+log, concurrency shedding, request timeout, then —
	// on the mutating routes — idempotency replay around the handler, so
	// a replayed response is counted and logged like any other.
	route := func(pattern string, h http.HandlerFunc) {
		h = withTimeout(opts.RequestTimeout, h)
		h = newShedder(opts.MaxInFlight).wrap(h) // one limiter per route
		s.mux.HandleFunc(pattern, guard.wrap(s.instrument(pattern, h)))
	}
	routeIdem := func(pattern string, h http.HandlerFunc) {
		route(pattern, s.idem.wrap(pattern, h))
	}
	// write gates a mutating route behind Options.Writable: a follower
	// answers 503 + X-Leader before reading the body. It sits inside the
	// idempotency wrapper, which caches only 2xx responses, so a rejected
	// write is never replayed as a success after promotion.
	write := func(h http.HandlerFunc) http.HandlerFunc {
		if opts.Writable == nil {
			return h
		}
		return func(w http.ResponseWriter, r *http.Request) {
			if opts.Writable() {
				h(w, r)
				return
			}
			if opts.LeaderHint != nil {
				if leader := opts.LeaderHint(); leader != "" {
					w.Header().Set("X-Leader", leader)
				}
			}
			writeJSON(w, http.StatusServiceUnavailable,
				errorResponse{Error: core.ErrReadOnly.Error(), RequestID: requestIDOf(r)})
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
		// but skip the shedder and request timeout — a parked long-poll is
		// idle, not stuck, and must not eat the in-flight budget or be cut
		// off mid-wait.
		live := func(pattern string, h http.HandlerFunc) {
			s.mux.HandleFunc(pattern, guard.wrap(s.instrument(pattern, h)))
		}
		live("POST /v1/sessions/join", s.handleSessionJoin)
		live("GET /v1/sessions/{id}/events", s.handleSessionEvents)
		live("POST /v1/sessions/{id}/guess", s.handleSessionGuess)
		live("POST /v1/sessions/{id}/pass", s.handleSessionPass)
		live("POST /v1/sessions/{id}/leave", s.handleSessionLeave)
		live("GET /v1/sessions/stats", s.handleSessionStats)
	}
	s.mux.HandleFunc("GET /v1/metrics", guard.wrap(s.handleMetrics))
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	s.handler = withRequestID(s.mux)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// jsonBufPool recycles response encoding buffers across requests, so the
// hot path does not allocate a fresh encoder buffer per response. Buffers
// that grew beyond maxPooledBuf (an oversized task listing) are dropped
// rather than pinned in the pool forever.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 64 << 10

// writeJSON encodes v with the given status. Encoding goes through a
// pooled buffer, which also yields an exact Content-Length header.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		jsonBufPool.Put(buf)
		http.Error(w, `{"error":"dispatch: response encoding failed"}`, http.StatusInternalServerError)
		return
	}
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

// writeError maps domain errors onto HTTP status codes. The request (nil
// tolerated) supplies the ID echoed in the error envelope.
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

// Request decode fast path. Every POST body is slurped into a pooled
// buffer bounded by http.MaxBytesReader (oversized bodies get a 413 JSON
// envelope instead of an unbounded read), then parsed in place with
// jsonx.UnmarshalStrict — the allocation-free twin of the old per-request
// json.Decoder with DisallowUnknownFields. The carrier also holds
// preallocated request structs for the hot single-call routes (submit /
// next / answer), so a steady-state request allocates only the decoded
// field values, not the decode machinery.
type reqCarrier struct {
	buf    bytes.Buffer
	submit SubmitRequest
	next   NextRequest
	answer AnswerRequest
}

var carrierPool = sync.Pool{New: func() any { return new(reqCarrier) }}

const (
	// maxSingleBody bounds single-item POST bodies. The largest legal
	// payloads (a gold task with expected answer) are well under 1 KiB;
	// 1 MiB leaves generous slack without trusting Content-Length.
	maxSingleBody = 1 << 20
	// maxBatchBody bounds batch POST bodies: 256 items of fat payloads.
	maxBatchBody = 16 << 20
)

func getCarrier() *reqCarrier { return carrierPool.Get().(*reqCarrier) }

func putCarrier(c *reqCarrier) {
	// A buffer grown by one oversized batch must not stay pinned forever.
	if c.buf.Cap() <= 4*maxPooledBuf {
		carrierPool.Put(c)
	}
}

// readBody reads the bounded request body into the carrier's buffer,
// answering 413 (JSON envelope) when the limit is exceeded.
func (c *reqCarrier) readBody(w http.ResponseWriter, r *http.Request, limit int64) bool {
	c.buf.Reset()
	body := http.MaxBytesReader(w, r.Body, limit)
	if _, err := c.buf.ReadFrom(body); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
				Error:     fmt.Sprintf("dispatch: request body exceeds %d bytes", tooBig.Limit),
				RequestID: requestIDOf(r),
			})
		} else {
			badRequest(w, r, "dispatch: reading request body: %v", err)
		}
		return false
	}
	return true
}

// decodeInto reads the bounded body and strictly parses it into v.
func (c *reqCarrier) decodeInto(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	if !c.readBody(w, r, limit) {
		return false
	}
	if err := jsonx.UnmarshalStrict(c.buf.Bytes(), v); err != nil {
		badRequest(w, r, "dispatch: invalid request body: %v", err)
		return false
	}
	return true
}

// decodeSpanned is decodeInto plus an "http.decode" child span (attr =
// body bytes) when the request carries a span handle; under the invalid
// handle neither the clock read nor the span happens.
func (c *reqCarrier) decodeSpanned(w http.ResponseWriter, r *http.Request, sh trace.Handle, v any, limit int64) bool {
	t0 := sh.Now()
	ok := c.decodeInto(w, r, v, limit)
	sh.ObserveSince("http.decode", trace.NoSpan, t0, int64(c.buf.Len()))
	return ok
}

// writeJSONSpanned is writeJSON plus an "http.encode" child span (attr =
// response status) when the request carries a span handle.
func writeJSONSpanned(w http.ResponseWriter, sh trace.Handle, status int, v any) {
	t0 := sh.Now()
	writeJSON(w, status, v)
	sh.ObserveSince("http.encode", trace.NoSpan, t0, int64(status))
}

// decode parses a bounded request body into a fresh T; the cold-route
// form (batch requests and anything without a carrier slot). The decoded
// value owns all its memory — json copies strings and allocates slices —
// so it outlives the pooled buffer.
func decode[T any](w http.ResponseWriter, r *http.Request, sh trace.Handle, limit int64) (T, bool) {
	var v T
	c := getCarrier()
	defer putCarrier(c)
	ok := c.decodeSpanned(w, r, sh, &v, limit)
	return v, ok
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

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	sh := trace.FromContext(r.Context())
	c := getCarrier()
	defer putCarrier(c)
	c.submit = SubmitRequest{}
	req := &c.submit
	if !c.decodeSpanned(w, r, sh, req, maxSingleBody) {
		return
	}
	kind, err := task.ParseKind(req.Kind)
	if err != nil {
		badRequest(w, r, "%v", err)
		return
	}
	var id task.ID
	if req.Gold {
		if req.Expected == nil {
			badRequest(w, r, "dispatch: gold task requires expected answer")
			return
		}
		id, err = s.sys.SubmitGoldCtx(r.Context(), kind, req.Payload, req.Redundancy, req.Priority, *req.Expected)
	} else {
		id, err = s.sys.SubmitTaskCtx(r.Context(), kind, req.Payload, req.Redundancy, req.Priority)
	}
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSONSpanned(w, sh, http.StatusCreated, SubmitResponse{ID: id})
}

// TaskList is the body returned by GET /v1/tasks.
type TaskList struct {
	Tasks []task.View `json:"tasks"`
	Total int         `json:"total"`
}

// handleListTasks serves GET /v1/tasks?status=open&offset=0&limit=50.
// Tasks are ordered by ID; Total counts all matches before pagination.
// Only the requested page is copied out of the store: the request costs the
// matching IDs plus one page of views, not a copy of the table.
func (s *Server) handleListTasks(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	st := store.AnyStatus
	if raw := q.Get("status"); raw != "" {
		for _, known := range []task.Status{task.Open, task.Done, task.Canceled} {
			if raw == known.String() {
				st = known
			}
		}
		if st == store.AnyStatus {
			badRequest(w, r, "dispatch: unknown status %q", raw)
			return
		}
	}

	offset, limit := 0, 50
	if raw := q.Get("offset"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			badRequest(w, r, "dispatch: invalid offset %q", raw)
			return
		}
		offset = n
	}
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 || n > 1000 {
			badRequest(w, r, "dispatch: invalid limit %q (1..1000)", raw)
			return
		}
		limit = n
	}
	ids := s.sys.Store().IDs(st)
	out := TaskList{Total: len(ids), Tasks: []task.View{}}
	if offset < len(ids) {
		_ = s.sys.Store().Walk(ids[offset:min(offset+limit, len(ids))], func(v *task.View) error {
			if st == store.AnyStatus || v.Status == st { // it may have moved on since the IDs were listed
				out.Tasks = append(out.Tasks, *v)
			}
			return nil
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetTask(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID[task.ID](w, r)
	if !ok {
		return
	}
	t, err := s.sys.Task(id)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error(), RequestID: requestIDOf(r)})
		return
	}
	writeJSON(w, http.StatusOK, t)
}

// handleTrace serves GET /v1/tasks/{id}/trace: the retained lifecycle
// events for one task, oldest first. A task the ring has fully evicted
// returns an empty event list (not 404) as long as the task itself
// exists; an unknown task is 404.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID[task.ID](w, r)
	if !ok {
		return
	}
	events := s.sys.TaskTrace(id)
	if len(events) == 0 {
		if _, err := s.sys.Task(id); err != nil {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error(), RequestID: requestIDOf(r)})
			return
		}
		events = []trace.Event{}
	}
	writeJSON(w, http.StatusOK, TraceResponse{TaskID: id, Events: events})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID[task.ID](w, r)
	if !ok {
		return
	}
	if err := s.sys.CancelTask(id); err != nil {
		writeError(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleWords(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID[task.ID](w, r)
	if !ok {
		return
	}
	words, err := s.sys.AggregateWords(id)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, words)
}

func (s *Server) handleChoice(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID[task.ID](w, r)
	if !ok {
		return
	}
	res, err := s.sys.AggregateChoice(id)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handlePosterior serves GET /v1/tasks/{id}/posterior: the online
// estimator's class posterior and confidence for a choice task. 422 when
// the system runs without the quality plane, 404 when the estimator holds
// no state for the task (non-choice kind, no answers yet, evicted).
func (s *Server) handlePosterior(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID[task.ID](w, r)
	if !ok {
		return
	}
	info, err := s.sys.TaskPosterior(id)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleNext(w http.ResponseWriter, r *http.Request) {
	sh := trace.FromContext(r.Context())
	c := getCarrier()
	defer putCarrier(c)
	c.next = NextRequest{}
	req := &c.next
	if !c.decodeSpanned(w, r, sh, req, maxSingleBody) {
		return
	}
	if req.WorkerID == "" {
		badRequest(w, r, "dispatch: worker_id required")
		return
	}
	t, lease, err := s.sys.NextTaskCtx(r.Context(), req.WorkerID)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSONSpanned(w, sh, http.StatusOK, NextResponse{Task: t, Lease: lease})
}

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID[queue.LeaseID](w, r)
	if !ok {
		return
	}
	sh := trace.FromContext(r.Context())
	c := getCarrier()
	defer putCarrier(c)
	c.answer = AnswerRequest{}
	req := &c.answer
	if !c.decodeSpanned(w, r, sh, req, maxSingleBody) {
		return
	}
	if err := s.sys.SubmitAnswerCtx(r.Context(), id, req.Answer); err != nil {
		writeError(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID[queue.LeaseID](w, r)
	if !ok {
		return
	}
	if err := s.sys.ReleaseTask(id); err != nil {
		writeError(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sys.Stats())
}
