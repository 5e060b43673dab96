package dispatch

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"humancomp/internal/metrics"
	"humancomp/internal/trace"
)

// traceParentHeader is the W3C trace-context header requests arrive and
// leave on: 00-<trace id>-<span id>-01. The client sends one trace ID for
// every attempt of a logical call; the server adopts it as the root of
// the request's span tree.
const traceParentHeader = "traceparent"

// endpointStats accumulates request counts and latency per route pattern.
// Routes are registered once at server construction; the hot path writes
// through a pre-resolved *routeStats (atomic counters, atomic-bucket histogram),
// so no request ever takes the registration mutex.
type endpointStats struct {
	mu      sync.Mutex // guards byRoute registration; never taken per request
	byRoute map[string]*routeStats
}

type routeStats struct {
	route string // the mux pattern, e.g. "POST /v1/tasks"
	// byClass counts responses per status class, indexed as codeClasses:
	// a shed (429) and a fault (5xx) stay apart.
	byClass [len(codeClasses)]metrics.Counter
	// latency's exemplars link its buckets to the trace of a request that
	// landed there, so a scrape can jump to GET /v1/debug/spans.
	latency metrics.LatencyHist
}

// codeClasses are the code_class label values of hc_http_requests_total.
var codeClasses = [...]string{"2xx", "3xx", "4xx", "5xx"}

// count records one response; statuses outside 200..599 land in the
// nearest class.
func (rs *routeStats) count(status int) {
	rs.byClass[min(max(status/100-2, 0), len(codeClasses)-1)].Inc()
}

func newEndpointStats() *endpointStats {
	return &endpointStats{byRoute: make(map[string]*routeStats)}
}

func (s *endpointStats) get(route string) *routeStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	rs := s.byRoute[route]
	if rs == nil {
		rs = &routeStats{route: route}
		s.byRoute[route] = rs
	}
	return rs
}

// snapshot lists the routes in pattern order under one lock acquisition.
// The *routeStats values are internally synchronized, so readers work the
// list without ever re-taking the registration mutex.
func (s *endpointStats) snapshot() []*routeStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := make([]*routeStats, 0, len(s.byRoute))
	for _, rs := range s.byRoute {
		snap = append(snap, rs)
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i].route < snap[j].route })
	return snap
}

// requestIDHeader is the header request IDs arrive and leave on.
const requestIDHeader = "X-Request-Id"

// RequestIDFromContext returns the ID of the request ctx belongs to — the
// request's own context or anything derived from it — or "" outside a
// request.
func RequestIDFromContext(ctx context.Context) string {
	if e, _ := ctx.Value(exchangeKey{}).(*exchange); e != nil {
		return e.id
	}
	return ""
}

// requestIDOf is the ID of the request r, "" on a server that assigns none
// (the admin listener).
func requestIDOf(r *http.Request) string { return RequestIDFromContext(r.Context()) }

// newRequestID returns a fresh 16-hex-digit request ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; degrade to a
		// constant rather than panicking in the serving path.
		return "0000000000000000"
	}
	var id [2 * len(b)]byte
	hex.Encode(id[:], b[:])
	return string(id[:])
}

// usableRequestID reports whether a client-supplied ID is safe to adopt:
// non-empty, bounded, and printable ASCII without spaces, so it can be
// echoed into headers and logs verbatim.
func usableRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return false
		}
	}
	return true
}

// handler is one layer of the middleware chain, or the route handler at
// the end of it: an http.HandlerFunc that knows its ResponseWriter is the
// request's exchange, which is also r's context.
type handler func(e *exchange, r *http.Request)

// ServeHTTP implements http.Handler. It checks out the request's exchange
// — accepting or generating the request ID and echoing it on the response
// — and routes the one copy of r that carries it. That wraps the whole
// mux, so even 404s and auth rejections carry an ID.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	e := newExchange(w, r)
	defer e.release()
	w.Header().Set(requestIDHeader, e.id)
	s.mux.ServeHTTP(e, r.WithContext(e))
}

// mount registers a chain on the mux, which hands every handler the
// exchange ServeHTTP passed it.
func (s *Server) mount(pattern string, h handler) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) { h(w.(*exchange), r) })
}

// instrument wraps a chain with per-route metrics, the request-scoped
// span tree, panic recovery and the structured request log. The
// routeStats and the route's log handler are resolved once, at
// registration, so the per-request path touches only atomics (counters
// and the latency histogram's buckets). With the span plane enabled, every request
// gets a root span — adopting the client's traceparent when one arrives,
// minting a fresh trace otherwise — and the handle rides the exchange for
// handlers to hang child spans on.
func (s *Server) instrument(route string, next handler) handler {
	rs := s.stats.get(route)
	// The route is the same on every line, so it is bound (and formatted)
	// once; the five attributes that vary fit a slog.Record's inline
	// storage, which is what keeps a logged request from allocating.
	logs := s.logger.Handler().WithAttrs([]slog.Attr{slog.String("route", route)})
	return func(e *exchange, r *http.Request) {
		if s.spans != nil {
			tid, parent, ok := trace.ParseTraceParent(r.Header.Get(traceParentHeader))
			if !ok {
				tid, parent = trace.NewTraceID(), trace.SpanID{}
			}
			e.sh = s.spans.StartTrace(tid, parent, route)
		}
		start := time.Now()
		s.serveRecovered(e, r, route, next)
		dur := time.Since(start)
		rs.count(e.status)
		rs.latency.ObserveTraced(dur, e.sh.Trace())
		if e.sh.Valid() {
			var errMsg string
			if e.status >= 500 {
				errMsg = "http " + strconv.Itoa(e.status)
			}
			s.spans.Finish(e.sh, errMsg)
		}
		logRequest(logs, e, r, start.Add(dur), dur)
	}
}

// logRequest writes the request log line: message "request" with method,
// route (bound into logs), status, duration, request_id and remote. It
// builds the record itself instead of going through Logger.LogAttrs,
// which would look up a caller pc no handler here prints.
func logRequest(logs slog.Handler, e *exchange, r *http.Request, now time.Time, dur time.Duration) {
	if !logs.Enabled(e, slog.LevelInfo) {
		return
	}
	rec := slog.NewRecord(now, slog.LevelInfo, "request", 0)
	rec.AddAttrs(
		slog.String("method", r.Method),
		slog.Int("status", e.status),
		slog.Duration("duration", dur),
		slog.String("request_id", e.id),
		slog.String("remote", r.RemoteAddr),
	)
	_ = logs.Handle(e, rec) // a log line that cannot be written has nowhere to be reported
}

// serveRecovered runs the chain, converting a panic into a logged JSON
// 500. The exchange is marked 500 even when the handler panicked after
// writing its header, so mid-response panics still count as route errors.
// A valid span handle gets its root span failed with the panic value, so
// the trace survives tail sampling and records how the request died.
func (s *Server) serveRecovered(e *exchange, r *http.Request, route string, next handler) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if p == http.ErrAbortHandler {
			// The sentinel net/http itself uses to abort a response;
			// suppressing it would hide the abort from the server.
			panic(p)
		}
		e.sh.FailSpan(e.sh.Root(), fmt.Sprintf("panic: %v", p))
		s.logger.LogAttrs(e, slog.LevelError, "handler panic",
			slog.String("route", route),
			slog.Any("panic", p),
			slog.String("request_id", e.id),
			slog.String("stack", string(debug.Stack())),
		)
		if e.wrote {
			e.status = http.StatusInternalServerError
			return
		}
		writeJSON(e, http.StatusInternalServerError,
			errorResponse{Error: "dispatch: internal server error", RequestID: e.id})
	}()
	next(e, r)
}
