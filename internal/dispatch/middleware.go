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
// through a pre-resolved *routeStats (atomic counters, striped histogram),
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
	latency *metrics.LatencyHist
	// exemplars pairs the latency histogram's exposition buckets with the
	// trace ID of the most recent observation that landed in each, so a
	// scrape can jump from a latency bucket to GET /v1/debug/spans.
	exemplars metrics.ExemplarSet
}

// codeClasses are the code_class label values of hc_http_requests_total.
var codeClasses = [...]string{"2xx", "3xx", "4xx", "5xx"}

// count records one response; statuses outside 200..599 land in the
// nearest class.
func (rs *routeStats) count(status int) {
	rs.byClass[min(max(status/100-2, 0), len(codeClasses)-1)].Inc()
}

// errors returns the responses with status >= 400.
func (rs *routeStats) errors() int64 { return rs.byClass[2].Value() + rs.byClass[3].Value() }

func newEndpointStats() *endpointStats {
	return &endpointStats{byRoute: make(map[string]*routeStats)}
}

func (s *endpointStats) get(route string) *routeStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	rs := s.byRoute[route]
	if rs == nil {
		rs = &routeStats{route: route, latency: new(metrics.LatencyHist)}
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

type ctxKey int

const (
	requestIDKey ctxKey = iota
	principalKey
)

// RequestIDFromContext returns the request ID the middleware attached to
// the context, or "" outside a request.
func RequestIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// requestIDOf is RequestIDFromContext tolerant of a nil request.
func requestIDOf(r *http.Request) string {
	if r == nil {
		return ""
	}
	return RequestIDFromContext(r.Context())
}

// newRequestID returns a fresh 16-hex-digit request ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; degrade to a
		// constant rather than panicking in the serving path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
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

// withRequestID accepts or generates the request ID, echoes it on the
// response, and attaches it to the request context. It wraps the whole
// mux, so even 404s and auth rejections carry an ID.
func withRequestID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		if !usableRequestID(id) {
			id = newRequestID()
		}
		w.Header().Set(requestIDHeader, id)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey, id)))
	})
}

// statusRecorder captures the response status for the metrics middleware.
// It passes http.Flusher through so streaming handlers keep working, and
// records the implicit 200 a first Write sends, so large or streamed
// responses are counted with the status that actually went out.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool // header sent (explicitly or via first Write)
}

func (r *statusRecorder) WriteHeader(status int) {
	if !r.wrote {
		r.status = status
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.wrote {
		// net/http sends an implicit 200 on the first Write.
		r.status = http.StatusOK
		r.wrote = true
	}
	return r.ResponseWriter.Write(b)
}

// Flush implements http.Flusher when the underlying writer does.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with per-route metrics, the request-scoped
// span tree, panic recovery and the structured request log. The
// routeStats is resolved once, at registration, so the per-request path
// touches only atomics and the striped latency histogram. With the span
// plane enabled, every request gets a root span — adopting the client's
// traceparent when one arrives, minting a fresh trace otherwise — and the
// handle rides the request context for handlers to hang child spans on.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	rs := s.stats.get(route)
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		var sh trace.Handle
		if s.spans != nil {
			tid, parent, ok := trace.ParseTraceParent(r.Header.Get(traceParentHeader))
			if !ok {
				tid, parent = trace.NewTraceID(), trace.SpanID{}
			}
			sh = s.spans.StartTrace(tid, parent, route)
			if sh.Valid() {
				r = r.WithContext(trace.NewContext(r.Context(), sh))
			}
		}
		start := time.Now()
		s.serveRecovered(rec, r, route, sh, h)
		dur := time.Since(start)
		rs.count(rec.status)
		rs.latency.Observe(dur)
		if sh.Valid() {
			rs.exemplars.Observe(dur, sh.Trace().Hex())
			var errMsg string
			if rec.status >= 500 {
				errMsg = "http " + strconv.Itoa(rec.status)
			}
			s.spans.Finish(sh, errMsg)
		}
		s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.Int("status", rec.status),
			slog.Duration("duration", dur),
			slog.String("request_id", RequestIDFromContext(r.Context())),
			slog.String("remote", r.RemoteAddr),
		)
	}
}

// serveRecovered runs the handler, converting a panic into a logged JSON
// 500. The recorder is marked 500 even when the handler panicked after
// writing its header, so mid-response panics still count as route errors.
// A valid span handle gets its root span failed with the panic value, so
// the trace survives tail sampling and records how the request died.
func (s *Server) serveRecovered(rec *statusRecorder, r *http.Request, route string, sh trace.Handle, h http.HandlerFunc) {
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
		sh.FailSpan(sh.Root(), fmt.Sprintf("panic: %v", p))
		s.logger.LogAttrs(r.Context(), slog.LevelError, "handler panic",
			slog.String("route", route),
			slog.Any("panic", p),
			slog.String("request_id", RequestIDFromContext(r.Context())),
			slog.String("stack", string(debug.Stack())),
		)
		if rec.wrote {
			rec.status = http.StatusInternalServerError
			return
		}
		writeJSON(rec, http.StatusInternalServerError,
			errorResponse{Error: "dispatch: internal server error", RequestID: requestIDOf(r)})
	}()
	h(rec, r)
}

// RouteMetrics is the per-endpoint block of GET /v1/metrics.
type RouteMetrics struct {
	Route    string  `json:"route"`
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	MeanMs   float64 `json:"mean_ms"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MaxMs    float64 `json:"max_ms"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.stats.snapshot()
	out := make([]RouteMetrics, 0, len(snap))
	for _, rs := range snap {
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		out = append(out, RouteMetrics{
			Route:    rs.route,
			Requests: rs.latency.Count(),
			Errors:   rs.errors(),
			MeanMs:   ms(rs.latency.Mean()),
			P50Ms:    ms(rs.latency.Quantile(0.5)),
			P99Ms:    ms(rs.latency.Quantile(0.99)),
			MaxMs:    ms(rs.latency.Max()),
		})
	}
	writeJSON(w, http.StatusOK, out)
}
