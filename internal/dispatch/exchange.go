package dispatch

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"time"

	"humancomp/internal/trace"
)

// exchange is everything the middleware chain keeps for one request, in
// one pooled value that is both the http.ResponseWriter the handlers write
// to and the context their request carries. As a writer it records the
// status and whether the header went out (metrics, panic recovery, the
// timeout answer) and, on an idempotent route, tees the body for the
// replay cache. As a context it answers for the request ID, the span
// handle and -request-timeout from its own fields, so a request costs one
// http.Request copy and no context.WithValue layer, wrapper allocation,
// timer or goroutine: the handler runs on the connection's goroutine.
//
// Like the context net/http hands a handler, an exchange is the request's
// only until ServeHTTP returns; it is then zeroed and reused. Nothing in
// this package keeps one past the handler's return.
type exchange struct {
	w      http.ResponseWriter // the connection's writer
	parent context.Context     // the connection's request context: cancelled when the client goes away

	id    string       // request ID, adopted or generated
	scope string       // the caller's idempotency scope, set by the auth layer
	sh    trace.Handle // the request's span tree; invalid when untraced
	// deadline is when -request-timeout runs out; zero on session routes
	// and with the timeout disabled, where the exchange is as patient as
	// its parent.
	deadline time.Time

	// A real deadline context exists only once something asks for Done
	// (no hot route does); arm makes that safe from goroutines a handler
	// hands its context to.
	arm    sync.Once
	armed  context.Context
	cancel context.CancelFunc

	status int
	wrote  bool // header sent, explicitly or by the first Write or Flush
	// capture tees the body into buf for the idempotency cache, which
	// keeps buf; a body that outgrows maxIdemBody clears it again and goes
	// uncached.
	capture bool
	buf     []byte

	// What decode reads a request into: the body, whose buffer stays with
	// the pooled exchange too, and the request structs of the hot
	// single-call routes, so decoding one allocates no struct.
	body   bytes.Buffer
	submit SubmitRequest
	next   NextRequest
	answer AnswerRequest
}

var exchangePool = sync.Pool{New: func() any { return new(exchange) }}

// newExchange checks an exchange out for one request on w.
func newExchange(w http.ResponseWriter, r *http.Request) *exchange {
	e := exchangePool.Get().(*exchange)
	e.w, e.parent, e.status = w, r.Context(), http.StatusOK
	if e.id = r.Header.Get(requestIDHeader); !usableRequestID(e.id) {
		e.id = newRequestID()
	}
	return e
}

// release stops the armed deadline, if any, and returns the exchange to
// the pool holding nothing of the request it served but the request body
// buffer's backing array (dropped, like writeJSON's, once one oversized
// request has grown it, so it does not stay pinned forever).
func (e *exchange) release() {
	if e.cancel != nil {
		e.cancel()
	}
	body := e.body
	if body.Reset(); body.Cap() > 4*maxPooledBuf {
		body = bytes.Buffer{}
	}
	*e = exchange{body: body}
	exchangePool.Put(e)
}

func (e *exchange) Header() http.Header { return e.w.Header() }

func (e *exchange) WriteHeader(status int) {
	if !e.wrote {
		e.status, e.wrote = status, true
	}
	e.w.WriteHeader(status)
}

func (e *exchange) Write(b []byte) (int, error) {
	e.wrote = true // net/http sends an implicit 200 on the first Write
	if e.capture {
		if len(e.buf)+len(b) > maxIdemBody {
			e.capture, e.buf = false, nil
		} else {
			e.buf = append(e.buf, b...)
		}
	}
	return e.w.Write(b)
}

// Flush implements http.Flusher when the connection's writer does, so
// streaming handlers keep working.
func (e *exchange) Flush() {
	if f, ok := e.w.(http.Flusher); ok {
		e.wrote = true
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the connection's writer.
func (e *exchange) Unwrap() http.ResponseWriter { return e.w }

// timeoutBody is what a request that ran out of -request-timeout is
// answered with.
const timeoutBody = `{"error":"dispatch: request timed out"}`

// timedOut reports whether -request-timeout has run out.
func (e *exchange) timedOut() bool {
	return !e.deadline.IsZero() && !time.Now().Before(e.deadline)
}

// answerTimeout sends the 503 of a request that timed out with nothing
// written.
func answerTimeout(w http.ResponseWriter) {
	w.WriteHeader(http.StatusServiceUnavailable)
	_, _ = io.WriteString(w, timeoutBody)
}

// exchangeKey is the context key an exchange answers to with itself, which
// is how RequestIDFromContext finds it from any context derived from a
// request's.
type exchangeKey struct{}

func (e *exchange) Value(key any) any {
	switch key.(type) {
	case exchangeKey:
		return e
	case trace.ContextKey:
		return &e.sh // the invalid handle when the request is untraced
	}
	return e.parent.Value(key)
}

func (e *exchange) Deadline() (time.Time, bool) {
	if e.deadline.IsZero() {
		return e.parent.Deadline()
	}
	return e.deadline, true
}

func (e *exchange) Done() <-chan struct{} { return e.cancellable().Done() }
func (e *exchange) Err() error            { return e.cancellable().Err() }

// cancellable returns the context that carries the request's
// cancellation: the parent's when there is no deadline, otherwise a
// deadline child of it, armed on first use.
func (e *exchange) cancellable() context.Context {
	if e.deadline.IsZero() {
		return e.parent
	}
	e.arm.Do(func() { e.armed, e.cancel = context.WithDeadline(e.parent, e.deadline) })
	return e.armed
}
