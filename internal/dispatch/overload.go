package dispatch

import (
	"net/http"
	"time"
)

// shedder is a per-route concurrency limiter: requests beyond the cap are
// shed immediately with 429 and a Retry-After hint instead of queueing,
// so a traffic spike degrades into fast, retryable rejections rather than
// a convoy of slow requests holding every connection open.
type shedder struct {
	sem chan struct{}
}

// newShedder returns a limiter admitting up to n concurrent requests, or
// nil (no limiting) for n <= 0.
func newShedder(n int) *shedder {
	if n <= 0 {
		return nil
	}
	return &shedder{sem: make(chan struct{}, n)}
}

// wrap guards next with the concurrency cap. A slot is held until next
// returns, whatever the request's deadline says: a handler that is still
// running is still load.
func (s *shedder) wrap(next handler) handler {
	if s == nil {
		return next
	}
	return func(e *exchange, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
			next(e, r)
		default:
			e.Header().Set("Retry-After", "1")
			writeJSON(e, http.StatusTooManyRequests, errorResponse{
				Error: "dispatch: server overloaded, retry later", RequestID: e.id})
		}
	}
}

// inFlight returns the number of requests currently admitted.
func (s *shedder) inFlight() int {
	if s == nil {
		return 0
	}
	return len(s.sem)
}

// withDeadline gives the request d to finish in. Nothing watches the
// clock while next runs on the connection's goroutine: the deadline is
// what the request's context reports (an operation that honours ctx gives
// up at it), what readBody sets the connection's read deadline to, and
// what a handler that comes back past it with nothing written is answered
// 503 by. A handler stuck past it in a call that cannot be cancelled
// reports its real outcome when it returns. d <= 0 sets no deadline.
func withDeadline(d time.Duration, next handler) handler {
	if d <= 0 {
		return next
	}
	return func(e *exchange, r *http.Request) {
		e.deadline = time.Now().Add(d)
		next(e, r)
		if !e.wrote && e.timedOut() {
			answerTimeout(e)
		}
	}
}
