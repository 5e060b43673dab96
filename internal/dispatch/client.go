package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"time"

	"humancomp/internal/core"
	"humancomp/internal/queue"
	"humancomp/internal/task"
	"humancomp/internal/trace"
)

// ErrNoTask is returned by Next when the queue has nothing for the worker.
var ErrNoTask = errors.New("dispatch: no task available")

// APIError is a non-2xx response from the service. RequestID is the
// X-Request-Id the failing exchange ran under — quote it when reporting
// the failure and the server-side log line is one grep away.
type APIError struct {
	Status    int
	Message   string
	RequestID string
	// Leader is the base URL from a 503 response's X-Leader header: the
	// node that can take the write this one (a replication follower)
	// refused. The retry loop follows it transparently once per logical
	// call.
	Leader string

	// retryAfter carries the response's parsed Retry-After hint into the
	// retry loop.
	retryAfter time.Duration
}

// Error implements the error interface.
func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("dispatch: server returned %d: %s (request %s)", e.Status, e.Message, e.RequestID)
	}
	return fmt.Sprintf("dispatch: server returned %d: %s", e.Status, e.Message)
}

// RetryPolicy configures the client's retry loop. Retries fire only on
// transport errors and on 429/502/503/504 responses — the statuses that
// mean "not now", never on application errors — with exponential backoff,
// full jitter, and the server's Retry-After honored as a lower bound.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first attempt included).
	// Values below 2 disable retries.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff; 0 selects 100ms.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep; 0 selects 5s.
	MaxDelay time.Duration
}

// DefaultRetry is the policy NewResilientClient installs: four attempts,
// 100ms base, 5s cap.
var DefaultRetry = RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second}

// ClientOptions configures optional client behavior.
type ClientOptions struct {
	// Retry selects the retry policy; the zero value performs exactly one
	// attempt per call.
	Retry RetryPolicy
	// Trace, when set, sends a W3C traceparent header on every request:
	// one trace ID per logical call — constant across its retries — and a
	// fresh span ID per attempt, so the server's span trees stitch all
	// attempts of one call into a single distributed trace.
	Trace bool
}

// Client is a typed client for the dispatch API. Every logical call
// carries a generated X-Request-Id that stays constant across its
// retries, so all attempts of one call — and their server-side log lines
// — share one identity. Submit and Answer calls additionally carry an
// Idempotency-Key with the same per-call lifetime, so a retried
// submission can never create a second task and a retried answer can
// never be double-counted. With ClientOptions.Trace, calls also carry a
// W3C traceparent (one trace ID per call, a fresh span ID per attempt).
type Client struct {
	baseURL string
	http    *http.Client
	retry   RetryPolicy
	// newID overrides request-ID generation; tests pin it for
	// deterministic propagation checks.
	newID func() string
	// newIdemKey overrides idempotency-key generation (one key per
	// logical mutating call, constant across its retries).
	newIdemKey func() string
	// sleep waits between attempts; tests replace it to run instantly.
	sleep func(ctx context.Context, d time.Duration) error
	// injectTrace mirrors ClientOptions.Trace.
	injectTrace bool
	// newTraceID/newSpanID override trace identifier generation; tests
	// pin them for deterministic propagation checks.
	newTraceID func() trace.TraceID
	newSpanID  func() trace.SpanID
}

// NewTransport returns an http.Transport tuned for the dispatch wire
// protocol: many small concurrent JSON exchanges against a handful of
// hosts. The defaults in http.DefaultTransport cap idle keep-alive
// connections at 2 per host, so any client driving real concurrency
// tears down and redials connections constantly — every request past the
// second pays a TCP (and TLS) handshake. This transport keeps a deep idle
// pool per host so steady-state traffic reuses connections.
func NewTransport() *http.Transport {
	return &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		ForceAttemptHTTP2:     true,
		MaxIdleConns:          1024,
		MaxIdleConnsPerHost:   256,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   10 * time.Second,
		ExpectContinueTimeout: time.Second,
	}
}

// defaultClient is the process-wide HTTP client used when callers pass a
// nil *http.Client: one shared tuned transport, so every dispatch.Client
// in the process draws from the same keep-alive connection pool instead of
// fragmenting it.
var defaultClient = &http.Client{Transport: NewTransport()}

// NewClient returns a client for the service at baseURL (no trailing
// slash). A nil httpClient selects defaultClient — a shared client
// over a transport tuned for connection reuse (keep-alives,
// MaxIdleConnsPerHost raised past the stdlib's 2). The client performs no
// retries; see NewClientWith / NewResilientClient.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	return NewClientWith(baseURL, httpClient, ClientOptions{})
}

// NewResilientClient returns a client with the default retry policy.
func NewResilientClient(baseURL string, httpClient *http.Client) *Client {
	return NewClientWith(baseURL, httpClient, ClientOptions{Retry: DefaultRetry})
}

// NewClientWith returns a client with explicit options.
func NewClientWith(baseURL string, httpClient *http.Client, opts ClientOptions) *Client {
	if httpClient == nil {
		httpClient = defaultClient
	}
	return &Client{
		baseURL:     baseURL,
		http:        httpClient,
		retry:       opts.Retry,
		newID:       newRequestID,
		newIdemKey:  newRequestID,
		sleep:       sleepCtx,
		injectTrace: opts.Trace,
		newTraceID:  trace.NewTraceID,
		newSpanID:   trace.NewSpanID,
	}
}

// sleepCtx waits d or until the context ends, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryableStatus reports whether an HTTP status signals a transient
// condition worth retrying.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// parseRetryAfter decodes a Retry-After header: delta-seconds or an HTTP
// date. 0 means absent or unusable.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(h); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// maxRetryAfterFactor caps how far a server's Retry-After hint can push a
// sleep past the policy's MaxDelay. A hostile or buggy `Retry-After:
// 86400` must not park the client for a day: the hint is advice about
// congestion, not authority over the caller's latency budget.
const maxRetryAfterFactor = 2

// backoff computes the sleep before attempt number `next` (1-based over
// retries): full jitter over an exponentially growing window, floored at
// the server's Retry-After when one was given. The honored hint is
// clamped to maxRetryAfterFactor × MaxDelay.
func (c *Client) backoff(next int, retryAfter time.Duration) time.Duration {
	base := c.retry.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxd := c.retry.MaxDelay
	if maxd <= 0 {
		maxd = 5 * time.Second
	}
	if cap := maxRetryAfterFactor * maxd; retryAfter > cap {
		retryAfter = cap
	}
	window := base << (next - 1)
	if window > maxd || window <= 0 {
		window = maxd
	}
	d := time.Duration(rand.Float64() * float64(window))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// do runs one logical API call: marshal once, then attempt the exchange up
// to MaxAttempts times. The request body is a rewindable bytes.Reader
// rebuilt per attempt, and every response body is drained and closed so
// the transport can reuse connections across retries. The call's identity
// headers are generated once per logical call: the X-Request-Id and (when
// tracing) the trace ID are constant across retries, so every attempt of
// one call shares a log and trace identity; only the traceparent span ID
// is fresh per attempt, distinguishing the attempts within the trace.
func (c *Client) do(ctx context.Context, method, path string, in, out any, idemKey string) (int, error) {
	var payload []byte
	if in != nil {
		var err error
		payload, err = json.Marshal(in)
		if err != nil {
			return 0, fmt.Errorf("dispatch: encoding request: %w", err)
		}
	}
	requestID := c.newID()
	var traceID trace.TraceID
	if c.injectTrace {
		traceID = c.newTraceID()
	}
	return c.doAttempts(ctx, method, path, payload, out, idemKey, requestID, traceID)
}

// doAttempts is do's retry loop, after the per-call identity is fixed. A
// 503 whose X-Leader header names another node re-routes the call there —
// once per logical call, consuming no attempt and no backoff sleep — with
// the same request ID and idempotency key, so a write that raced a
// failover lands exactly once wherever it ends up.
func (c *Client) doAttempts(ctx context.Context, method, path string, payload []byte, out any, idemKey, requestID string, traceID trace.TraceID) (int, error) {
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	base := c.baseURL
	rerouted := false
	var (
		status  int
		lastErr error
	)
	for attempt := 0; ; {
		traceParent := ""
		if c.injectTrace {
			traceParent = trace.FormatTraceParent(traceID, c.newSpanID())
		}
		var retryable bool
		status, retryable, lastErr = c.attempt(ctx, base, method, path, payload, out, idemKey, requestID, traceParent)
		if lastErr == nil || !retryable {
			return status, lastErr
		}
		if ctx.Err() != nil {
			return status, lastErr
		}
		if !rerouted {
			var apiErr *APIError
			if errors.As(lastErr, &apiErr) && apiErr.Status == http.StatusServiceUnavailable &&
				apiErr.Leader != "" && apiErr.Leader != base {
				base = apiErr.Leader
				rerouted = true
				continue
			}
		}
		attempt++
		if attempt >= attempts {
			return status, lastErr
		}
		retryAfter := time.Duration(0)
		var apiErr *APIError
		if errors.As(lastErr, &apiErr) {
			retryAfter = apiErr.retryAfter
		}
		if err := c.sleep(ctx, c.backoff(attempt, retryAfter)); err != nil {
			// Joined so callers can match either the cancellation or
			// the underlying failure that was being retried.
			return status, errors.Join(err, lastErr)
		}
	}
}

// attempt performs one HTTP exchange against base.
func (c *Client) attempt(ctx context.Context, base, method, path string, payload []byte, out any, idemKey, requestID, traceParent string) (status int, retryable bool, err error) {
	var body io.Reader
	if payload != nil {
		// *bytes.Reader makes net/http set ContentLength and GetBody, so
		// the transport can replay the body after a dropped connection.
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, body)
	if err != nil {
		return 0, false, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(requestIDHeader, requestID)
	if traceParent != "" {
		req.Header.Set(traceParentHeader, traceParent)
	}
	if idemKey != "" {
		req.Header.Set(idempotencyKeyHeader, idemKey)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		// Transport-level failure: retryable unless the context ended.
		return 0, ctx.Err() == nil, err
	}
	defer func() {
		// Drain before closing so the keep-alive connection is reusable
		// by the next attempt.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode >= 400 {
		var apiErr errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&apiErr)
		rid := apiErr.RequestID
		if rid == "" {
			rid = resp.Header.Get(requestIDHeader)
		}
		e := &APIError{
			Status:     resp.StatusCode,
			Message:    apiErr.Error,
			RequestID:  rid,
			Leader:     resp.Header.Get("X-Leader"),
			retryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
		return resp.StatusCode, retryableStatus(resp.StatusCode), e
	}
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, false, fmt.Errorf("dispatch: decoding response: %w", err)
		}
	}
	return resp.StatusCode, false, nil
}

// SubmitContext creates a task and returns its ID. The call carries an
// idempotency key: if it is retried (by this client or after a dropped
// response), the service replays the original response instead of creating
// a second task.
func (c *Client) SubmitContext(ctx context.Context, kind task.Kind, p task.Payload, redundancy, priority int) (task.ID, error) {
	req := SubmitRequest{Kind: kind.String(), Payload: p, Redundancy: redundancy, Priority: priority}
	var resp SubmitResponse
	if _, err := c.do(ctx, http.MethodPost, "/v1/tasks", req, &resp, c.newIdemKey()); err != nil {
		return 0, err
	}
	return resp.ID, nil
}

// Submit creates a task and returns its ID.
func (c *Client) Submit(kind task.Kind, p task.Payload, redundancy, priority int) (task.ID, error) {
	return c.SubmitContext(context.Background(), kind, p, redundancy, priority)
}

// SubmitGoldContext creates a gold probe task with a known expected answer.
func (c *Client) SubmitGoldContext(ctx context.Context, kind task.Kind, p task.Payload, redundancy, priority int, expected task.Answer) (task.ID, error) {
	req := SubmitRequest{
		Kind: kind.String(), Payload: p, Redundancy: redundancy, Priority: priority,
		Gold: true, Expected: &expected,
	}
	var resp SubmitResponse
	if _, err := c.do(ctx, http.MethodPost, "/v1/tasks", req, &resp, c.newIdemKey()); err != nil {
		return 0, err
	}
	return resp.ID, nil
}

// SubmitGold creates a gold probe task with a known expected answer.
func (c *Client) SubmitGold(kind task.Kind, p task.Payload, redundancy, priority int, expected task.Answer) (task.ID, error) {
	return c.SubmitGoldContext(context.Background(), kind, p, redundancy, priority, expected)
}

// SubmitBatchContext submits up to 256 tasks in one request. The returned
// results are index-aligned with reqs; each item carries the status and ID
// or error the equivalent single Submit would have produced. The whole
// batch travels under one Idempotency-Key, so a retried batch (by this
// client or after a dropped response) is replayed atomically — the exact
// per-item outcomes of the first completed attempt, never a second
// execution of any item.
func (c *Client) SubmitBatchContext(ctx context.Context, reqs []SubmitRequest) ([]BatchSubmitResult, error) {
	var resp BatchSubmitResponse
	if _, err := c.do(ctx, http.MethodPost, "/v1/tasks:batch", BatchSubmitRequest{Tasks: reqs}, &resp, c.newIdemKey()); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// SubmitBatch submits up to 256 tasks in one request.
func (c *Client) SubmitBatch(reqs []SubmitRequest) ([]BatchSubmitResult, error) {
	return c.SubmitBatchContext(context.Background(), reqs)
}

// NextBatchContext leases up to max tasks for workerID in one request. An
// empty result means nothing was available (no error, unlike Next).
func (c *Client) NextBatchContext(ctx context.Context, workerID string, max int) ([]NextResponse, error) {
	var resp BatchNextResponse
	req := BatchNextRequest{WorkerID: workerID, Max: max}
	if _, err := c.do(ctx, http.MethodPost, "/v1/leases:batch", req, &resp, ""); err != nil {
		return nil, err
	}
	return resp.Leases, nil
}

// NextBatch leases up to max tasks for workerID in one request.
func (c *Client) NextBatch(workerID string, max int) ([]NextResponse, error) {
	return c.NextBatchContext(context.Background(), workerID, max)
}

// AnswerBatchContext answers up to 256 leases in one request, atomically
// idempotent across retries (one key covers the whole batch). Results are
// index-aligned with items.
func (c *Client) AnswerBatchContext(ctx context.Context, items []BatchAnswerItem) ([]BatchItemStatus, error) {
	var resp BatchAnswerResponse
	if _, err := c.do(ctx, http.MethodPost, "/v1/leases:answers", BatchAnswerRequest{Answers: items}, &resp, c.newIdemKey()); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// AnswerBatch answers up to 256 leases in one request.
func (c *Client) AnswerBatch(items []BatchAnswerItem) ([]BatchItemStatus, error) {
	return c.AnswerBatchContext(context.Background(), items)
}

// NextContext leases the next available task for workerID, returning a
// snapshot of it. It returns ErrNoTask when nothing is available.
func (c *Client) NextContext(ctx context.Context, workerID string) (task.View, queue.LeaseID, error) {
	var resp NextResponse
	status, err := c.do(ctx, http.MethodPost, "/v1/next", NextRequest{WorkerID: workerID}, &resp, "")
	if err != nil {
		return task.View{}, 0, err
	}
	if status == http.StatusNoContent {
		return task.View{}, 0, ErrNoTask
	}
	return resp.Task, resp.Lease, nil
}

// Next leases the next available task for workerID, returning a snapshot
// of it. It returns ErrNoTask when nothing is available.
func (c *Client) Next(workerID string) (task.View, queue.LeaseID, error) {
	return c.NextContext(context.Background(), workerID)
}

// AnswerContext submits the answer for a lease, idempotently across
// retries.
func (c *Client) AnswerContext(ctx context.Context, lease queue.LeaseID, a task.Answer) error {
	_, err := c.do(ctx, http.MethodPost, fmt.Sprintf("/v1/leases/%d", lease), AnswerRequest{Answer: a}, nil, c.newIdemKey())
	return err
}

// Answer submits the answer for a lease.
func (c *Client) Answer(lease queue.LeaseID, a task.Answer) error {
	return c.AnswerContext(context.Background(), lease, a)
}

// ReleaseContext returns a lease unanswered.
func (c *Client) ReleaseContext(ctx context.Context, lease queue.LeaseID) error {
	_, err := c.do(ctx, http.MethodDelete, fmt.Sprintf("/v1/leases/%d", lease), nil, nil, "")
	return err
}

// Release returns a lease unanswered.
func (c *Client) Release(lease queue.LeaseID) error {
	return c.ReleaseContext(context.Background(), lease)
}

// TaskContext fetches a snapshot of a task with its answers.
func (c *Client) TaskContext(ctx context.Context, id task.ID) (task.View, error) {
	var t task.View
	if _, err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/tasks/%d", id), nil, &t, ""); err != nil {
		return task.View{}, err
	}
	return t, nil
}

// Task fetches a snapshot of a task with its answers.
func (c *Client) Task(id task.ID) (task.View, error) {
	return c.TaskContext(context.Background(), id)
}

// CancelContext cancels an open task.
func (c *Client) CancelContext(ctx context.Context, id task.ID) error {
	_, err := c.do(ctx, http.MethodDelete, fmt.Sprintf("/v1/tasks/%d", id), nil, nil, "")
	return err
}

// Cancel cancels an open task.
func (c *Client) Cancel(id task.ID) error {
	return c.CancelContext(context.Background(), id)
}

// PosteriorContext fetches the online estimator's class posterior and
// confidence for a choice task.
func (c *Client) PosteriorContext(ctx context.Context, id task.ID) (core.PosteriorInfo, error) {
	var out core.PosteriorInfo
	if _, err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/tasks/%d/posterior", id), nil, &out, ""); err != nil {
		return core.PosteriorInfo{}, err
	}
	return out, nil
}

// Posterior fetches the online estimator's class posterior and confidence
// for a choice task.
func (c *Client) Posterior(id task.ID) (core.PosteriorInfo, error) {
	return c.PosteriorContext(context.Background(), id)
}

// TraceContext fetches the retained lifecycle events of a task, oldest
// first.
func (c *Client) TraceContext(ctx context.Context, id task.ID) (TraceResponse, error) {
	var out TraceResponse
	if _, err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/tasks/%d/trace", id), nil, &out, ""); err != nil {
		return TraceResponse{}, err
	}
	return out, nil
}

// Trace fetches the retained lifecycle events of a task, oldest first.
func (c *Client) Trace(id task.ID) (TraceResponse, error) {
	return c.TraceContext(context.Background(), id)
}

// WordsContext fetches the aggregated word votes of a label/describe task.
func (c *Client) WordsContext(ctx context.Context, id task.ID) ([]core.WordCount, error) {
	var out []core.WordCount
	if _, err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/tasks/%d/words", id), nil, &out, ""); err != nil {
		return nil, err
	}
	return out, nil
}

// Words fetches the aggregated word votes of a label/describe task.
func (c *Client) Words(id task.ID) ([]core.WordCount, error) {
	return c.WordsContext(context.Background(), id)
}

// ChoiceContext fetches the aggregated choice of a compare/judge task.
func (c *Client) ChoiceContext(ctx context.Context, id task.ID) (core.ChoiceResult, error) {
	var out core.ChoiceResult
	if _, err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/tasks/%d/choice", id), nil, &out, ""); err != nil {
		return core.ChoiceResult{}, err
	}
	return out, nil
}

// Choice fetches the aggregated choice of a compare/judge task.
func (c *Client) Choice(id task.ID) (core.ChoiceResult, error) {
	return c.ChoiceContext(context.Background(), id)
}

// StatsContext fetches system counters.
func (c *Client) StatsContext(ctx context.Context) (core.Stats, error) {
	var out core.Stats
	if _, err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out, ""); err != nil {
		return core.Stats{}, err
	}
	return out, nil
}

// Stats fetches system counters.
func (c *Client) Stats() (core.Stats, error) {
	return c.StatsContext(context.Background())
}

// HealthyContext reports whether the service answers its liveness probe.
func (c *Client) HealthyContext(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// Healthy reports whether the service answers its liveness probe.
func (c *Client) Healthy() bool { return c.HealthyContext(context.Background()) }

// MetricsContext fetches per-endpoint request metrics from the service.
func (c *Client) MetricsContext(ctx context.Context) ([]RouteMetrics, error) {
	var out []RouteMetrics
	if _, err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, &out, ""); err != nil {
		return nil, err
	}
	return out, nil
}

// Metrics fetches per-endpoint request metrics from the service.
func (c *Client) Metrics() ([]RouteMetrics, error) {
	return c.MetricsContext(context.Background())
}

// ListTasksContext fetches a page of tasks, optionally filtered by status
// ("open", "done", "canceled"; empty for all).
func (c *Client) ListTasksContext(ctx context.Context, status string, offset, limit int) (TaskList, error) {
	path := fmt.Sprintf("/v1/tasks?offset=%d&limit=%d", offset, limit)
	if status != "" {
		path += "&status=" + status
	}
	var out TaskList
	if _, err := c.do(ctx, http.MethodGet, path, nil, &out, ""); err != nil {
		return TaskList{}, err
	}
	return out, nil
}

// ListTasks fetches a page of tasks, optionally filtered by status
// ("open", "done", "canceled"; empty for all).
func (c *Client) ListTasks(status string, offset, limit int) (TaskList, error) {
	return c.ListTasksContext(context.Background(), status, offset, limit)
}
