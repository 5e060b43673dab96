package dispatch

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"humancomp/internal/core"
	"humancomp/internal/faultinject"
	"humancomp/internal/task"
)

// instantSleep replaces the client's backoff sleep so retry tests run in
// microseconds while still recording what the client asked to wait.
func instantSleep(c *Client, waits *[]time.Duration) {
	c.sleep = func(ctx context.Context, d time.Duration) error {
		*waits = append(*waits, d)
		return ctx.Err()
	}
}

// TestClientRetriesTransientStatus exercises the retry loop end to end: a
// server that fails twice with 503 and then succeeds must look like one
// successful call to the caller.
func TestClientRetriesTransientStatus(t *testing.T) {
	sys := core.New(core.DefaultConfig())
	api := NewServer(sys)
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "upstream hiccup", http.StatusServiceUnavailable)
			return
		}
		api.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := NewResilientClient(srv.URL, nil)
	var waits []time.Duration
	instantSleep(c, &waits)

	id, err := c.Submit(task.Label, task.Payload{ImageID: 7}, 1, 0)
	if err != nil {
		t.Fatalf("submit through flaky server: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	if len(waits) != 2 {
		t.Fatalf("slept %d times, want 2", len(waits))
	}
	if _, err := sys.Task(id); err != nil {
		t.Fatalf("submitted task missing: %v", err)
	}
}

// TestClientHonorsRetryAfter: the Retry-After hint is a floor under the
// jittered backoff, so a 2-second hint must never produce a shorter wait.
func TestClientHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "2")
			http.Error(w, "busy", http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{}`)
	}))
	defer srv.Close()

	c := NewResilientClient(srv.URL, nil)
	var waits []time.Duration
	instantSleep(c, &waits)

	if _, err := c.Stats(); err != nil {
		t.Fatalf("stats call failed after retry: %v", err)
	}
	if len(waits) != 1 {
		t.Fatalf("slept %d times, want 1", len(waits))
	}
	if waits[0] < 2*time.Second {
		t.Fatalf("waited %v, want >= 2s (Retry-After floor)", waits[0])
	}
}

// TestClientIdempotencyKeyStableAcrossRetries pins the contract that makes
// retried mutations safe and attributable: one logical Submit keeps one
// Idempotency-Key AND one X-Request-Id across every attempt, so server logs
// group a logical call's attempts under a single request ID.
func TestClientIdempotencyKeyStableAcrossRetries(t *testing.T) {
	sys := core.New(core.DefaultConfig())
	api := NewServer(sys)
	var calls atomic.Int32
	var keys, reqIDs []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		keys = append(keys, r.Header.Get(idempotencyKeyHeader))
		reqIDs = append(reqIDs, r.Header.Get("X-Request-Id"))
		if calls.Add(1) == 1 {
			http.Error(w, "hiccup", http.StatusBadGateway)
			return
		}
		api.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := NewResilientClient(srv.URL, nil)
	var waits []time.Duration
	instantSleep(c, &waits)

	if _, err := c.Submit(task.Label, task.Payload{ImageID: 1}, 1, 0); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if len(keys) != 2 {
		t.Fatalf("saw %d attempts, want 2", len(keys))
	}
	if keys[0] == "" || keys[0] != keys[1] {
		t.Fatalf("idempotency key not constant across retries: %q vs %q", keys[0], keys[1])
	}
	if reqIDs[0] == "" || reqIDs[0] != reqIDs[1] {
		t.Fatalf("request ID not constant across attempts: %q vs %q", reqIDs[0], reqIDs[1])
	}

	// A second logical call must get a different key.
	keys = keys[:0]
	calls.Store(1) // skip the failure branch
	if _, err := c.Submit(task.Label, task.Payload{ImageID: 2}, 1, 0); err != nil {
		t.Fatalf("second submit: %v", err)
	}
	if len(keys) != 1 || keys[0] == "" {
		t.Fatalf("second call attempts: %v", keys)
	}
}

// TestClientContextCancelStopsRetries: a cancelled context ends the retry
// loop immediately instead of burning the remaining attempts.
func TestClientContextCancelStopsRetries(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c := NewResilientClient(srv.URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	c.sleep = func(ctx context.Context, _ time.Duration) error {
		cancel() // the deadline passes while waiting to retry
		return context.Canceled
	}
	_, err := c.SubmitContext(ctx, task.Label, task.Payload{}, 1, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("attempts after cancel = %d, want 1", got)
	}
}

// TestClientNoRetryOnClientError: 4xx responses other than 429 are the
// caller's bug, not the network's — exactly one attempt.
func TestClientNoRetryOnClientError(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"bad"}`, http.StatusBadRequest)
	}))
	defer srv.Close()

	c := NewResilientClient(srv.URL, nil)
	var waits []time.Duration
	instantSleep(c, &waits)
	var apiErr *APIError
	if _, err := c.Submit(task.Label, task.Payload{}, 1, 0); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want APIError 400", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1", got)
	}
}

// TestIdempotentReplayOverHTTP: two POSTs with the same Idempotency-Key
// create one task; the second response is byte-identical and flagged as a
// replay.
func TestIdempotentReplayOverHTTP(t *testing.T) {
	sys := core.New(core.DefaultConfig())
	srv := httptest.NewServer(NewServer(sys))
	defer srv.Close()

	post := func() (*http.Response, string) {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/tasks",
			strings.NewReader(`{"kind":"label","payload":{"image_id":1},"redundancy":1}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(idempotencyKeyHeader, "same-key-123")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(body)
	}

	r1, b1 := post()
	r2, b2 := post()
	if r1.StatusCode != http.StatusCreated || r2.StatusCode != http.StatusCreated {
		t.Fatalf("statuses %d/%d, want 201/201", r1.StatusCode, r2.StatusCode)
	}
	if b1 != b2 {
		t.Fatalf("replayed body differs:\n first: %s\nsecond: %s", b1, b2)
	}
	if r1.Header.Get(idempotentReplayHdr) != "" {
		t.Fatal("first response marked as replay")
	}
	if r2.Header.Get(idempotentReplayHdr) != "true" {
		t.Fatal("second response not marked as replay")
	}
	if got := sys.Store().Len(); got != 1 {
		t.Fatalf("store holds %d tasks, want 1", got)
	}
}

// TestIdempotentRetryAfterDroppedResponse is the acceptance scenario from
// the fault matrix: the server performs the submit but the client never
// hears the response. The resilient client's retry, carrying the same
// Idempotency-Key, must return the original task ID — one task total.
func TestIdempotentRetryAfterDroppedResponse(t *testing.T) {
	sys := core.New(core.DefaultConfig())
	api := NewServer(sys)
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		api.ServeHTTP(w, r)
	}))
	defer srv.Close()

	rt := faultinject.NewRoundTripper(nil, faultinject.Schedule{
		1: {Kind: faultinject.DropResponse},
	})
	c := NewResilientClient(srv.URL, &http.Client{Transport: rt})
	var waits []time.Duration
	instantSleep(c, &waits)

	id, err := c.Submit(task.Label, task.Payload{ImageID: 9}, 1, 0)
	if err != nil {
		t.Fatalf("submit through lossy transport: %v", err)
	}
	if got := sys.Store().Len(); got != 1 {
		t.Fatalf("store holds %d tasks after retried submit, want 1", got)
	}
	if _, err := sys.Task(id); err != nil {
		t.Fatalf("returned ID %d not the stored task: %v", id, err)
	}
	if n := hits.Load(); n != 2 {
		t.Fatalf("server saw %d requests, want 2", n)
	}
}

// TestIdemCacheEviction: the replay cache is bounded LRU, first-writer
// wins per key.
func TestIdemCacheEviction(t *testing.T) {
	c := newIdemCache(2)
	c.put(&idemResponse{key: "a", status: 201, body: []byte("1")})
	c.put(&idemResponse{key: "b", status: 201, body: []byte("2")})
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	c.put(&idemResponse{key: "c", status: 201, body: []byte("3")})
	// "b" was least recently used (the get refreshed "a").
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a lost")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c lost")
	}
	c.put(&idemResponse{key: "a", status: 200, body: []byte("other")})
	if got, _ := c.get("a"); string(got.body) != "1" {
		t.Fatalf("first-writer-wins violated: %q", got.body)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

// TestOverloadShedding: a route at its concurrency cap rejects the next
// request immediately with 429 + Retry-After instead of queueing it.
func TestOverloadShedding(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	sh := newShedder(1)
	h := sh.wrap(func(w *exchange, _ *http.Request) {
		once.Do(func() { close(entered) })
		<-release
		w.WriteHeader(http.StatusOK)
	})

	first := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		serveChain(h, first, httptest.NewRequest(http.MethodGet, "/x", nil))
		close(done)
	}()
	<-entered
	if got := sh.inFlight(); got != 1 {
		t.Fatalf("inFlight = %d, want 1", got)
	}

	second := httptest.NewRecorder()
	serveChain(h, second, httptest.NewRequest(http.MethodGet, "/x", nil))
	if second.Code != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429", second.Code)
	}
	if second.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	close(release)
	<-done
	if first.Code != http.StatusOK {
		t.Fatalf("admitted request status = %d, want 200", first.Code)
	}

	third := httptest.NewRecorder()
	serveChain(h, third, httptest.NewRequest(http.MethodGet, "/x", nil))
	if third.Code != http.StatusOK {
		t.Fatalf("post-release status = %d, want 200 (slot not freed)", third.Code)
	}
}

// TestRetryableStatusTable pins which statuses the client treats as
// transient.
func TestRetryableStatusTable(t *testing.T) {
	for status, want := range map[int]bool{
		http.StatusTooManyRequests:     true,
		http.StatusBadGateway:          true,
		http.StatusServiceUnavailable:  true,
		http.StatusGatewayTimeout:      true,
		http.StatusOK:                  false,
		http.StatusBadRequest:          false,
		http.StatusNotFound:            false,
		http.StatusConflict:            false,
		http.StatusInternalServerError: false,
	} {
		if got := retryableStatus(status); got != want {
			t.Errorf("retryableStatus(%d) = %v, want %v", status, got, want)
		}
	}
}

// TestParseRetryAfter covers the seconds and HTTP-date forms.
func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("3"); d != 3*time.Second {
		t.Fatalf("seconds form: %v", d)
	}
	future := time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(future); d < 8*time.Second || d > 10*time.Second {
		t.Fatalf("date form: %v", d)
	}
	if d := parseRetryAfter(""); d != 0 {
		t.Fatalf("empty: %v", d)
	}
	if d := parseRetryAfter("soon"); d != 0 {
		t.Fatalf("garbage: %v", d)
	}
}

// TestClientClampsHostileRetryAfter: a Retry-After hint far past the
// policy's MaxDelay is advice, not authority — the honored floor is capped
// at maxRetryAfterFactor x MaxDelay so a buggy `Retry-After: 86400` cannot
// park the client for a day.
func TestClientClampsHostileRetryAfter(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "86400") // one day
			http.Error(w, "busy", http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{}`)
	}))
	defer srv.Close()

	maxDelay := 200 * time.Millisecond
	c := NewClientWith(srv.URL, nil, ClientOptions{Retry: RetryPolicy{
		MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: maxDelay,
	}})
	var waits []time.Duration
	instantSleep(c, &waits)

	if _, err := c.Stats(); err != nil {
		t.Fatalf("stats call failed after retry: %v", err)
	}
	if len(waits) != 1 {
		t.Fatalf("slept %d times, want 1", len(waits))
	}
	if cap := time.Duration(maxRetryAfterFactor) * maxDelay; waits[0] > cap {
		t.Fatalf("waited %v, want <= %v (clamped Retry-After)", waits[0], cap)
	}
	// The hint still acts as a floor up to the cap.
	if waits[0] < maxDelay {
		t.Fatalf("waited %v, want >= MaxDelay %v", waits[0], maxDelay)
	}
}
