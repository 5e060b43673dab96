package dispatch

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"humancomp/internal/core"
	"humancomp/internal/store"
	"humancomp/internal/task"
)

// serveChain runs a middleware chain the way Server.ServeHTTP does: on an
// exchange over w that is also the request's context.
func serveChain(h handler, w http.ResponseWriter, r *http.Request) {
	e := newExchange(w, r)
	defer e.release()
	h(e, r.WithContext(e))
}

// TestRequestTimeout: a handler that honours its context and comes back
// past the deadline with nothing written is answered 503 with the
// timeout body, and the deadline context it waited on was armed for it
// alone.
func TestRequestTimeout(t *testing.T) {
	var armed bool
	h := withDeadline(10*time.Millisecond, func(e *exchange, r *http.Request) {
		armed = e.armed != nil
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
		if err := r.Context().Err(); err == nil {
			t.Error("context reports no error past its deadline")
		}
	})
	rec := httptest.NewRecorder()
	serveChain(h, rec, httptest.NewRequest(http.MethodGet, "/slow", nil))
	if rec.Code != http.StatusServiceUnavailable || rec.Body.String() != timeoutBody {
		t.Fatalf("got %d %q, want 503 %q", rec.Code, rec.Body.String(), timeoutBody)
	}
	if armed {
		t.Error("deadline context armed before anything asked for Done")
	}
}

// TestRequestTimeoutSemantics pins what -request-timeout is enforced on
// and what it is not.
func TestRequestTimeoutSemantics(t *testing.T) {
	t.Run("trickling body is cut off with 503", func(t *testing.T) {
		sys := core.New(core.DefaultConfig())
		srv := httptest.NewServer(NewServerWith(sys, Options{RequestTimeout: 50 * time.Millisecond}))
		t.Cleanup(srv.Close) // no ReadTimeout: only the request deadline can end the read
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		body := `{"kind":"label","payload":{"image_id":1},"redundancy":1,"priority":1}`
		fmt.Fprintf(conn, "POST /v1/tasks HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", len(body), body[:len(body)-1])
		start := time.Now()
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("no response to a stalled body: %v", err)
		}
		defer resp.Body.Close()
		got, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusServiceUnavailable || string(got) != timeoutBody {
			t.Fatalf("got %d %q after %v, want 503 %q", resp.StatusCode, got, time.Since(start), timeoutBody)
		}
		if n := sys.Store().Len(); n != 0 {
			t.Fatalf("store holds %d tasks after a request whose body never arrived", n)
		}
	})

	t.Run("late handler that ignores ctx reports its own outcome", func(t *testing.T) {
		h := withDeadline(5*time.Millisecond, func(w *exchange, _ *http.Request) {
			time.Sleep(30 * time.Millisecond)
			w.WriteHeader(http.StatusOK)
			_, _ = io.WriteString(w, "done")
		})
		rec := httptest.NewRecorder()
		serveChain(h, rec, httptest.NewRequest(http.MethodGet, "/late", nil))
		if rec.Code != http.StatusOK || rec.Body.String() != "done" {
			t.Fatalf("got %d %q, want the handler's 200", rec.Code, rec.Body.String())
		}
	})

	t.Run("session routes carry no deadline", func(t *testing.T) {
		const park = 150 * time.Millisecond
		_, _, _, client := newSessionTestStackWith(t, park, Options{RequestTimeout: 20 * time.Millisecond})
		start := time.Now()
		resp, err := http.Post(client.baseURL+"/v1/sessions/join", "application/json", strings.NewReader(`{"player":"lonely"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, _ := io.ReadAll(resp.Body)
		// A lone player is parked for the whole match timeout and then told
		// there is no partner; the request timeout has no say in either.
		if took := time.Since(start); took < park {
			t.Fatalf("join came back after %v, before the %v match timeout", took, park)
		}
		if string(got) == timeoutBody {
			t.Fatalf("parked join answered by the request timeout: %d %s", resp.StatusCode, got)
		}
	})

	t.Run("zero timeout arms nothing", func(t *testing.T) {
		h := withDeadline(0, func(e *exchange, r *http.Request) {
			if _, ok := r.Context().Deadline(); ok {
				t.Error("context has a deadline with the timeout disabled")
			}
			if r.Context().Done() != e.parent.Done() || e.armed != nil {
				t.Error("Done is not the connection context's own")
			}
			e.WriteHeader(http.StatusNoContent)
		})
		rec := httptest.NewRecorder()
		serveChain(h, rec, httptest.NewRequest(http.MethodGet, "/x", nil))
		if rec.Code != http.StatusNoContent {
			t.Fatalf("status %d, want 204", rec.Code)
		}
	})
}

// gateJournal blocks every append until released: a journal whose disk
// has stalled.
type gateJournal struct {
	entered chan struct{}
	release chan struct{}
}

func (j *gateJournal) WriteEvents([]store.Event) (int64, error) {
	j.entered <- struct{}{}
	<-j.release
	return 1, nil
}

func (j *gateJournal) WaitDurable(int64) (time.Duration, error) { return 0, nil }

// TestMaxInFlightBoundsStalledServer: a handler that outlives the request
// deadline in a call nothing can cancel keeps its shedder slot until it
// returns, so -max-inflight bounds a server whose journal has stalled, and
// the writes that were stuck report that they committed.
func TestMaxInFlightBoundsStalledServer(t *testing.T) {
	j := &gateJournal{entered: make(chan struct{}, 4), release: make(chan struct{})}
	cfg := core.DefaultConfig()
	cfg.Journal = j
	sys := core.New(cfg)
	const timeout = 20 * time.Millisecond
	srv := httptest.NewServer(NewServerWith(sys, Options{MaxInFlight: 2, RequestTimeout: timeout}))
	t.Cleanup(srv.Close)
	client := &http.Client{Timeout: 5 * time.Second}

	type result struct {
		status int
		retry  string
		id     task.ID
		err    error
	}
	submit := func() result {
		resp, err := client.Post(srv.URL+"/v1/tasks", "application/json",
			strings.NewReader(`{"kind":"label","payload":{"image_id":1},"redundancy":1,"priority":1}`))
		if err != nil {
			return result{err: err}
		}
		defer resp.Body.Close()
		var out SubmitResponse
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return result{status: resp.StatusCode, retry: resp.Header.Get("Retry-After"), id: out.ID}
	}
	stuck := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() { stuck <- submit() }()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-j.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("submits never reached the journal")
		}
	}
	time.Sleep(3 * timeout) // both are now well past the deadline, and still running

	if third := submit(); third.err != nil || third.status != http.StatusTooManyRequests || third.retry == "" {
		t.Fatalf("third submit with both slots stalled: %+v, want 429 with Retry-After", third)
	}
	close(j.release)
	a, b := <-stuck, <-stuck
	for _, r := range []result{a, b} {
		if r.err != nil || r.status != http.StatusCreated || r.id == 0 {
			t.Fatalf("stalled submit reported %+v, want 201 with its task ID", r)
		}
	}
	if a.id == b.id {
		t.Fatalf("both stalled submits report task %d", a.id)
	}
	resp, err := client.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats core.Stats
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil || stats.TasksSubmitted != 2 || stats.StoredTasks != 2 {
		t.Fatalf("stats after release: %+v (err %v), want exactly the two acknowledged tasks", stats, err)
	}
	if fourth := submit(); fourth.err != nil || fourth.status != http.StatusCreated {
		t.Fatalf("submit after release: %+v, want 201 (slots not freed)", fourth)
	}
}

// TestPooledExchangeIsolation hammers one server from 64 goroutines with
// every kind of request the chain treats differently, under two API keys
// whose Idempotency-Key values collide, and checks that nothing one
// request held reaches another through the pooled exchange.
func TestPooledExchangeIsolation(t *testing.T) {
	sys := core.New(core.DefaultConfig())
	s := NewServerWith(sys, Options{
		APIKeys:        []string{"key-a", "key-b"},
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
		RequestTimeout: 30 * time.Second,
		MaxInFlight:    1024,
	})
	guard := newAuthLimiter(Options{APIKeys: []string{"key-a", "key-b"}})
	s.mount("GET /v1/boom", guard.wrap(s.instrument("GET /v1/boom", func(*exchange, *http.Request) {
		panic("kaboom")
	})))
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	var seq atomic.Int64
	// call sends one request under a fresh X-Request-Id and fails the test
	// unless the response echoes it.
	call := func(method, path, key, idemKey, body string) (int, http.Header, []byte) {
		id := fmt.Sprintf("iso-%d", seq.Add(1))
		req, _ := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		req.Header.Set(requestIDHeader, id)
		if key != "" {
			req.Header.Set("Authorization", "Bearer "+key)
		}
		if idemKey != "" {
			req.Header.Set(idempotencyKeyHeader, idemKey)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Errorf("%s %s: %v", method, path, err)
			return 0, nil, nil
		}
		defer resp.Body.Close()
		got, _ := io.ReadAll(resp.Body)
		if echo := resp.Header.Get(requestIDHeader); echo != id {
			t.Errorf("%s %s sent request ID %q, response carries %q", method, path, id, echo)
		}
		if resp.StatusCode >= 400 {
			var env errorResponse
			if json.Unmarshal(got, &env) != nil || env.RequestID != id {
				t.Errorf("%s %s: %d envelope %s does not name request %q", method, path, resp.StatusCode, got, id)
			}
		}
		return resp.StatusCode, resp.Header, got
	}
	// One byte past the cap: the server reads all of it to find that out,
	// so the client is never cut off mid-write.
	oversized := strings.Repeat("x", maxSingleBody+1)

	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := []string{"key-a", "key-b"}[g%2]
			for i := 0; i < 6; i++ {
				// Both keys use the same Idempotency-Key values; the payload
				// says whose task it is.
				idem := fmt.Sprintf("collide-%d-%d", g/2, i)
				body := fmt.Sprintf(`{"kind":"label","payload":{"image_id":%d},"redundancy":1,"priority":1}`, 1000*(g%2+1)+i)
				status, _, first := call(http.MethodPost, "/v1/tasks", key, idem, body)
				if status != http.StatusCreated {
					t.Errorf("submit: %d %s", status, first)
					return
				}
				status, hdr, replay := call(http.MethodPost, "/v1/tasks", key, idem, body)
				if status != http.StatusCreated || hdr.Get(idempotentReplayHdr) != "true" || !bytes.Equal(replay, first) {
					t.Errorf("replay under %s: %d %s (replay=%q), want this caller's own %s",
						key, status, replay, hdr.Get(idempotentReplayHdr), first)
				}
				var sub SubmitResponse
				_ = json.Unmarshal(first, &sub)
				if status, _, got := call(http.MethodGet, fmt.Sprintf("/v1/tasks/%d", sub.ID), key, "", ""); status != http.StatusOK ||
					!bytes.Contains(got, []byte(fmt.Sprintf(`"image_id":%d`, 1000*(g%2+1)+i))) {
					t.Errorf("get-task %d under %s: %d %s", sub.ID, key, status, got)
				}
				status, _, got := call(http.MethodPost, "/v1/next", key, "", fmt.Sprintf(`{"worker_id":"w%d"}`, g))
				if status == http.StatusOK {
					var next NextResponse
					_ = json.Unmarshal(got, &next)
					if status, _, got := call(http.MethodPost, fmt.Sprintf("/v1/leases/%d", next.Lease), key, fmt.Sprintf("ans-%d-%d", g, i),
						`{"answer":{"words":[7]}}`); status != http.StatusNoContent {
						t.Errorf("answer: %d %s", status, got)
					}
				} else if status != http.StatusNoContent {
					t.Errorf("next: %d %s", status, got)
				}
				if status, _, got := call(http.MethodGet, "/v1/stats", "stolen", "", ""); status != http.StatusUnauthorized {
					t.Errorf("bad key: %d %s", status, got)
				}
				if i == 0 && g < 8 {
					if status, _, got := call(http.MethodPost, "/v1/tasks", key, "", oversized); status != http.StatusRequestEntityTooLarge {
						t.Errorf("oversized body: %d %.80s", status, got)
					}
				}
				if status, _, got := call(http.MethodGet, "/v1/boom", key, "", ""); status != http.StatusInternalServerError {
					t.Errorf("panicking route: %d %s", status, got)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := sys.Store().Len(); n != 64*6 {
		t.Errorf("store holds %d tasks, want one per first attempt (%d)", n, 64*6)
	}
}

// TestExchangeReleaseKeepsNothing: what goes back into the pool holds no
// request's ID, caller, span handle, deadline, captured body or capture
// buffer, however large a response grew it.
func TestExchangeReleaseKeepsNothing(t *testing.T) {
	e := newExchange(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/x", nil))
	e.scope, e.capture, e.deadline = "caller", true, time.Now().Add(time.Hour)
	_, _ = e.Write([]byte("secret"))
	e.body.WriteString("body")
	e.submit.Kind, e.next.WorkerID = "label", "w"
	_ = e.Done() // armed: release must cancel it
	armed := e.armed
	e.release()
	if armed.Err() == nil {
		t.Error("release left the armed deadline context running")
	}
	if e.buf != nil {
		t.Errorf("release kept a %d-byte capture buffer; the replay cache owns it", cap(e.buf))
	}
	if e.w != nil || e.parent != nil || e.id != "" || e.scope != "" || e.sh.Valid() || !e.deadline.IsZero() ||
		e.armed != nil || e.cancel != nil || e.status != 0 || e.wrote || e.capture ||
		e.body.Len() != 0 || e.submit.Kind != "" || e.next.WorkerID != "" {
		t.Error("released exchange still holds part of its request")
	}

	e = newExchange(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/x", nil))
	e.capture = true
	_, _ = e.Write(make([]byte, maxPooledBuf+1))
	e.release()
	if e.buf != nil {
		t.Errorf("release kept a %d-byte capture buffer", cap(e.buf))
	}
}

// TestAbortHandlerStillPanics: http.ErrAbortHandler is net/http's own
// signal and must reach it.
func TestAbortHandlerStillPanics(t *testing.T) {
	s := NewServer(core.New(core.DefaultConfig()))
	s.mount("GET /v1/abort", s.instrument("GET /v1/abort", func(*exchange, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer func() {
		if p := recover(); p != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want http.ErrAbortHandler re-panicked", p)
		}
	}()
	s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/abort", nil))
}
