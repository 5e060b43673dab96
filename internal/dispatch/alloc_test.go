package dispatch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"reflect"
	"testing"
	"time"

	"humancomp/internal/core"
	"humancomp/internal/jsonx"
	"humancomp/internal/task"
	"humancomp/internal/trace"
)

// memWriter is an http.ResponseWriter into memory, reused across calls, so
// the allocation gate prices the server and not a recorder.
type memWriter struct {
	h      http.Header
	status int
	buf    bytes.Buffer
}

func (m *memWriter) Header() http.Header { return m.h }
func (m *memWriter) WriteHeader(s int) {
	if m.status == 0 {
		m.status = s
	}
}
func (m *memWriter) Write(b []byte) (int, error) {
	if m.status == 0 {
		m.status = http.StatusOK
	}
	return m.buf.Write(b)
}

func (m *memWriter) reset() {
	clear(m.h)
	m.status = 0
	m.buf.Reset()
}

// TestRouteAllocCeilings is the host-independent half of the request-path
// budget: allocations per request on the four hot routes, in process, at
// the options hcservd runs with (API key, text request log at info,
// 30 s request timeout, 1024 in flight, spans on). The figures include
// core and the JSON codec, which this package does not own. The ceilings
// are the measured floor. Get-task encodes the stored task in place with
// the storage codec; copying it out and encoding the copy by reflection
// cost 14. Submit reads its body with the task codec's readers (body.go),
// which allocate the decoded strings and nothing else; through the
// json.Decoder jsonx.UnmarshalStrict falls back to it cost 24. Next and
// answer pay for that Decoder — the Decoder, its reader and its read
// buffer. Before the pooled exchange the table read submit 53, next 44,
// answer 45 and get-task 39.
func TestRouteAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the production ones under the race detector")
	}
	const runs = 200
	cfg := core.DefaultConfig()
	cfg.Spans = trace.SpanConfig{Enabled: true}
	sys := core.New(cfg)
	srv := NewServerWith(sys, Options{
		APIKeys:        []string{"gate-key"},
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
		RequestTimeout: 30 * time.Second,
		MaxInFlight:    1024,
	})

	// Everything a request needs is built before the measured call: one
	// request per run (plus AllocsPerRun's warm-up call), tasks for next
	// to lease, and leases for answer to close.
	const n = runs + 1
	request := func(method, path, body, idemKey string) *http.Request {
		var rd io.Reader
		if body != "" {
			rd = bytes.NewReader([]byte(body))
		}
		req, err := http.NewRequest(method, "http://gate"+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		req.RemoteAddr = "127.0.0.1:1"
		req.Header.Set("Authorization", "Bearer gate-key")
		if idemKey != "" {
			req.Header.Set(idempotencyKeyHeader, idemKey)
		}
		return req
	}
	var submits, nexts, answers, gets [n]*http.Request
	for i := 0; i < n; i++ {
		submits[i] = request(http.MethodPost, "/v1/tasks",
			fmt.Sprintf(`{"kind":"label","payload":{"image_id":%d},"redundancy":1,"priority":1}`, i), fmt.Sprintf("s-%d", i))
	}
	for i := 0; i < n; i++ {
		if _, err := sys.SubmitTask(task.Label, task.Payload{ImageID: i}, 1, 0); err != nil {
			t.Fatal(err)
		}
		tk, lease, err := sys.NextTask("answerer")
		if err != nil {
			t.Fatal(err)
		}
		answers[i] = request(http.MethodPost, fmt.Sprintf("/v1/leases/%d", lease), `{"answer":{"words":[7]}}`, fmt.Sprintf("a-%d", i))
		gets[i] = request(http.MethodGet, fmt.Sprintf("/v1/tasks/%d", tk.ID), "", "")
		nexts[i] = request(http.MethodPost, "/v1/next", fmt.Sprintf(`{"worker_id":"w%d"}`, i), "")
	}
	// One task at the top of the queue with room for every worker: each
	// next leases it.
	if _, err := sys.SubmitTask(task.Label, task.Payload{ImageID: n}, n, 10); err != nil {
		t.Fatal(err)
	}

	w := &memWriter{h: make(http.Header)}
	for _, tc := range []struct {
		route   string
		reqs    []*http.Request
		status  int
		ceiling float64
	}{
		{"POST /v1/tasks", submits[:], http.StatusCreated, 13},
		{"POST /v1/next", nexts[:], http.StatusOK, 19},
		{"POST /v1/leases/{id}", answers[:], http.StatusNoContent, 24},
		{"GET /v1/tasks/{id}", gets[:], http.StatusOK, 8},
	} {
		i := 0
		got := testing.AllocsPerRun(runs, func() {
			w.reset()
			srv.ServeHTTP(w, tc.reqs[i])
			if w.status != tc.status {
				t.Fatalf("%s request %d: status %d, want %d: %s", tc.route, i, w.status, tc.status, w.buf.String())
			}
			i++
		})
		t.Logf("%s: %.0f allocs/request", tc.route, got)
		if got > tc.ceiling {
			t.Errorf("%s: %.0f allocs/request, ceiling %.0f", tc.route, got, tc.ceiling)
		}
	}
}

// TestRequestLogRecord: the request log line keeps its message, its six
// keys and their values through whatever slog.Handler the server was
// given, and building and formatting it allocates nothing.
func TestRequestLogRecord(t *testing.T) {
	var out bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&out, nil)).With("service", "hcservd")
	srv := NewServerWith(core.New(core.DefaultConfig()), Options{Logger: logger})
	req, _ := http.NewRequest(http.MethodGet, "http://gate/v1/tasks/7", nil)
	req.RemoteAddr = "127.0.0.1:9"
	req.Header.Set(requestIDHeader, "log-line-1")
	w := &memWriter{h: make(http.Header)}
	srv.ServeHTTP(w, req)
	var line map[string]any
	if err := json.Unmarshal(out.Bytes(), &line); err != nil {
		t.Fatalf("request log line %q: %v", out.String(), err)
	}
	dur, _ := line["duration"].(float64)
	delete(line, "time")
	delete(line, "duration")
	want := map[string]any{
		"level": "INFO", "msg": "request", "service": "hcservd",
		"method": "GET", "route": "GET /v1/tasks/{id}", "status": float64(http.StatusNotFound),
		"request_id": "log-line-1", "remote": "127.0.0.1:9",
	}
	if dur <= 0 || !reflect.DeepEqual(line, want) {
		t.Fatalf("request log line = %v (duration %v)\nwant %v and a positive duration", line, dur, want)
	}

	if raceEnabled {
		return // the keys were the part the race detector can check
	}
	for name, h := range map[string]slog.Handler{
		"text": slog.NewTextHandler(io.Discard, nil),
		"json": slog.NewJSONHandler(io.Discard, nil),
	} {
		logs := h.WithAttrs([]slog.Attr{slog.String("route", "GET /v1/tasks/{id}")})
		e := newExchange(w, req)
		now := time.Now()
		if got := testing.AllocsPerRun(100, func() { logRequest(logs, e, req, now, 1234*time.Microsecond) }); got != 0 {
			t.Errorf("%s handler: request log line costs %.0f allocs, want 0", name, got)
		}
		e.release()
	}
}

// TestBatchSubmitDecodeAllocates: a 256-item :batch submit body in the
// form dispatch.Client and bench/ send decodes into its request value, the
// item slice and nothing else. Decoded by reflection it took 284.
func TestBatchSubmitDecodeAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the production ones under the race detector")
	}
	in := BatchSubmitRequest{Tasks: make([]SubmitRequest, maxBatchItems)}
	for i := range in.Tasks {
		in.Tasks[i] = SubmitRequest{Kind: []string{"label", "compare"}[i%2], Payload: task.Payload{ImageID: 1000 + i, ImageB: i % 2 * 7}, Redundancy: 3, Priority: i % 5}
	}
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out *BatchSubmitRequest
	got := testing.AllocsPerRun(50, func() {
		out = new(BatchSubmitRequest)
		if err := jsonx.UnmarshalStrict(body, out); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(*out, in) {
		t.Fatalf("decoded %d tasks, not the %d encoded", len(out.Tasks), len(in.Tasks))
	}
	t.Logf("%d-item batch submit body (%d B): %.0f allocs", len(in.Tasks), len(body), got)
	if got > 2 {
		t.Errorf("%d-item batch submit body: %.0f allocs, want 2: the request and its items", len(in.Tasks), got)
	}
}
