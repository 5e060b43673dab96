package dispatch

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"humancomp/internal/core"
	"humancomp/internal/task"
	"humancomp/internal/trace"
)

// memHandler is a slog.Handler capturing records for assertions.
type memHandler struct {
	mu      sync.Mutex
	records []map[string]string
}

func (h *memHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *memHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *memHandler) WithGroup(string) slog.Handler            { return h }
func (h *memHandler) Handle(_ context.Context, r slog.Record) error {
	rec := map[string]string{"msg": r.Message, "level": r.Level.String()}
	r.Attrs(func(a slog.Attr) bool {
		rec[a.Key] = fmt.Sprint(a.Value.Any())
		return true
	})
	h.mu.Lock()
	h.records = append(h.records, rec)
	h.mu.Unlock()
	return nil
}

func (h *memHandler) find(msg string) []map[string]string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []map[string]string
	for _, r := range h.records {
		if r["msg"] == msg {
			out = append(out, r)
		}
	}
	return out
}

func TestRequestIDGeneratedAndEchoed(t *testing.T) {
	sys := core.New(core.DefaultConfig())
	srv := httptest.NewServer(NewServer(sys))
	t.Cleanup(srv.Close)

	resp, err := srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	id := resp.Header.Get(requestIDHeader)
	if len(id) != 16 {
		t.Fatalf("generated request ID = %q, want 16 hex chars", id)
	}
}

func TestRequestIDPropagationEndToEnd(t *testing.T) {
	logs := &memHandler{}
	sys := core.New(core.DefaultConfig())
	srv := httptest.NewServer(NewServerWith(sys, Options{Logger: slog.New(logs)}))
	t.Cleanup(srv.Close)

	// Pin the client's generator so the ID is known in advance.
	c := NewClient(srv.URL, srv.Client())
	const pinned = "e2e-test-request-1"
	c.newID = func() string { return pinned }

	// An error response must carry the ID in the envelope and the APIError.
	_, err := c.TaskContext(context.Background(), 999999)
	apiErr, ok := err.(*APIError)
	if !ok {
		t.Fatalf("Task(unknown) error = %v, want *APIError", err)
	}
	if apiErr.RequestID != pinned {
		t.Errorf("APIError.RequestID = %q, want %q", apiErr.RequestID, pinned)
	}
	if !strings.Contains(apiErr.Error(), pinned) {
		t.Errorf("APIError.Error() = %q, missing request ID", apiErr.Error())
	}

	// The server-side structured log line carries the same ID.
	reqs := logs.find("request")
	if len(reqs) == 0 {
		t.Fatal("no request log records captured")
	}
	last := reqs[len(reqs)-1]
	if last["request_id"] != pinned {
		t.Errorf("logged request_id = %q, want %q", last["request_id"], pinned)
	}
	if last["status"] != "404" {
		t.Errorf("logged status = %q, want 404", last["status"])
	}
}

func TestMalformedClientRequestIDReplaced(t *testing.T) {
	sys := core.New(core.DefaultConfig())
	srv := httptest.NewServer(NewServer(sys))
	t.Cleanup(srv.Close)

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/stats", nil)
	bad := strings.Repeat("x", 65) // too long to adopt
	req.Header.Set(requestIDHeader, bad)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(requestIDHeader); got == bad || got == "" {
		t.Errorf("oversized client ID echoed back (%q); want a generated replacement", got)
	}
}

func TestPanicRecovery(t *testing.T) {
	logs := &memHandler{}
	sys := core.New(core.DefaultConfig())
	s := NewServerWith(sys, Options{Logger: slog.New(logs)})
	// Register a panicking route through the same instrumentation chain.
	s.mount("GET /v1/boom", s.instrument("GET /v1/boom", func(*exchange, *http.Request) {
		panic("kaboom")
	}))
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	resp, err := srv.Client().Get(srv.URL + "/v1/boom")
	if err != nil {
		t.Fatalf("request failed instead of returning 500: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	var body errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding 500 body: %v", err)
	}
	if body.Error == "" || body.RequestID == "" {
		t.Errorf("500 body = %+v, want error and request_id set", body)
	}

	panics := logs.find("handler panic")
	if len(panics) != 1 {
		t.Fatalf("captured %d panic log records, want 1", len(panics))
	}
	if panics[0]["panic"] != "kaboom" || !strings.Contains(panics[0]["stack"], "goroutine") {
		t.Errorf("panic record = %+v, want panic value and stack", panics[0])
	}

	// The route's counters saw the 500 as a fault.
	rs := s.stats.get("GET /v1/boom")
	if rs.latency.Count() != 1 || rs.errors() != 1 || rs.byClass[3].Value() != 1 {
		t.Errorf("route saw %d requests, %d errors, %d 5xx; want 1 of each", rs.latency.Count(), rs.errors(), rs.byClass[3].Value())
	}
}

// TestRouteStatsCountByStatusClass: each response lands in its status
// class, so a 429 shed is a 4xx and not a fault, and the errors figure of
// GET /v1/metrics stays the 4xx+5xx sum.
func TestRouteStatsCountByStatusClass(t *testing.T) {
	rs := &routeStats{}
	for _, status := range []int{200, 201, 204, 304, 400, 404, 429, 500, 503, 101, 999} {
		rs.count(status)
	}
	for i, want := range []int64{4, 1, 3, 3} {
		if got := rs.byClass[i].Value(); got != want {
			t.Errorf("%s = %d, want %d", codeClasses[i], got, want)
		}
	}
	if errs := rs.errors(); errs != 6 {
		t.Errorf("errors = %d, want the 6 responses that were 4xx or 5xx", errs)
	}
}

func TestExchangeImplicitWriteAndFlush(t *testing.T) {
	inner := httptest.NewRecorder()
	e := newExchange(inner, httptest.NewRequest(http.MethodGet, "/x", nil))
	defer e.release()
	if _, err := e.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	if !e.wrote || e.status != http.StatusOK {
		t.Errorf("after implicit Write: wrote=%v status=%d, want true/200", e.wrote, e.status)
	}
	// A late WriteHeader must not overwrite the recorded status.
	e.WriteHeader(http.StatusTeapot)
	if e.status != http.StatusOK {
		t.Errorf("late WriteHeader changed recorded status to %d", e.status)
	}
	// The exchange must implement http.Flusher over a flushable writer.
	var f http.Flusher = e
	f.Flush()
	if !inner.Flushed {
		t.Error("Flush did not reach the underlying writer")
	}
}

func TestTraceEndpoint(t *testing.T) {
	c, _ := newTestServer(t)
	id, err := c.Submit(task.Label, task.Payload{ImageID: 1}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, lease, err := c.NextContext(context.Background(), "w1")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AnswerContext(context.Background(), lease, task.Answer{Words: []int{3}}); err != nil {
		t.Fatal(err)
	}

	tr, err := c.Trace(id)
	if err != nil {
		t.Fatal(err)
	}
	if tr.TaskID != id {
		t.Fatalf("trace task_id = %d, want %d", tr.TaskID, id)
	}
	want := []trace.Stage{trace.StageSubmit, trace.StagePersist, trace.StageEnqueue,
		trace.StageLease, trace.StageAnswer, trace.StageComplete}
	if len(tr.Events) != len(want) {
		t.Fatalf("trace has %d events (%+v), want %d", len(tr.Events), tr.Events, len(want))
	}
	var prevSeq uint64
	for i, e := range tr.Events {
		if e.Stage != want[i] {
			t.Errorf("event %d stage = %q, want %q", i, e.Stage, want[i])
		}
		if e.Seq <= prevSeq {
			t.Errorf("event %d seq %d not increasing", i, e.Seq)
		}
		prevSeq = e.Seq
	}
	if tr.Events[3].Worker != "w1" || tr.Events[4].Worker != "w1" {
		t.Errorf("lease/answer events missing worker: %+v", tr.Events[3:5])
	}

	// Unknown task: 404.
	if _, err := c.Trace(424242); err == nil {
		t.Error("Trace(unknown) should 404")
	}
}

// fixedClock is a core.Clock that always reads one instant.
type fixedClock struct{ at time.Time }

func (c fixedClock) Now() time.Time { return c.at }

// TestTraceRouteBytes pins the trace route's body for live events. The
// ring holds each event in a compact slot and rebuilds it for the route,
// and what it rebuilds must encode as the event did when it was recorded:
// the clock's zone offset and nanoseconds, the worker and the trace ID,
// which an event without one (persist) leaves out.
func TestTraceRouteBytes(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Clock = fixedClock{time.Date(2026, 7, 6, 12, 0, 0, 123456789, time.FixedZone("IST", 5*3600+30*60))}
	cfg.Spans = trace.SpanConfig{Enabled: true, SampleEvery: 1}
	srv := httptest.NewServer(NewServer(core.New(cfg)))
	t.Cleanup(srv.Close)
	call := func(method, path, body string) string {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("traceparent", "00-11111111111111110000000000000000-1111111111111111-01")
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode >= 300 {
			t.Fatalf("%s %s = %d %s, %v", method, path, resp.StatusCode, b, err)
		}
		return string(b)
	}
	call(http.MethodPost, "/v1/tasks", `{"kind":"label","payload":{"image_id":1},"redundancy":1}`)
	var next struct{ Lease int64 }
	if err := json.Unmarshal([]byte(call(http.MethodPost, "/v1/next", `{"worker_id":"w1"}`)), &next); err != nil {
		t.Fatal(err)
	}
	call(http.MethodPost, fmt.Sprintf("/v1/leases/%d", next.Lease), `{"answer":{"words":[3]}}`)

	const at, tr = `"at":"2026-07-06T12:00:00.123456789+05:30"`, `"trace":"11111111111111110000000000000000"`
	want := `{"task_id":1,"events":[` +
		`{"seq":1,"task_id":1,"stage":"submit",` + at + `,` + tr + `},` +
		`{"seq":2,"task_id":1,"stage":"persist",` + at + `},` +
		`{"seq":3,"task_id":1,"stage":"enqueue",` + at + `,` + tr + `},` +
		`{"seq":4,"task_id":1,"stage":"lease",` + at + `,"worker":"w1",` + tr + `},` +
		`{"seq":5,"task_id":1,"stage":"answer",` + at + `,"worker":"w1",` + tr + `},` +
		`{"seq":6,"task_id":1,"stage":"complete",` + at + `,` + tr + `}]}` + "\n"
	if got := call(http.MethodGet, "/v1/tasks/1/trace", ""); got != want {
		t.Fatalf("trace route body\n%s\nwant\n%s", got, want)
	}
}

// promLine matches one valid exposition sample line; label values are
// quoted strings, which may hold spaces and braces (a route pattern does).
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="[^"]*",?)*\})? (-?[0-9.eE+-]+|[+-]Inf|NaN)$`)

func TestAdminHandlerMetricsAndProbes(t *testing.T) {
	sys := core.New(core.DefaultConfig())
	api := NewServer(sys)
	apiSrv := httptest.NewServer(api)
	t.Cleanup(apiSrv.Close)
	c := NewClient(apiSrv.URL, apiSrv.Client())

	// Drive a small lifecycle so every family has signal.
	id, err := c.Submit(task.Label, task.Payload{ImageID: 9}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, lease, err := c.NextContext(context.Background(), "w1")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AnswerContext(context.Background(), lease, task.Answer{Words: []int{1}}); err != nil {
		t.Fatal(err)
	}
	_ = id

	ready := false
	admin := httptest.NewServer(NewAdminHandler(sys, api, AdminOptions{Ready: func() error {
		if !ready {
			return errors.New("not serving")
		}
		return nil
	}}))
	t.Cleanup(admin.Close)

	get := func(path string) (*http.Response, string) {
		resp, err := admin.Client().Get(admin.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(body)
	}

	if resp, _ := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", resp.StatusCode)
	}
	if resp, _ := get("/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz before ready = %d, want 503", resp.StatusCode)
	}
	ready = true
	if resp, _ := get("/readyz"); resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz after ready = %d, want 200", resp.StatusCode)
	}

	resp, body := get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type = %q", ct)
	}

	// Every non-comment line must be a well-formed sample.
	values := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
		// Label values may hold spaces (route="POST /v1/tasks"); the value
		// is what follows the last one.
		i := strings.LastIndexByte(line, ' ')
		values[line[:i]] = line[i+1:]
	}
	for name, want := range map[string]string{
		"hc_tasks_submitted_total":  "1",
		"hc_answers_total":          "1",
		"hc_queue_open_tasks":       "0",
		"hc_inflight_leases":        "0",
		"hc_queue_lease_pops_total": "1",
		"hc_store_tasks":            "1",
		// One lock hold per request: enqueue, lease, answer; put, record.
		"hc_queue_lock_acquisitions_total":                                     "3",
		"hc_store_lock_acquisitions_total":                                     "2",
		`hc_http_requests_total{route="POST /v1/tasks",code_class="2xx"}`:      "1",
		`hc_http_requests_total{route="POST /v1/tasks",code_class="5xx"}`:      "0",
		`hc_http_request_duration_seconds_count{route="POST /v1/leases/{id}"}`: "1",
	} {
		if got := values[name]; got != want {
			t.Errorf("%s = %q, want %q", name, got, want)
		}
	}
	// Families that must be present with any value.
	for _, name := range []string{
		"hc_trace_events_retained",
		`hc_task_time_in_queue_seconds_bucket{le="+Inf"}`,
		"hc_task_time_in_queue_seconds_count",
		"hc_task_lease_to_answer_seconds_count",
		"hc_task_answers_to_completion_seconds_count",
		`hc_http_requests_total{route="GET /v1/tasks/{id}",code_class="2xx"}`,
		`hc_http_request_duration_seconds_bucket{route="POST /v1/next",le="+Inf"}`,
	} {
		if _, ok := values[name]; !ok {
			t.Errorf("metric %s missing from exposition", name)
		}
	}
	// Play is counted by the session plane alone: with none wired, task
	// traffic exports no GWAP family.
	for name := range values {
		if strings.HasPrefix(name, "hc_gwap_") {
			t.Errorf("%s exported without a session plane", name)
		}
	}

	// The process's memory: heap objects and what has been allocated
	// always, the resident high-water mark where the kernel reports one.
	if v, _ := strconv.ParseFloat(values["go_memory_classes_heap_objects_bytes"], 64); v < 1<<10 {
		t.Errorf("go_memory_classes_heap_objects_bytes = %q, want a heap's worth", values["go_memory_classes_heap_objects_bytes"])
	}
	objects, _ := strconv.ParseFloat(values["go_gc_heap_allocs_objects_total"], 64)
	allocated, _ := strconv.ParseFloat(values["go_gc_heap_allocs_bytes_total"], 64)
	if objects < 1 || allocated < 8*objects {
		t.Errorf("go_gc_heap_allocs_objects_total = %q, go_gc_heap_allocs_bytes_total = %q; want some objects of 8 B or more",
			values["go_gc_heap_allocs_objects_total"], values["go_gc_heap_allocs_bytes_total"])
	}
	if !strings.Contains(body, "# TYPE go_gc_heap_allocs_objects_total counter\n") || !strings.Contains(body, "# TYPE go_gc_heap_allocs_bytes_total counter\n") {
		t.Error("the allocation totals are not counters")
	}
	if _, err := os.Stat("/proc/self/status"); err == nil {
		if v, _ := strconv.ParseFloat(values["process_resident_memory_max_bytes"], 64); v < 1<<20 {
			t.Errorf("process_resident_memory_max_bytes = %q, want the peak resident set", values["process_resident_memory_max_bytes"])
		}
	} else if _, ok := values["process_resident_memory_max_bytes"]; ok {
		t.Error("process_resident_memory_max_bytes exported without /proc/self/status")
	}

	// The process's CPU time and system calls, where the kernel reports
	// them: counters a scrape reads afresh, and the scrapes themselves are
	// reads and writes on a socket.
	if _, err := os.Stat("/proc/self/stat"); err == nil {
		if v, err := strconv.ParseFloat(values["process_cpu_seconds_total"], 64); err != nil || v < 0 {
			t.Errorf("process_cpu_seconds_total = %q, want the CPU time used", values["process_cpu_seconds_total"])
		}
		if !strings.Contains(body, "# TYPE process_cpu_seconds_total counter\n") {
			t.Error("process_cpu_seconds_total is not a counter")
		}
	} else if _, ok := values["process_cpu_seconds_total"]; ok {
		t.Error("process_cpu_seconds_total exported without /proc/self/stat")
	}
	if _, err := os.ReadFile("/proc/self/io"); err == nil {
		for _, op := range []string{"read", "write"} {
			name := `process_io_syscalls_total{op="` + op + `"}`
			if v, _ := strconv.ParseFloat(values[name], 64); v < 1 {
				t.Errorf("%s = %q, want the %s system calls made", name, values[name], op)
			}
		}
	} else if _, ok := values[`process_io_syscalls_total{op="read"}`]; ok {
		t.Error("process_io_syscalls_total exported without /proc/self/io")
	}

	// Every route shares one family each; the route is a label.
	for _, fam := range []string{"hc_http_requests_total counter", "hc_http_request_duration_seconds histogram"} {
		if n := strings.Count(body, "# TYPE "+fam+"\n"); n != 1 {
			t.Errorf("%d TYPE lines for %q, want 1", n, fam)
		}
	}

	// pprof index answers on the same listener.
	if resp, _ := get("/debug/pprof/"); resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d, want 200", resp.StatusCode)
	}
}
