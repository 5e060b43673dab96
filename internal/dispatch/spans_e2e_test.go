package dispatch

import (
	"bytes"
	"encoding/json"
	"io"
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
	"humancomp/internal/trace"
)

// TestSpanPropagationEndToEnd is the span plane's acceptance test: one
// logical client call — first attempt rejected by a flaky front, second
// retried under the same trace ID — produces a server span tree with
// handler, core and WAL child spans retrievable from /v1/debug/spans by
// that trace ID, and a /metrics scrape in OpenMetrics format carries an
// exemplar resolving to the same trace.
func TestSpanPropagationEndToEnd(t *testing.T) {
	cfg := core.DefaultConfig()
	// SampleEvery 1 retains every tree so the assertion does not depend on
	// the request being slow or errored.
	cfg.Spans = trace.SpanConfig{Enabled: true, SampleEvery: 1}
	var walBuf bytes.Buffer
	wal := store.NewWAL(&walBuf)
	t.Cleanup(func() { _ = wal.Close() })
	cfg.Journal = wal
	sys := core.New(cfg)
	api := NewServerWith(sys, Options{})

	// The front drops the first attempt before it reaches the API — the
	// classic flaky-LB failure the client's retry loop exists for — and
	// records the traceparent each attempt carried.
	var calls atomic.Int32
	var mu sync.Mutex
	var traceParents []string
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		traceParents = append(traceParents, r.Header.Get("traceparent"))
		mu.Unlock()
		if calls.Add(1) == 1 {
			http.Error(w, "hiccup", http.StatusBadGateway)
			return
		}
		api.ServeHTTP(w, r)
	}))
	t.Cleanup(front.Close)
	admin := httptest.NewServer(NewAdminHandler(sys, api, AdminOptions{}))
	t.Cleanup(admin.Close)

	c := NewClientWith(front.URL, front.Client(), ClientOptions{Retry: DefaultRetry, Trace: true})
	var waits []time.Duration
	instantSleep(c, &waits)
	pinned := trace.NewTraceID()
	c.newTraceID = func() trace.TraceID { return pinned }

	if _, err := c.Submit(task.Label, task.Payload{ImageID: 1}, 1, 0); err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Both attempts carried the pinned trace ID with fresh span IDs.
	mu.Lock()
	parents := append([]string(nil), traceParents...)
	mu.Unlock()
	if len(parents) != 2 {
		t.Fatalf("saw %d attempts, want 2", len(parents))
	}
	var spanIDs []trace.SpanID
	for i, tp := range parents {
		tid, sid, ok := trace.ParseTraceParent(tp)
		if !ok {
			t.Fatalf("attempt %d traceparent %q unparseable", i, tp)
		}
		if tid != pinned {
			t.Errorf("attempt %d trace ID = %v, want pinned %v", i, tid, pinned)
		}
		spanIDs = append(spanIDs, sid)
	}
	if spanIDs[0] == spanIDs[1] {
		t.Errorf("attempt span IDs not fresh: %v reused", spanIDs[0])
	}

	// The server's span tree is retrievable from the admin listener by the
	// trace ID the client minted.
	resp, err := admin.Client().Get(admin.URL + "/v1/debug/spans?trace=" + pinned.String())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var debug SpanDebugResponse
	if err := json.NewDecoder(resp.Body).Decode(&debug); err != nil {
		t.Fatalf("decoding /v1/debug/spans: %v", err)
	}
	if len(debug.Traces) != 1 {
		t.Fatalf("retrieved %d traces for the pinned ID, want 1: %+v", len(debug.Traces), debug.Traces)
	}
	tree := debug.Traces[0]
	if tree.TraceID != pinned.String() {
		t.Errorf("tree trace ID = %q, want %q", tree.TraceID, pinned.String())
	}
	if tree.RootOp != "POST /v1/tasks" {
		t.Errorf("root op = %q, want %q", tree.RootOp, "POST /v1/tasks")
	}
	// The retried attempt's span ID is the root's remote parent, stitching
	// the server tree under the client attempt.
	if got := tree.Spans[0].Parent; got != spanIDs[1].String() {
		t.Errorf("root parent = %q, want second attempt's span %q", got, spanIDs[1].String())
	}
	byOp := map[string]trace.SpanView{}
	for _, sp := range tree.Spans {
		byOp[sp.Op] = sp
	}
	for _, op := range []string{"http.decode", "core.submit", "queue.lockwait", "wal.append", "http.encode"} {
		if _, ok := byOp[op]; !ok {
			t.Errorf("span %q missing from tree: %+v", op, tree.Spans)
		}
	}
	// Substrate spans nest under the core op, not the root.
	if coreSp, ok := byOp["core.submit"]; ok {
		if byOp["wal.append"].Parent != coreSp.ID {
			t.Errorf("wal.append parent = %q, want core.submit %q", byOp["wal.append"].Parent, coreSp.ID)
		}
		if byOp["queue.lockwait"].Parent != coreSp.ID {
			t.Errorf("queue.lockwait parent = %q, want core.submit %q", byOp["queue.lockwait"].Parent, coreSp.ID)
		}
		if coreSp.Parent != tree.Spans[0].ID {
			t.Errorf("core.submit parent = %q, want root %q", coreSp.Parent, tree.Spans[0].ID)
		}
	}

	// The OpenMetrics scrape exposes a submit-route exemplar pointing at
	// the same trace, closing the dashboard -> span tree loop.
	req, _ := http.NewRequest(http.MethodGet, admin.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	mresp, err := admin.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Errorf("negotiated content type = %q", ct)
	}
	text := string(body)
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Errorf("OpenMetrics body missing # EOF trailer")
	}
	found := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, `hc_http_request_duration_seconds_bucket{route="POST /v1/tasks",`) &&
			strings.Contains(line, `# {trace_id="`+pinned.String()+`"}`) {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no submit-route exemplar resolving to trace %s in:\n%s", pinned.String(), text)
	}
}

// TestSpanDebugEndpointValidation covers the filter plumbing and the
// 404-when-disabled contract of GET /v1/debug/spans.
func TestSpanDebugEndpointValidation(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Spans = trace.SpanConfig{Enabled: true, SampleEvery: 1}
	sys := core.New(cfg)
	api := NewServerWith(sys, Options{})
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	admin := httptest.NewServer(NewAdminHandler(sys, api, AdminOptions{}))
	t.Cleanup(admin.Close)

	c := NewClient(srv.URL, srv.Client())
	if _, err := c.Submit(task.Label, task.Payload{}, 1, 0); err != nil {
		t.Fatal(err)
	}

	get := func(query string) (int, SpanDebugResponse) {
		resp, err := admin.Client().Get(admin.URL + "/v1/debug/spans" + query)
		if err != nil {
			t.Fatalf("GET %s: %v", query, err)
		}
		defer resp.Body.Close()
		var out SpanDebugResponse
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}

	if code, out := get(""); code != http.StatusOK || len(out.Traces) != 1 {
		t.Errorf("unfiltered = %d, %d traces; want 200 with 1", code, len(out.Traces))
	}
	if code, out := get("?op=POST+%2Fv1%2Ftasks"); code != http.StatusOK || len(out.Traces) != 1 {
		t.Errorf("op filter = %d, %d traces; want 200 with 1", code, len(out.Traces))
	}
	if code, out := get("?errors_only=true"); code != http.StatusOK || len(out.Traces) != 0 {
		t.Errorf("errors_only = %d, %d traces; want 200 with 0", code, len(out.Traces))
	}
	// 285 years: under the 292 a time.Duration holds.
	if code, out := get("?min_ms=9e12"); code != http.StatusOK || len(out.Traces) != 0 {
		t.Errorf("min_ms=9e12 = %d, %d traces; want 200 with 0", code, len(out.Traces))
	}
	// NaN, the infinities and anything past 2^63 ns would convert to the
	// most negative Duration, a filter that keeps every tree.
	for _, q := range []string{"?trace=nothex", "?min_ms=-1", "?min_ms=NaN", "?min_ms=Inf", "?min_ms=-Inf", "?min_ms=1e300", "?min_ms=9.3e12",
		"?errors_only=maybe", "?limit=0", "?limit=5000"} {
		if code, _ := get(q); code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", q, code)
		}
	}

	// A system without the span plane answers 404, not an empty list.
	plain := core.New(core.DefaultConfig())
	adminOff := httptest.NewServer(NewAdminHandler(plain, NewServer(plain), AdminOptions{}))
	t.Cleanup(adminOff.Close)
	resp, err := adminOff.Client().Get(adminOff.URL + "/v1/debug/spans")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled plane = %d, want 404", resp.StatusCode)
	}
}
