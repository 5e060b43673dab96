package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"humancomp/internal/core"
	"humancomp/internal/queue"
	"humancomp/internal/sim"
	"humancomp/internal/store"
	"humancomp/internal/task"
	"humancomp/internal/vocab"
)

func newTestServer(t testing.TB) (*Client, *core.System) {
	t.Helper()
	sys := core.New(core.DefaultConfig())
	srv := httptest.NewServer(NewServer(sys))
	t.Cleanup(srv.Close)
	return NewClient(srv.URL, srv.Client()), sys
}

// submitGold submits one gold probe, a task whose answer is known, as a
// batch of one.
func submitGold(t testing.TB, c *Client, kind task.Kind, p task.Payload, redundancy, priority int, expected task.Answer) task.ID {
	t.Helper()
	res, err := c.SubmitBatchContext(context.Background(), []SubmitRequest{{
		Kind: kind.String(), Payload: p, Redundancy: redundancy, Priority: priority, Gold: true, Expected: &expected,
	}})
	if err != nil {
		t.Fatalf("submit gold probe: %v", err)
	}
	if res[0].Status != http.StatusCreated {
		t.Fatalf("submit gold probe: %d %s", res[0].Status, res[0].Error)
	}
	return res[0].ID
}

func TestHealthz(t *testing.T) {
	c, _ := newTestServer(t)
	if !c.HealthyContext(context.Background()) {
		t.Fatal("service not healthy")
	}
}

func TestSubmitNextAnswerRoundTrip(t *testing.T) {
	c, _ := newTestServer(t)
	id, err := c.Submit(task.Label, task.Payload{ImageID: 42, Detail: &task.Detail{Taboo: []int{1, 2}}}, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	tk, lease, err := c.NextContext(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	if tk.ID != id || tk.Kind != task.Label || tk.Payload.ImageID != 42 {
		t.Fatalf("leased task = %+v", tk)
	}
	if len(tk.Payload.Taboo) != 2 {
		t.Fatal("payload taboo lost in transit")
	}
	if err := c.AnswerContext(context.Background(), lease, task.Answer{Words: []int{7}}); err != nil {
		t.Fatal(err)
	}
	// Second worker completes it.
	_, lease2, err := c.NextContext(context.Background(), "bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AnswerContext(context.Background(), lease2, task.Answer{Words: []int{7, 9}}); err != nil {
		t.Fatal(err)
	}
	got, err := c.TaskContext(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != task.Done || len(got.Answers()) != 2 {
		t.Fatalf("final task = %+v", got)
	}
	if got.Answers()[0].WorkerID != "alice" {
		t.Fatalf("worker attribution lost: %+v", got.Answers()[0])
	}
	words, err := c.WordsContext(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != 2 || words[0].Word != 7 || words[0].Count != 2 {
		t.Fatalf("Words = %v", words)
	}
}

func TestNextEmptyReturnsErrNoTask(t *testing.T) {
	c, _ := newTestServer(t)
	if _, _, err := c.NextContext(context.Background(), "w"); !errors.Is(err, ErrNoTask) {
		t.Fatalf("err = %v", err)
	}
}

func TestGoldOverHTTPUpdatesReputation(t *testing.T) {
	c, _ := newTestServer(t)
	submitGold(t, c, task.Judge, task.Payload{Detail: &task.Detail{ClipA: 1, ClipB: 2}}, 1, 0, task.Answer{Choice: 1})
	_, lease, err := c.NextContext(context.Background(), "w")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AnswerContext(context.Background(), lease, task.Answer{Choice: 1}); err != nil {
		t.Fatal(err)
	}
	// GoldChecked counts the gold answers scored into reputation.
	st, err := c.StatsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.GoldChecked != 1 || st.AnswersTotal != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestChoiceAggregateOverHTTP(t *testing.T) {
	c, _ := newTestServer(t)
	id, err := c.Submit(task.Judge, task.Payload{Detail: &task.Detail{ClipA: 1, ClipB: 1}}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, choice := range []int{0, 0, 1} {
		_, lease, err := c.NextContext(context.Background(), fmt.Sprintf("w%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AnswerContext(context.Background(), lease, task.Answer{Choice: choice}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Choice(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Choice != 0 || res.Votes != 3 {
		t.Fatalf("Choice = %+v", res)
	}
}

func TestLocatePayloadRoundTrip(t *testing.T) {
	c, _ := newTestServer(t)
	id, err := c.Submit(task.Locate, task.Payload{ImageID: 3, Detail: &task.Detail{Word: 9}}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, lease, err := c.NextContext(context.Background(), "w")
	if err != nil {
		t.Fatal(err)
	}
	box := vocab.Rect{X: 10, Y: 20, W: 30, H: 40}
	if err := c.AnswerContext(context.Background(), lease, task.Answer{Box: box}); err != nil {
		t.Fatal(err)
	}
	got, err := c.TaskContext(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Answers()[0].Box != box {
		t.Fatalf("box round trip = %+v", got.Answers()[0].Box)
	}
}

func TestErrorMapping(t *testing.T) {
	c, _ := newTestServer(t)

	// Unknown lease → 404.
	err := c.AnswerContext(context.Background(), 999, task.Answer{Words: []int{1}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown lease: %v", err)
	}

	// Bad redundancy → 422: none, or more than a task can hold, singly
	// and as items of a batch.
	for _, r := range []int{0, task.MaxRedundancy + 1} {
		if _, err := c.Submit(task.Label, task.Payload{}, r, 0); !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
			t.Fatalf("redundancy %d: %v", r, err)
		}
	}
	results, err := c.SubmitBatchContext(context.Background(), []SubmitRequest{
		{Kind: "label", Redundancy: task.MaxRedundancy + 1},
		{Kind: "label", Redundancy: task.MaxRedundancy},
		{Kind: "label", Redundancy: 0},
	})
	if err != nil || results[0].Status != http.StatusUnprocessableEntity || results[1].Status != http.StatusCreated || results[2].Status != http.StatusUnprocessableEntity {
		t.Fatalf("batch of redundancies 65536, 65535 and 0: %+v, %v", results, err)
	}

	// Empty answer → 422.
	if _, err := c.Submit(task.Label, task.Payload{}, 1, 0); err != nil {
		t.Fatal(err)
	}
	_, lease, err := c.NextContext(context.Background(), "w")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AnswerContext(context.Background(), lease, task.Answer{}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("empty answer: %v", err)
	}

	// Unknown task → 404.
	if _, err := c.TaskContext(context.Background(), 12345); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown task: %v", err)
	}

	// Wrong aggregation kind → 422.
	id, _ := c.Submit(task.Transcribe, task.Payload{Detail: &task.Detail{WordImg: "x"}}, 1, 0)
	if _, err := c.WordsContext(context.Background(), id); !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("wrong-kind aggregate: %v", err)
	}
}

func TestMalformedRequests(t *testing.T) {
	_, sys := newTestServer(t)
	srv := httptest.NewServer(NewServer(sys))
	defer srv.Close()

	post := func(path, body string) (int, string) {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	// The body decode is encoding/json with DisallowUnknownFields over the
	// whole request type, nested structs and slice items included, plus a
	// rule of its own: nothing but whitespace after the value.
	for _, tc := range []struct {
		name, path, body string
		unknownField     bool
	}{
		{"bad JSON", "/v1/tasks", "{not json", false},
		{"empty body", "/v1/next", "", false},
		{"trailing data", "/v1/next", `{"worker_id":"w"} {}`, false},
		{"bad kind", "/v1/tasks", `{"kind":"nonsense","redundancy":1}`, false},
		{"unknown field", "/v1/tasks", `{"kind":"label","redundancy":1,"bogus_field":1}`, true},
		{"unknown field in payload", "/v1/tasks", `{"kind":"label","redundancy":1,"payload":{"image_id":1,"bogus":2}}`, true},
		{"unknown field in batch item", "/v1/tasks:batch", `{"tasks":[{"kind":"label","redundancy":1},{"kind":"label","redundancy":1,"bogus":1}]}`, true},
		{"escaped unknown field", "/v1/next", `{"worker_id":"w","bogu\u0073":1}`, true},
		{"missing worker", "/v1/next", `{}`, false},
		{"gold without expected", "/v1/tasks", `{"kind":"label","redundancy":1,"gold":true}`, false},
		{"non-numeric lease", "/v1/leases/abc", `{"answer":{}}`, false},
	} {
		got, msg := post(tc.path, tc.body)
		if got != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400: %s", tc.name, got, msg)
		}
		if tc.unknownField && !strings.Contains(msg, "unknown field") {
			t.Errorf("%s: error %q does not name the unknown field", tc.name, msg)
		}
	}
	// Keys match fields case-insensitively, as encoding/json matches them.
	if got, msg := post("/v1/next", `{"WORKER_ID":"w"}`); got != http.StatusOK && got != http.StatusNoContent {
		t.Errorf("case-insensitive known key: %d: %s", got, msg)
	}
}

func TestCancelOverHTTP(t *testing.T) {
	c, _ := newTestServer(t)
	id, err := c.Submit(task.Label, task.Payload{}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(id); err != nil {
		t.Fatal(err)
	}
	var apiErr *APIError
	if err := c.Cancel(id); !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
		t.Fatalf("double cancel: %v", err)
	}
	if _, _, err := c.NextContext(context.Background(), "w"); !errors.Is(err, ErrNoTask) {
		t.Fatal("canceled task still dispatched")
	}
}

func TestReleaseOverHTTP(t *testing.T) {
	c, _ := newTestServer(t)
	if _, err := c.Submit(task.Label, task.Payload{}, 1, 0); err != nil {
		t.Fatal(err)
	}
	_, lease, err := c.NextContext(context.Background(), "w")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Release(lease); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.NextContext(context.Background(), "w"); err != nil {
		t.Fatalf("released task not re-dispatchable: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	c, _ := newTestServer(t)
	const nTasks = 120
	for i := 0; i < nTasks; i++ {
		if _, err := c.Submit(task.Label, task.Payload{ImageID: i}, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	done := 0
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker := fmt.Sprintf("w%d", w)
			for {
				_, lease, err := c.NextContext(context.Background(), worker)
				if errors.Is(err, ErrNoTask) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				if err := c.AnswerContext(context.Background(), lease, task.Answer{Words: []int{w}}); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				done++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if done != nTasks {
		t.Fatalf("completed %d/%d tasks", done, nTasks)
	}
}

func BenchmarkHTTPSubmitNextAnswer(b *testing.B) {
	c, _ := newTestServer(b)
	for i := 0; b.Loop(); i++ {
		if _, err := c.Submit(task.Label, task.Payload{ImageID: i}, 1, 0); err != nil {
			b.Fatal(err)
		}
		_, lease, err := c.NextContext(context.Background(), "w")
		if err != nil {
			b.Fatal(err)
		}
		if err := c.AnswerContext(context.Background(), lease, task.Answer{Words: []int{1}}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEndpointMetrics: every response is counted on its route, errors
// included, in the admin exposition's per-route families.
func TestEndpointMetrics(t *testing.T) {
	sys := core.New(core.DefaultConfig())
	api := NewServer(sys)
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	admin := httptest.NewServer(NewAdminHandler(sys, api, AdminOptions{}))
	t.Cleanup(admin.Close)
	c := NewClient(srv.URL, srv.Client())
	if _, err := c.Submit(task.Label, task.Payload{}, 1, 0); err != nil {
		t.Fatal(err)
	}
	_, lease, err := c.NextContext(context.Background(), "w")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AnswerContext(context.Background(), lease, task.Answer{Words: []int{1}}); err != nil {
		t.Fatal(err)
	}
	// An error response must be counted.
	_ = c.AnswerContext(context.Background(), 999, task.Answer{Words: []int{1}})

	resp, err := admin.Client().Get(admin.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d, %v", resp.StatusCode, err)
	}
	for _, line := range []string{
		`hc_http_requests_total{route="POST /v1/tasks",code_class="2xx"} 1`,
		`hc_http_request_duration_seconds_count{route="POST /v1/tasks"} 1`,
		`hc_http_requests_total{route="POST /v1/leases/{id}",code_class="2xx"} 1`,
		`hc_http_requests_total{route="POST /v1/leases/{id}",code_class="4xx"} 1`,
		`hc_http_requests_total{route="POST /v1/leases/{id}",code_class="5xx"} 0`,
		`hc_http_request_duration_seconds_count{route="POST /v1/leases/{id}"} 2`,
	} {
		if !strings.Contains(string(body), line+"\n") {
			t.Errorf("exposition lacks %s", line)
		}
	}
}

func TestListTasksPaginationAndFilter(t *testing.T) {
	c, _ := newTestServer(t)
	var ids []task.ID
	for i := 0; i < 7; i++ {
		id, err := c.Submit(task.Label, task.Payload{ImageID: i}, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Complete the first two.
	for i := 0; i < 2; i++ {
		_, lease, err := c.NextContext(context.Background(), fmt.Sprintf("w%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AnswerContext(context.Background(), lease, task.Answer{Words: []int{1}}); err != nil {
			t.Fatal(err)
		}
	}

	all, err := c.ListTasks("", 0, 100)
	if err != nil || all.Total != 7 || len(all.Tasks) != 7 {
		t.Fatalf("all: %+v, %v", all, err)
	}
	open, err := c.ListTasks("open", 0, 100)
	if err != nil || open.Total != 5 {
		t.Fatalf("open: total=%d err=%v", open.Total, err)
	}
	done, err := c.ListTasks("done", 0, 100)
	if err != nil || done.Total != 2 {
		t.Fatalf("done: total=%d err=%v", done.Total, err)
	}
	// Pagination.
	page, err := c.ListTasks("", 5, 10)
	if err != nil || page.Total != 7 || len(page.Tasks) != 2 {
		t.Fatalf("page: %+v, %v", page, err)
	}
	if page.Tasks[0].ID != ids[5] {
		t.Fatalf("page start = %d", page.Tasks[0].ID)
	}
	// Beyond the end: empty but valid.
	tail, err := c.ListTasks("", 100, 10)
	if err != nil || len(tail.Tasks) != 0 || tail.Total != 7 {
		t.Fatalf("tail: %+v, %v", tail, err)
	}
	// Bad params.
	var apiErr *APIError
	if _, err := c.ListTasks("bogus", 0, 10); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("bogus status: %v", err)
	}
	if _, err := c.ListTasks("", -1, 10); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("negative offset: %v", err)
	}
	if _, err := c.ListTasks("", 0, 9999); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("oversized limit: %v", err)
	}
}

func TestAPIKeyAuth(t *testing.T) {
	sys := core.New(core.DefaultConfig())
	srv := httptest.NewServer(NewServerWith(sys, Options{APIKeys: []string{"sekret"}}))
	defer srv.Close()

	// No key → 401 on API routes, but healthz stays open.
	open := NewClient(srv.URL, srv.Client())
	var apiErr *APIError
	if _, err := open.Submit(task.Label, task.Payload{}, 1, 0); !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnauthorized {
		t.Fatalf("keyless submit: %v", err)
	}
	if !open.HealthyContext(context.Background()) {
		t.Fatal("healthz should not require a key")
	}

	// With the key: a round-tripping transport that injects the header.
	authed := NewClient(srv.URL, &http.Client{Transport: headerTransport{key: "sekret"}})
	if _, err := authed.Submit(task.Label, task.Payload{}, 1, 0); err != nil {
		t.Fatalf("keyed submit: %v", err)
	}
	// Wrong key → 401.
	wrong := NewClient(srv.URL, &http.Client{Transport: headerTransport{key: "nope"}})
	if _, err := wrong.Submit(task.Label, task.Payload{}, 1, 0); !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnauthorized {
		t.Fatalf("wrong key: %v", err)
	}
}

type headerTransport struct{ key string }

func (h headerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r.Header.Set("Authorization", "Bearer "+h.key)
	return http.DefaultTransport.RoundTrip(r)
}

func TestRateLimitPerKey(t *testing.T) {
	sys := core.New(core.DefaultConfig())
	srv := httptest.NewServer(NewServerWith(sys, Options{
		APIKeys:    []string{"k1", "k2"},
		RatePerSec: 0.001, // effectively no refill within the test
		Burst:      3,
	}))
	defer srv.Close()

	c1 := NewClient(srv.URL, &http.Client{Transport: headerTransport{key: "k1"}})
	var apiErr *APIError
	for i := 0; i < 3; i++ {
		if _, err := c1.Submit(task.Label, task.Payload{ImageID: i}, 1, 0); err != nil {
			t.Fatalf("burst request %d: %v", i, err)
		}
	}
	if _, err := c1.Submit(task.Label, task.Payload{}, 1, 0); !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("over-budget request: %v", err)
	}
	// A different key has its own budget.
	c2 := NewClient(srv.URL, &http.Client{Transport: headerTransport{key: "k2"}})
	if _, err := c2.Submit(task.Label, task.Payload{}, 1, 0); err != nil {
		t.Fatalf("second key throttled by first: %v", err)
	}
}

// TestRateLimitOpenServerPerHost: without API keys the bucket belongs to
// the caller's host, so a second connection from another port shares it.
func TestRateLimitOpenServerPerHost(t *testing.T) {
	h := NewServerWith(core.New(core.DefaultConfig()), Options{RatePerSec: 0.001, Burst: 1})
	want := []int{http.StatusOK, http.StatusTooManyRequests}
	for i, addr := range []string{"192.0.2.7:40001", "192.0.2.7:40002"} {
		req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
		req.RemoteAddr = addr
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != want[i] {
			t.Fatalf("request %d from %s = %d, want %d", i, addr, rec.Code, want[i])
		}
	}
}

// TestWriteErrorTable pins the full domain-error → HTTP status mapping,
// including wrapped errors and the generic fallback.
func TestWriteErrorTable(t *testing.T) {
	cases := []struct {
		err    error
		status int
	}{
		{queue.ErrUnknownLease, http.StatusNotFound},
		{queue.ErrUnknownTask, http.StatusNotFound},
		{task.ErrWrongStatus, http.StatusConflict},
		{task.ErrWorkerRepeat, http.StatusConflict},
		{queue.ErrDuplicateID, http.StatusConflict},
		{task.ErrEmptyAnswer, http.StatusUnprocessableEntity},
		{task.ErrBadRedundancy, http.StatusUnprocessableEntity},
		{task.ErrUnknownKind, http.StatusUnprocessableEntity},
		{core.ErrWrongKind, http.StatusUnprocessableEntity},
		{fmt.Errorf("answering: %w", task.ErrWorkerRepeat), http.StatusConflict},
		{fmt.Errorf("aggregate: %w", core.ErrWrongKind), http.StatusUnprocessableEntity},
		{errors.New("disk on fire"), http.StatusInternalServerError},
	}
	req := httptest.NewRequest(http.MethodGet, "/", nil) // outside a server: no request ID
	for _, c := range cases {
		rec := httptest.NewRecorder()
		writeError(rec, req, c.err)
		if rec.Code != c.status {
			t.Errorf("writeError(%v) = %d, want %d", c.err, rec.Code, c.status)
		}
		var body errorResponse
		if err := json.NewDecoder(rec.Body).Decode(&body); err != nil || body.Error == "" {
			t.Errorf("writeError(%v) body = %q, %v", c.err, rec.Body, err)
		}
	}
	// ErrEmpty is the one bodyless mapping: 204, not an error envelope.
	rec := httptest.NewRecorder()
	writeError(rec, req, queue.ErrEmpty)
	if rec.Code != http.StatusNoContent || rec.Body.Len() != 0 {
		t.Errorf("writeError(ErrEmpty) = %d with %q, want bare 204", rec.Code, rec.Body)
	}
}

// TestAuthEmptyBearerFailsClosed covers the flag-split artifacts: blank
// entries in the key list must not admit the empty bearer token, and a key
// list with only blanks locks the server rather than opening it.
func TestAuthEmptyBearerFailsClosed(t *testing.T) {
	sys := core.New(core.DefaultConfig())
	// "sekret,," style flag value: one real key plus split artifacts.
	srv := httptest.NewServer(NewServerWith(sys, Options{APIKeys: []string{"sekret", "", "  "}}))
	defer srv.Close()

	var apiErr *APIError
	check401 := func(name string, c *Client) {
		t.Helper()
		if _, err := c.Submit(task.Label, task.Payload{}, 1, 0); !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnauthorized {
			t.Fatalf("%s: %v", name, err)
		}
	}
	check401("missing header", NewClient(srv.URL, srv.Client()))
	check401("empty bearer", NewClient(srv.URL, &http.Client{Transport: headerTransport{key: ""}}))
	check401("whitespace bearer", NewClient(srv.URL, &http.Client{Transport: headerTransport{key: "   "}}))
	if _, err := NewClient(srv.URL, &http.Client{Transport: headerTransport{key: "sekret"}}).Submit(task.Label, task.Payload{}, 1, 0); err != nil {
		t.Fatalf("real key rejected: %v", err)
	}

	// Nothing but blanks: auth stays on and nobody gets in.
	locked := httptest.NewServer(NewServerWith(core.New(core.DefaultConfig()), Options{APIKeys: []string{"", " "}}))
	defer locked.Close()
	check401("locked server, no key", NewClient(locked.URL, locked.Client()))
	check401("locked server, empty bearer", NewClient(locked.URL, &http.Client{Transport: headerTransport{key: ""}}))
}

// TestStatsRequiresAuth: the read-only stats route sits behind the same
// guard as the rest of the API.
func TestStatsRequiresAuth(t *testing.T) {
	sys := core.New(core.DefaultConfig())
	srv := httptest.NewServer(NewServerWith(sys, Options{APIKeys: []string{"sekret"}}))
	defer srv.Close()

	var apiErr *APIError
	open := NewClient(srv.URL, srv.Client())
	if _, err := open.StatsContext(context.Background()); !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnauthorized {
		t.Fatalf("keyless stats: %v", err)
	}
	authed := NewClient(srv.URL, &http.Client{Transport: headerTransport{key: "sekret"}})
	if _, err := authed.StatsContext(context.Background()); err != nil {
		t.Fatalf("keyed stats: %v", err)
	}
}

// TestMetricsRouteIsGone: GET /v1/metrics is not mounted, so a keyed
// request for it answers 404. Route counts and latencies are on the admin
// listener's /metrics.
func TestMetricsRouteIsGone(t *testing.T) {
	sys := core.New(core.DefaultConfig())
	srv := httptest.NewServer(NewServerWith(sys, Options{APIKeys: []string{"sekret"}}))
	defer srv.Close()

	c := &http.Client{Transport: headerTransport{key: "sekret"}}
	resp, err := c.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/metrics answered %d, want 404", resp.StatusCode)
	}
}

// TestListTasksCopiesOnlyThePage: GET /v1/tasks over a 20 000-task table
// allocates for the page it returns, not for the table. Copying and sorting
// every task to serve fifty of them costs some 80 000 allocations a request;
// the bound leaves the page (four a task here) and the request path ~2x
// headroom. Listing and sorting the matching IDs first cost 160 000 bytes
// more a request in one allocation, which the count does not see and the
// byte bound does. What the page holds — Total, ID order, the status
// filter, an offset past the end — is as it always was.
func TestListTasksCopiesOnlyThePage(t *testing.T) {
	const n = 20_000
	sys := core.New(core.DefaultConfig())
	at := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	for i := 1; i <= n; i++ {
		id := task.ID(i)
		tk := &task.Task{ID: id, Kind: task.Label, Payload: task.Payload{ImageID: i, Detail: &task.Detail{Taboo: []int{1}}}, Redundancy: 3, CreatedAt: task.StampOf(at)}
		var doneAt time.Time
		if i%10 == 0 {
			tk.Status, doneAt = task.Done, at
		}
		sys.Store().Put(withEnded(tk, doneAt,
			task.Answer{TaskID: id, WorkerID: "a", At: task.StampOf(at), Words: []int{i}},
			task.Answer{TaskID: id, WorkerID: "b", At: task.StampOf(at), Words: []int{i + 1}}))
	}
	srv := NewServer(sys)
	list := func(query string) TaskList {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/tasks?"+query, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/tasks?%s: %d %s", query, rec.Code, rec.Body)
		}
		var out TaskList
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	page := list("limit=50&offset=1000")
	if page.Total != n || len(page.Tasks) != 50 || page.Tasks[0].ID != 1001 || page.Tasks[49].ID != 1050 {
		t.Fatalf("page: total %d, %d tasks from %d", page.Total, len(page.Tasks), page.Tasks[0].ID)
	}
	if got := page.Tasks[7]; len(got.Answers()) != 2 || got.Answers()[1].Words[0] != 1009 || got.Payload.Taboo[0] != 1 {
		t.Fatalf("task in the page lost data: %+v", got)
	}
	done := list("status=done&limit=3&offset=2")
	if done.Total != n/10 || len(done.Tasks) != 3 || done.Tasks[0].ID != 30 || done.Tasks[2].ID != 50 || done.Tasks[1].Status != task.Done {
		t.Fatalf("done page: %+v", done)
	}
	if tail := list("limit=50&offset=20000"); tail.Total != n || tail.Tasks == nil || len(tail.Tasks) != 0 {
		t.Fatalf("offset past the end: %+v", tail)
	}
	if last := list("limit=50&offset=19990"); len(last.Tasks) != 10 || last.Tasks[9].ID != n {
		t.Fatalf("last page: %d tasks", len(last.Tasks))
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/tasks?limit=50&offset=1000", nil)
	serve := func() { srv.ServeHTTP(httptest.NewRecorder(), req) }
	allocs := testing.AllocsPerRun(10, serve)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	size := (after.TotalAlloc - before.TotalAlloc) / 10
	t.Logf("%.0f allocations and %d B per GET /v1/tasks?limit=50 over %d tasks", allocs, size, n)
	if allocs > 800 {
		t.Fatalf("GET /v1/tasks?limit=50 over %d tasks: %.0f allocations per request, want a page's worth (under 800)", n, allocs)
	}
	// The detector drops pooled buffers at random, so the bytes are the
	// production ones only without it.
	if !raceEnabled && size > 96<<10 {
		t.Fatalf("GET /v1/tasks?limit=50 over %d tasks: %d B per request, want a page's worth (under 96 KiB)", n, size)
	}
}

// withEnded gives tk the DoneAt done (none if zero) and answers.
func withEnded(tk *task.Task, done time.Time, answers ...task.Answer) *task.Task {
	tk.SetEnded(task.StampOf(done), answers)
	return tk
}

// stdlibTask is a task's encoding spelled as struct tags: its field list,
// order and tags. json.Encoder writes it by reflection, so it is the
// reference the task codec's bytes are held to, not the codec itself.
type stdlibTask struct {
	ID         task.ID       `json:"id"`
	Kind       task.Kind     `json:"kind"`
	Status     task.Status   `json:"status"`
	CreatedAt  task.Stamp    `json:"created_at"`
	DoneAt     task.Stamp    `json:"done_at,omitzero"`
	Payload    task.Payload  `json:"payload"`
	Redundancy int           `json:"redundancy"`
	Priority   int           `json:"priority"`
	Answers    []task.Answer `json:"answers,omitempty"`
}

func stdlibTaskOf(tk *task.Task) stdlibTask {
	return stdlibTask{tk.ID, tk.Kind, tk.Status, tk.CreatedAt, tk.DoneAt(), tk.Payload, int(tk.Redundancy), tk.Priority, tk.Answers()}
}

// TestGetTaskBodyIsTheEncodersBytes: GET /v1/tasks/{id} encodes the stored
// task where it is, and the body is byte for byte what json.Encoder makes
// of its fields — answers, taboo lists, and the characters encoding/json
// escapes in strings (<, >, & and U+2028) included. An unknown task is a
// 404 and a task encoding/json cannot encode the 500 it always was.
func TestGetTaskBodyIsTheEncodersBytes(t *testing.T) {
	sys := core.New(core.DefaultConfig())
	at := time.Date(2026, 7, 6, 12, 0, 0, 5, time.FixedZone("", 3600))
	odd := "a<b>&c\u2028d\u2029\"é"
	stored := []*task.Task{
		withEnded(&task.Task{ID: 1, Kind: task.Label, Payload: task.Payload{ImageID: 3, Detail: &task.Detail{Taboo: []int{4, 5}}}, Redundancy: 3, Priority: 2, CreatedAt: task.StampOf(at)}, time.Time{},
			task.Answer{TaskID: 1, WorkerID: odd, At: task.StampOf(at), Words: []int{7, 8}},
			task.Answer{TaskID: 1, WorkerID: "b", At: task.StampOf(at.Add(time.Second)), Words: []int{9}}),
		withEnded(&task.Task{ID: 2, Kind: task.Transcribe, Payload: task.Payload{Detail: &task.Detail{WordImg: odd}}, Redundancy: 1, Status: task.Done, CreatedAt: task.StampOf(at)}, at.Add(time.Minute),
			task.Answer{TaskID: 2, WorkerID: "w", At: task.StampOf(at), Text: odd}),
		withEnded(&task.Task{ID: 3, Kind: task.Locate, Payload: task.Payload{ImageID: 1, Detail: &task.Detail{Word: 2}}, Redundancy: 2, Status: task.Canceled, CreatedAt: task.StampOf(at)}, at,
			task.Answer{TaskID: 3, WorkerID: "x", At: task.StampOf(at), Box: vocab.Rect{X: 1, Y: 2, W: 3, H: 4}}),
		{ID: 4, Kind: task.Compare, Payload: task.Payload{ImageID: 1, ImageB: 2}, Redundancy: 1, CreatedAt: task.StampOf(at)},
	}
	for _, tk := range stored {
		sys.Store().Put(tk)
	}
	srv := NewServer(sys)
	get := func(id task.ID) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/tasks/%d", id), nil))
		return rec
	}
	for _, tk := range stored {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(stdlibTaskOf(tk)); err != nil {
			t.Fatal(err)
		}
		rec := get(tk.ID)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("GET task %d: %d\n got %s\nwant %s", tk.ID, rec.Code, rec.Body, want.Bytes())
		}
		if h := rec.Header(); h.Get("Content-Type") != "application/json" || h.Get("Content-Length") != fmt.Sprint(want.Len()) {
			t.Fatalf("GET task %d: headers %v", tk.ID, h)
		}
	}
	if rec := get(99); rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), `"error":"store: task not found"`) {
		t.Fatalf("GET unknown task: %d %s", rec.Code, rec.Body)
	}
	sys.Store().Put(&task.Task{ID: 5, Kind: task.Label, Redundancy: 1, CreatedAt: task.StampOf(time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC))})
	if rec := get(5); rec.Code != http.StatusInternalServerError || rec.Body.String() != encodeFailed+"\n" {
		t.Fatalf("GET a task encoding/json refuses: %d %q", rec.Code, rec.Body)
	}
}

// TestEmptyDetailIsNil: a submitted payload that names a Detail field but
// sets nothing in it — an empty taboo list, a zero word — is stored with
// no Detail, and an empty taboo list beside a word as none, which is what
// their journal records decode to, so a node that replays the journal
// holds the live node's tasks and writes its checkpoint byte for byte. A
// "Detail" key is an unknown field like any other.
func TestEmptyDetailIsNil(t *testing.T) {
	var journal bytes.Buffer
	cfg := core.DefaultConfig()
	cfg.Journal = store.NewWAL(&journal)
	// A wall-clock time carries a monotonic reading its record does not.
	cfg.Clock = sim.NewSimulator(time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC))
	sys := core.New(cfg)
	srv := httptest.NewServer(NewServer(sys))
	defer srv.Close()
	post := func(payload string) int {
		resp, err := http.Post(srv.URL+"/v1/tasks", "application/json",
			strings.NewReader(`{"kind":"label","redundancy":1,"payload":`+payload+`}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, payload := range []string{`{"image_id":1,"taboo":[]}`, `{"word":0}`, `{"word":3,"taboo":[]}`} {
		if code := post(payload); code != http.StatusCreated {
			t.Fatalf("submit %s: status %d", payload, code)
		}
	}
	if code := post(`{"Detail":{"word":1}}`); code != http.StatusBadRequest {
		t.Fatalf(`submit {"Detail":…}: status %d, want 400`, code)
	}

	live := sys.Store().Tasks(store.AnyStatus)
	if len(live) != 3 {
		t.Fatalf("%d tasks stored, want 3", len(live))
	}
	for _, tk := range live[:2] {
		if tk.Payload.Detail != nil {
			t.Errorf("task %d stored with Detail %+v, want nil", tk.ID, *tk.Payload.Detail)
		}
	}
	replayed := core.New(core.DefaultConfig())
	if _, err := store.ReplayWALObserved(bytes.NewReader(journal.Bytes()), replayed.Store(), nil); err != nil {
		t.Fatal(err)
	}
	got := replayed.Store().Tasks(store.AnyStatus)
	if len(got) != len(live) {
		t.Fatalf("%d tasks replayed, want %d", len(got), len(live))
	}
	for i := range live {
		if !reflect.DeepEqual(*got[i], *live[i]) {
			t.Errorf("task %d replays as\n%+v\nlive it is\n%+v", live[i].ID, *got[i], *live[i])
		}
	}
	var liveSnap, replayedSnap bytes.Buffer
	if err := sys.Store().Snapshot(&liveSnap); err != nil {
		t.Fatal(err)
	}
	if err := replayed.Store().Snapshot(&replayedSnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveSnap.Bytes(), replayedSnap.Bytes()) {
		t.Errorf("checkpoints differ:\n live: %s\nreplay: %s", liveSnap.Bytes(), replayedSnap.Bytes())
	}
}
