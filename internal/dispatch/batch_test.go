package dispatch

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"humancomp/internal/core"
	"humancomp/internal/task"
)

func TestBatchSubmitLeaseAnswerRoundTrip(t *testing.T) {
	c, sys := newTestServer(t)

	reqs := make([]SubmitRequest, 8)
	for i := range reqs {
		reqs[i] = SubmitRequest{Kind: "label", Payload: task.Payload{ImageID: i}, Redundancy: 1}
	}
	results, err := c.SubmitBatchContext(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("got %d results for %d items", len(results), len(reqs))
	}
	for i, res := range results {
		if res.Status != http.StatusCreated || res.ID == 0 || res.Error != "" {
			t.Fatalf("item %d = %+v", i, res)
		}
	}

	leases, err := c.NextBatchContext(context.Background(), "alice", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(leases) != 8 {
		t.Fatalf("leased %d, want 8", len(leases))
	}
	items := make([]BatchAnswerItem, len(leases))
	for i, l := range leases {
		items[i] = BatchAnswerItem{Lease: l.Lease, Answer: task.Answer{Words: []int{l.Task.Payload.ImageID}}}
	}
	statuses, err := c.AnswerBatchContext(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range statuses {
		if st.Status != http.StatusNoContent || st.Error != "" {
			t.Fatalf("answer %d = %+v", i, st)
		}
	}
	for _, res := range results {
		got, err := sys.Task(res.ID)
		if err != nil || got.Status != task.Done {
			t.Fatalf("task %d after batch flow: %+v, %v", res.ID, got, err)
		}
	}
	// Per-task lifecycle traces survive the batched path.
	tr, err := c.Trace(results[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	stages := map[string]bool{}
	for _, e := range tr.Events {
		stages[string(e.Stage)] = true
	}
	for _, want := range []string{"submit", "persist", "enqueue", "lease", "answer", "complete"} {
		if !stages[want] {
			t.Fatalf("trace missing stage %q: %v", want, stages)
		}
	}
}

func TestBatchSubmitPartialFailureEnvelopes(t *testing.T) {
	c, sys := newTestServer(t)
	results, err := c.SubmitBatchContext(context.Background(), []SubmitRequest{
		{Kind: "label", Payload: task.Payload{ImageID: 1}, Redundancy: 1},
		{Kind: "no-such-kind", Redundancy: 1},
		{Kind: "label", Payload: task.Payload{ImageID: 2}, Redundancy: -3},
		{Kind: "label", Gold: true, Redundancy: 1}, // gold without expected
		{Kind: "label", Payload: task.Payload{ImageID: 3}, Redundancy: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Status != http.StatusCreated || results[4].Status != http.StatusCreated {
		t.Fatalf("good items = %+v, %+v", results[0], results[4])
	}
	if results[1].Status != http.StatusBadRequest || results[1].Error == "" {
		t.Fatalf("unknown kind = %+v", results[1])
	}
	if results[2].Status != http.StatusUnprocessableEntity {
		t.Fatalf("bad redundancy = %+v", results[2])
	}
	if results[3].Status != http.StatusBadRequest {
		t.Fatalf("gold without expected = %+v", results[3])
	}
	if got := sys.Store().Len(); got != 2 {
		t.Fatalf("store holds %d tasks, want 2", got)
	}
}

func TestBatchAnswerPartialFailureEnvelopes(t *testing.T) {
	c, _ := newTestServer(t)
	if _, err := c.SubmitBatchContext(context.Background(), []SubmitRequest{
		{Kind: "label", Payload: task.Payload{ImageID: 1}, Redundancy: 1},
	}); err != nil {
		t.Fatal(err)
	}
	leases, err := c.NextBatchContext(context.Background(), "w", 4)
	if err != nil || len(leases) != 1 {
		t.Fatalf("NextBatch = %v, %v", leases, err)
	}
	statuses, err := c.AnswerBatchContext(context.Background(), []BatchAnswerItem{
		{Lease: leases[0].Lease, Answer: task.Answer{Words: []int{1}}},
		{Lease: 1 << 40, Answer: task.Answer{Words: []int{2}}}, // unknown lease
		{Lease: leases[0].Lease},                               // empty answer on settled lease
	})
	if err != nil {
		t.Fatal(err)
	}
	if statuses[0].Status != http.StatusNoContent {
		t.Fatalf("good answer = %+v", statuses[0])
	}
	if statuses[1].Status != http.StatusNotFound {
		t.Fatalf("unknown lease = %+v", statuses[1])
	}
	if statuses[2].Status == http.StatusNoContent {
		t.Fatalf("settled lease re-answered: %+v", statuses[2])
	}
}

func TestBatchSizeAndShapeValidation(t *testing.T) {
	c, _ := newTestServer(t)
	if _, err := c.SubmitBatchContext(context.Background(), nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	big := make([]SubmitRequest, maxBatchItems+1)
	for i := range big {
		big[i] = SubmitRequest{Kind: "label", Redundancy: 1}
	}
	if _, err := c.SubmitBatchContext(context.Background(), big); err == nil {
		t.Fatal("oversized batch accepted")
	}
	if _, err := c.NextBatchContext(context.Background(), "", 4); err == nil {
		t.Fatal("missing worker_id accepted")
	}
	if _, err := c.NextBatchContext(context.Background(), "w", 0); err == nil {
		t.Fatal("non-positive max accepted")
	}
	// An empty lease result is success, not an error.
	leases, err := c.NextBatchContext(context.Background(), "w", 4)
	if err != nil || len(leases) != 0 {
		t.Fatalf("empty queue NextBatch = %v, %v", leases, err)
	}
}

// TestBatchIdempotentReplayAtomic: a retried batch submit carrying the same
// Idempotency-Key replays the whole original response — same IDs, no
// second copy of any task.
func TestBatchIdempotentReplayAtomic(t *testing.T) {
	sys := core.New(core.DefaultConfig())
	srv := httptest.NewServer(NewServer(sys))
	defer srv.Close()

	body := `{"tasks":[` +
		`{"kind":"label","payload":{"image_id":1},"redundancy":1},` +
		`{"kind":"label","payload":{"image_id":2},"redundancy":1},` +
		`{"kind":"bogus"}]}`
	post := func() (*http.Response, string) {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/tasks:batch", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(idempotencyKeyHeader, "batch-key-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(b)
	}

	r1, b1 := post()
	r2, b2 := post()
	if r1.StatusCode != http.StatusOK || r2.StatusCode != http.StatusOK {
		t.Fatalf("statuses %d/%d", r1.StatusCode, r2.StatusCode)
	}
	if b1 != b2 {
		t.Fatalf("replayed batch differs:\n first: %s\nsecond: %s", b1, b2)
	}
	if r2.Header.Get(idempotentReplayHdr) != "true" {
		t.Fatal("second batch not served from replay cache")
	}
	if got := sys.Store().Len(); got != 2 {
		t.Fatalf("store holds %d tasks after replayed batch, want 2", got)
	}
}

// TestIdempotencyScopedByPrincipal is the regression test for the
// cross-tenant replay leak: two API keys using the same Idempotency-Key
// value must not see each other's cached responses.
func TestIdempotencyScopedByPrincipal(t *testing.T) {
	sys := core.New(core.DefaultConfig())
	srv := httptest.NewServer(NewServerWith(sys, Options{APIKeys: []string{"alice-key", "bob-key"}}))
	defer srv.Close()

	post := func(apiKey string) (int, string, string) {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/tasks",
			strings.NewReader(`{"kind":"label","payload":{"image_id":1},"redundancy":1}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+apiKey)
		req.Header.Set(idempotencyKeyHeader, "shared-key-value")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(b), resp.Header.Get(idempotentReplayHdr)
	}

	st1, body1, _ := post("alice-key")
	st2, body2, replay2 := post("bob-key")
	if st1 != http.StatusCreated || st2 != http.StatusCreated {
		t.Fatalf("statuses %d/%d, want 201/201", st1, st2)
	}
	if replay2 == "true" {
		t.Fatal("bob was served alice's cached response")
	}
	if body1 == body2 {
		t.Fatalf("cross-principal replay: both callers got %s", body1)
	}
	if got := sys.Store().Len(); got != 2 {
		t.Fatalf("store holds %d tasks, want one per principal", got)
	}
	// The same principal retrying does replay.
	st3, body3, replay3 := post("alice-key")
	if st3 != http.StatusCreated || body3 != body1 || replay3 != "true" {
		t.Fatalf("same-principal retry: %d, %q, replay=%q", st3, body3, replay3)
	}
}

// TestIdemSkipsOversizedBodies: a 2xx response too large to buffer streams
// through uncached instead of pinning megabytes in the replay LRU.
func TestIdemSkipsOversizedBodies(t *testing.T) {
	cache := newIdemCache(8)
	var calls int
	big := strings.Repeat("x", maxIdemBody+1)
	h := cache.wrap("POST /big", func(w *exchange, r *http.Request) {
		calls++
		_, _ = io.WriteString(w, big)
	})
	for i := 0; i < 2; i++ {
		req := httptest.NewRequest(http.MethodPost, "/big", nil)
		req.Header.Set(idempotencyKeyHeader, "big-key")
		rec := httptest.NewRecorder()
		serveChain(h, rec, req)
		if rec.Body.Len() != len(big) {
			t.Fatalf("call %d: body %d bytes, want %d", i, rec.Body.Len(), len(big))
		}
	}
	if calls != 2 {
		t.Fatalf("handler ran %d times, want 2 (oversized body must not cache)", calls)
	}
	if cache.len() != 0 {
		t.Fatalf("oversized response cached: %d entries", cache.len())
	}
}

// TestBatchMixedWithSingleCallsRace soaks the batched and single-call
// paths together; run with -race it pins down that holding the locks
// across a batch does not break the locking discipline.
func TestBatchMixedWithSingleCallsRace(t *testing.T) {
	c, _ := newTestServer(t)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			who := fmt.Sprintf("worker-%d", w)
			for i := 0; i < 10; i++ {
				if w%2 == 0 {
					reqs := make([]SubmitRequest, 4)
					for j := range reqs {
						reqs[j] = SubmitRequest{Kind: "label", Payload: task.Payload{ImageID: i}, Redundancy: 1}
					}
					if _, err := c.SubmitBatchContext(context.Background(), reqs); err != nil {
						t.Error(err)
						return
					}
					leases, err := c.NextBatchContext(context.Background(), who, 4)
					if err != nil {
						t.Error(err)
						return
					}
					items := make([]BatchAnswerItem, len(leases))
					for j, l := range leases {
						items[j] = BatchAnswerItem{Lease: l.Lease, Answer: task.Answer{Words: []int{1}}}
					}
					if len(items) > 0 {
						if _, err := c.AnswerBatchContext(context.Background(), items); err != nil {
							t.Error(err)
							return
						}
					}
					continue
				}
				if _, err := c.Submit(task.Label, task.Payload{ImageID: i}, 1, 0); err != nil {
					t.Error(err)
					return
				}
				tk, lease, err := c.NextContext(context.Background(), who)
				if err != nil {
					if errIsNoTask(err) {
						continue
					}
					t.Error(err)
					return
				}
				if err := c.AnswerContext(context.Background(), lease, task.Answer{Words: []int{tk.Payload.ImageID}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func errIsNoTask(err error) bool { return err == ErrNoTask }
