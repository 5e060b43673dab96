package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"reflect"
	"sync"
	"testing"

	"humancomp/internal/core"
	"humancomp/internal/task"
)

// TestTransportReusesConnections proves the tuned transport actually
// keeps connections alive: the second sequential request over a fresh
// client must ride the connection the first one opened.
func TestTransportReusesConnections(t *testing.T) {
	sys := core.New(core.DefaultConfig())
	srv := httptest.NewServer(NewServer(sys))
	defer srv.Close()

	httpClient := &http.Client{Transport: NewTransport()}
	defer httpClient.CloseIdleConnections()
	c := NewClient(srv.URL, httpClient)

	if _, err := c.StatsContext(context.Background()); err != nil {
		t.Fatalf("first request: %v", err)
	}

	var reused bool
	trace := &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
	}
	ctx := httptrace.WithClientTrace(context.Background(), trace)
	if _, err := c.StatsContext(ctx); err != nil {
		t.Fatalf("second request: %v", err)
	}
	if !reused {
		t.Fatal("second request dialed a new connection; transport is not pooling keep-alives")
	}
}

// TestOversizedBodyRejected checks every single-item POST handler bounds
// its body read: a payload past the 1 MiB cap must come back as a 413
// with the standard JSON error envelope, not as a 400 or a hung read.
func TestOversizedBodyRejected(t *testing.T) {
	sys := core.New(core.DefaultConfig())
	srv := httptest.NewServer(NewServer(sys))
	defer srv.Close()

	big := make([]byte, maxSingleBody+1024)
	for i := range big {
		big[i] = 'x'
	}
	body, err := json.Marshal(map[string]any{"kind": "label", "junk": string(big)})
	if err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{"/v1/tasks", "/v1/next", "/v1/leases/1"} {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		var envelope struct {
			Error     string `json:"error"`
			RequestID string `json:"request_id"`
		}
		decodeErr := json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s: status = %d, want 413", path, resp.StatusCode)
		}
		if decodeErr != nil {
			t.Errorf("POST %s: body is not the JSON envelope: %v", path, decodeErr)
		} else if envelope.Error == "" || envelope.RequestID == "" {
			t.Errorf("POST %s: incomplete envelope %+v", path, envelope)
		}
	}
}

// TestBatchBodyLimitIsWider confirms batch endpoints accept bodies past
// the single-item cap (they legitimately carry up to maxBatchItems
// tasks) while still bounding at maxBatchBody.
func TestBatchBodyLimitIsWider(t *testing.T) {
	c, _ := newTestServer(t)
	reqs := make([]SubmitRequest, 64)
	filler := string(make([]byte, 32<<10))
	for i := range reqs {
		reqs[i] = SubmitRequest{
			Kind:       task.Label.String(),
			Payload:    task.Payload{Detail: &task.Detail{WordImg: filler}},
			Redundancy: 1,
		}
	}
	// 64 × 32 KiB ≈ 2 MiB: over maxSingleBody, under maxBatchBody.
	results, err := c.SubmitBatchContext(context.Background(), reqs)
	if err != nil {
		t.Fatalf("SubmitBatch over 1 MiB: %v", err)
	}
	for i, r := range results {
		if r.Status != http.StatusCreated {
			t.Fatalf("item %d: status %d (%s)", i, r.Status, r.Error)
		}
	}
}

// TestPooledDecodeNoCrossRequestBleed hammers the pooled request-carrier
// path with concurrent distinct submissions and verifies every stored
// task holds exactly the payload its request carried — catching any
// stale-field bleed or buffer aliasing introduced by carrier reuse.
func TestPooledDecodeNoCrossRequestBleed(t *testing.T) {
	c, _ := newTestServer(t)
	const goroutines, per = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				imageID := g*1000 + i
				p := task.Payload{ImageID: imageID}
				if i%2 == 0 { // alternate shapes so a stale Detail or slice would show
					p.Detail = &task.Detail{Taboo: []int{g, i, imageID}}
				}
				id, err := c.Submit(task.Label, p, 1, 0)
				if err != nil {
					errs <- fmt.Errorf("submit g%d/%d: %w", g, i, err)
					return
				}
				got, err := c.TaskContext(context.Background(), id)
				if err != nil {
					errs <- fmt.Errorf("fetch g%d/%d: %w", g, i, err)
					return
				}
				if got.Payload.ImageID != imageID || !reflect.DeepEqual(got.Payload.Detail, p.Detail) {
					errs <- fmt.Errorf("g%d/%d: payload bled: got %+v want image %d detail %+v",
						g, i, got.Payload, imageID, p.Detail)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
