package dispatch

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"humancomp/internal/core"
	"humancomp/internal/store"
	"humancomp/internal/trace"
)

// TestWriteRouteSpanShapes pins the span tree of each of the six write
// routes — submit, lease and answer, single and :batch — as a set of
// (op, parent op) pairs, with the WAL and the quality plane on. The sets
// are the ones these routes produced before the write path was collapsed
// to one implementation per operation: the single routes keep their own op
// names (core.submit, core.lease, core.answer) although they run the batch
// body.
func TestWriteRouteSpanShapes(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Spans = trace.SpanConfig{Enabled: true, SampleEvery: 1}
	cfg.OnlineQuality = true
	var walBuf bytes.Buffer
	wal := store.NewWAL(&walBuf)
	t.Cleanup(func() { _ = wal.Close() })
	cfg.Journal = wal
	sys := core.New(cfg)
	srv := httptest.NewServer(NewServerWith(sys, Options{}))
	t.Cleanup(srv.Close)

	// Each %d takes the oldest lease granted so far and not yet answered.
	const judge = `{"kind":"judge","payload":{"clip_a":1,"clip_b":2},"redundancy":1}`
	routes := []struct {
		route, path, body string
		status            int
		underRoot         string // ops whose parent is the route's root span
		coreOp            string // the one of them that has children
		underCore         string
	}{
		{"/v1/tasks", "/v1/tasks", judge, http.StatusCreated,
			"http.decode idem.lookup core.submit http.encode", "core.submit", "queue.lockwait wal.append"},
		{"/v1/tasks:batch", "/v1/tasks:batch", `{"tasks":[` + judge + `,` + judge + `,` + judge + `]}`, http.StatusOK,
			"http.decode idem.lookup core.submit_batch http.encode", "core.submit_batch", "queue.lockwait wal.append"},
		{"/v1/next", "/v1/next", `{"worker_id":"w"}`, http.StatusOK,
			"http.decode core.lease http.encode", "core.lease", "queue.lockwait"},
		{"/v1/leases/{id}", "/v1/leases/%d", `{"answer":{"choice":1}}`, http.StatusNoContent,
			"http.decode idem.lookup core.answer", "core.answer", "queue.lockwait wal.append quality.update"},
		{"/v1/leases:batch", "/v1/leases:batch", `{"worker_id":"w","max":2}`, http.StatusOK,
			"http.decode core.lease_batch http.encode", "core.lease_batch", "queue.lockwait"},
		{"/v1/leases:answers", "/v1/leases:answers",
			`{"answers":[{"lease":%d,"answer":{"choice":0}},{"lease":%d,"answer":{"choice":1}}]}`, http.StatusOK,
			"http.decode idem.lookup core.answer_batch http.encode", "core.answer_batch", "queue.lockwait wal.append quality.update"},
	}
	var leases []any
	fill := func(format string) string {
		n := strings.Count(format, "%d")
		s := fmt.Sprintf(format, leases[:n]...)
		leases = leases[n:]
		return s
	}
	for _, rt := range routes {
		id := trace.NewTraceID()
		req, err := http.NewRequest(http.MethodPost, srv.URL+fill(rt.path), strings.NewReader(fill(rt.body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("traceparent", trace.FormatTraceParent(id, trace.NewSpanID()))
		req.Header.Set("Idempotency-Key", id.String())
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var reply bytes.Buffer
		_, _ = reply.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != rt.status {
			t.Fatalf("POST %s = %d %s, want %d", rt.route, resp.StatusCode, reply.String(), rt.status)
		}
		for _, part := range strings.Split(reply.String(), `"lease":`)[1:] {
			var lease int64
			if _, err := fmt.Sscanf(part, "%d", &lease); err != nil {
				t.Fatalf("POST %s: unreadable lease in %s", rt.route, reply.String())
			}
			leases = append(leases, lease)
		}

		trees := sys.Spans().Snapshot(trace.SpanFilter{Trace: id})
		if len(trees) != 1 {
			t.Fatalf("POST %s: %d retained trees, want 1", rt.route, len(trees))
		}
		root := "POST " + rt.route
		var want []string
		for _, op := range strings.Fields(rt.underRoot) {
			want = append(want, op+" < "+root)
		}
		for _, op := range strings.Fields(rt.underCore) {
			want = append(want, op+" < "+rt.coreOp)
		}
		opOf := map[string]string{}
		for _, sp := range trees[0].Spans {
			opOf[sp.ID] = sp.Op
		}
		var got []string
		for _, sp := range trees[0].Spans[1:] {
			got = append(got, sp.Op+" < "+opOf[sp.Parent])
		}
		sort.Strings(got)
		sort.Strings(want)
		if trees[0].RootOp != root || strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("POST %s span tree under %q:\n  got  %q\n  want %q", rt.route, trees[0].RootOp, got, want)
		}
	}
}
