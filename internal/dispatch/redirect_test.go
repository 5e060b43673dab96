package dispatch

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"humancomp/internal/core"
	"humancomp/internal/task"
)

// newFollowerPair builds a writable leader and a read-only follower whose
// mutating routes answer 503 + X-Leader pointing at the leader.
func newFollowerPair(t *testing.T) (leader, followerSrv *httptest.Server, leaderSys *core.System) {
	t.Helper()
	leaderSys = core.New(core.DefaultConfig())
	leader = httptest.NewServer(NewServer(leaderSys))
	t.Cleanup(leader.Close)

	followerCore := core.New(core.DefaultConfig())
	followerCore.SetReadOnly(true)
	followerSrv = httptest.NewServer(NewServerWith(followerCore, Options{
		Leader: leader.URL,
	}))
	t.Cleanup(followerSrv.Close)
	return leader, followerSrv, leaderSys
}

// TestClientFollowsLeaderHint pins the re-route contract: a write sent to
// a follower is transparently re-issued against the X-Leader URL — once,
// without consuming a retry attempt or sleeping a backoff.
func TestClientFollowsLeaderHint(t *testing.T) {
	_, follower, leaderSys := newFollowerPair(t)

	c := NewClient(follower.URL, follower.Client())
	id, err := c.Submit(task.Label, task.Payload{ImageID: 1}, 1, 0)
	if err != nil {
		t.Fatalf("submit via follower = %v, want transparent re-route", err)
	}
	if _, err := leaderSys.Task(id); err != nil {
		t.Fatalf("task %d not on the leader: %v", id, err)
	}
}

// TestClientRerouteOnlyOnce: a hint that points at another non-writable
// node must not loop; the second 503 surfaces to the caller.
func TestClientRerouteOnlyOnce(t *testing.T) {
	var hops atomic.Int64
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hops.Add(1)
		w.Header().Set("X-Leader", "http://127.0.0.1:0") // another bad hint
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"read-only"}`))
	}))
	defer dead.Close()

	sys := core.New(core.DefaultConfig())
	sys.SetReadOnly(true)
	follower := httptest.NewServer(NewServerWith(sys, Options{
		Leader: dead.URL,
	}))
	defer follower.Close()

	c := NewClient(follower.URL, follower.Client())
	_, err := c.Submit(task.Label, task.Payload{ImageID: 1}, 1, 0)
	if err == nil {
		t.Fatal("submit through a dead-end hint chain succeeded")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want the second 503 surfaced", err)
	}
	if got := hops.Load(); got != 1 {
		t.Fatalf("hint chain followed %d extra hops, want exactly 1", got)
	}
}

// TestFollowerRejectsWritesServesReads: the read path stays open on a
// follower while every mutating route is fenced.
func TestFollowerRejectsWritesServesReads(t *testing.T) {
	leader, follower, _ := newFollowerPair(t)

	// Seed a task via the leader directly.
	lc := NewClient(leader.URL, leader.Client())
	id, err := lc.Submit(task.Label, task.Payload{ImageID: 2}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}

	// A plain client (no re-route happens on reads) can read from the
	// follower's store — here empty, so expect 404 rather than 503.
	fc := NewClient(follower.URL, follower.Client())
	if _, err := fc.TaskContext(context.Background(), id); err == nil {
		t.Fatal("follower unexpectedly has the task (no replication in this test)")
	} else if apiErr := new(APIError); errors.As(err, &apiErr) && apiErr.Status == http.StatusServiceUnavailable {
		t.Fatalf("read path returned 503: %v", err)
	}

	// Raw write against the follower: 503 with the leader hint header.
	resp, err := http.Post(follower.URL+"/v1/next", "application/json",
		nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write on follower = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Leader"); got != leader.URL {
		t.Fatalf("X-Leader = %q, want %q", got, leader.URL)
	}
}

// TestPromotedFollowerAcceptsWrites: flipping ReadOnly off re-opens the
// write path with no server rebuild.
func TestPromotedFollowerAcceptsWrites(t *testing.T) {
	sys := core.New(core.DefaultConfig())
	sys.SetReadOnly(true)
	srv := httptest.NewServer(NewServer(sys))
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())

	if _, err := c.Submit(task.Label, task.Payload{ImageID: 3}, 1, 0); err == nil {
		t.Fatal("read-only server accepted a submit")
	}
	sys.SetReadOnly(false)
	if _, err := c.Submit(task.Label, task.Payload{ImageID: 3}, 1, 0); err != nil {
		t.Fatalf("submit after promotion = %v", err)
	}
}
