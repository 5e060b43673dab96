package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"humancomp/internal/core"
	"humancomp/internal/dispatch"
	"humancomp/internal/session"
	"humancomp/internal/vocab"
)

// TestRunSession drives a live session plane over real HTTP: players pair
// up, rounds reach agreement, partner-message latencies are measured and
// the agreed answers reach the task plane.
func TestRunSession(t *testing.T) {
	sys := core.New(core.DefaultConfig())
	bridge := dispatch.NewSessionBridge(sys)
	plane, err := session.New(session.Config{
		MatchTimeout: 250 * time.Millisecond,
		RoundTimeout: 10 * time.Second,
		Lexicon:      vocab.NewLexicon(vocab.LexiconConfig{Size: 500, ZipfS: 1, SynonymRate: 0, Seed: 1}),
		Items:        8,
		OnResult:     bridge.OnResult,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(plane.Close)
	srv := httptest.NewServer(dispatch.NewServerWith(sys, dispatch.Options{Sessions: plane}))
	t.Cleanup(srv.Close)

	tally, err := runSession(srv.URL, 16, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if n := tally.errs.Load(); n != 0 {
		t.Fatalf("%d session calls failed", n)
	}
	if tally.agreed.Load() == 0 {
		t.Fatal("no round agreed")
	}
	if len(tally.lats) == 0 {
		t.Fatal("no partner-message latency measured")
	}
	if placed, _ := bridge.Stats(); placed == 0 {
		t.Fatal("no session answers reached the task plane")
	}
}

// TestRunSessionWithoutPlane: a server started without -sessions fails
// the run instead of printing an empty report.
func TestRunSessionWithoutPlane(t *testing.T) {
	srv := httptest.NewServer(dispatch.NewServer(core.New(core.DefaultConfig())))
	t.Cleanup(srv.Close)
	tally, err := runSession(srv.URL, 4, 1, 1)
	if err == nil {
		t.Fatal("session run against a server without a session plane succeeded")
	}
	if tally == nil || tally.errs.Load() != 4 {
		t.Fatalf("want every join to fail, got %v", err)
	}
}

// TestRunHTTP drains the labeling workload through the single-call and the
// batch API.
func TestRunHTTP(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch int
	}{{"single", 1}, {"batch=8", 8}} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(dispatch.NewServer(core.New(core.DefaultConfig())))
			t.Cleanup(srv.Close)
			const tasks = 30
			submitted, answered, err := runHTTP(srv.URL, tasks, 4, tc.batch, 3)
			if err != nil {
				t.Fatal(err)
			}
			if submitted != tasks {
				t.Fatalf("submitted %d of %d tasks", submitted, tasks)
			}
			if answered == 0 {
				t.Fatal("no answers given")
			}
		})
	}
}

// TestRunHTTPFails: a dead service or a failed call ends the run with an
// error that names the step, and main turns that error into exit 1.
func TestRunHTTPFails(t *testing.T) {
	for _, tc := range []struct {
		name  string
		route string // POST route the server fails with 500; "" = no server
		batch int
		want  string
	}{
		{"no service", "", 1, "no healthy service"},
		{"submit", "/v1/tasks", 1, "submitting task"},
		{"batch answer", "/v1/leases:answers", 8, "answering batch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			api := dispatch.NewServer(core.New(core.DefaultConfig()))
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost && r.URL.Path == tc.route {
					http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
					return
				}
				api.ServeHTTP(w, r)
			}))
			url := srv.URL
			if tc.route == "" {
				srv.Close()
			} else {
				t.Cleanup(srv.Close)
			}
			_, _, err := runHTTP(url, 10, 2, tc.batch, 1)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestNearestRank: over 1..1000 ms, one sample each, the session report's
// p50, p99 and max are exactly 500, 990 and 1000 ms, and a single sample
// is every quantile.
func TestNearestRank(t *testing.T) {
	lats := make([]time.Duration, 1000)
	for i := range lats {
		lats[i] = time.Duration(i+1) * time.Millisecond
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 500 * time.Millisecond}, {0.99, 990 * time.Millisecond}, {0.999, 999 * time.Millisecond}, {1, 1000 * time.Millisecond}} {
		if got := nearestRank(lats, c.q); got != c.want {
			t.Errorf("nearestRank(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	one := []time.Duration{3 * time.Millisecond}
	if nearestRank(one, 0.5) != one[0] || nearestRank(one, 1) != one[0] {
		t.Errorf("one sample: p50 %v, max %v, want %v", nearestRank(one, 0.5), nearestRank(one, 1), one[0])
	}
}
