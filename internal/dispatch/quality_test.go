package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"humancomp/internal/core"
	"humancomp/internal/task"
)

// newQualityServer wires a dispatch server over a system running the
// online quality plane with the given confidence target.
func newQualityServer(t testing.TB, target float64) (*Client, *core.System) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.OnlineQuality = true
	cfg.ConfidenceTarget = target
	cfg.QualityMinAnswers = 2
	sys := core.New(cfg)
	srv := httptest.NewServer(NewServer(sys))
	t.Cleanup(srv.Close)
	return NewClient(srv.URL, srv.Client()), sys
}

// calibrateOverHTTP runs gold Judge probes through the public API so the
// named workers earn reputation and sharpened confusion priors.
func calibrateOverHTTP(t *testing.T, c *Client, workers []string, probes int) {
	t.Helper()
	for i := 0; i < probes; i++ {
		submitGold(t, c, task.Judge, task.Payload{ImageID: 9000 + i}, len(workers), 0, task.Answer{Choice: i % 2})
		for _, w := range workers {
			tk, lease, err := c.NextContext(context.Background(), w)
			if err != nil {
				t.Fatalf("lease probe for %s: %v", w, err)
			}
			if err := c.AnswerContext(context.Background(), lease, task.Answer{Choice: tk.Payload.ImageID % 2}); err != nil {
				t.Fatalf("answer probe: %v", err)
			}
		}
	}
}

func TestPosteriorEndpoint(t *testing.T) {
	c, _ := newQualityServer(t, 0) // no early completion, just posteriors
	workers := []string{"w1", "w2"}
	calibrateOverHTTP(t, c, workers, 4)

	id, err := c.Submit(task.Judge, task.Payload{ImageID: 1}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	// No answers yet: estimator holds no state for the task.
	if _, err := c.Posterior(id); err == nil {
		t.Fatal("expected error for task without answers")
	} else {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
			t.Fatalf("want 404, got %v", err)
		}
	}

	_, lease, err := c.NextContext(context.Background(), "w1")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AnswerContext(context.Background(), lease, task.Answer{Choice: 1}); err != nil {
		t.Fatal(err)
	}
	info, err := c.Posterior(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.TaskID != id || info.Votes != 1 || info.Done {
		t.Fatalf("posterior info = %+v", info)
	}
	if len(info.Posterior) != 2 {
		t.Fatalf("posterior has %d classes, want 2", len(info.Posterior))
	}
	if info.Confidence <= 0.5 || info.Confidence > 1 {
		t.Fatalf("confidence = %v, want in (0.5, 1]", info.Confidence)
	}
	if info.Posterior[1] <= info.Posterior[0] {
		t.Fatalf("calibrated worker voted 1, posterior leans 0: %v", info.Posterior)
	}
}

func TestPosteriorDisabled(t *testing.T) {
	c, _ := newTestServer(t) // DefaultConfig: quality off
	id, err := c.Submit(task.Judge, task.Payload{ImageID: 1}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Posterior(id)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("want 422 when quality disabled, got %v", err)
	}
}

// TestBatchAnswerCarriesPosterior drives a Judge task through the batched
// answer path and checks that the per-item envelope reports confidence,
// posterior and the early-done flag.
func TestBatchAnswerCarriesPosterior(t *testing.T) {
	c, sys := newQualityServer(t, 0.95)
	workers := []string{"w1", "w2", "w3"}
	calibrateOverHTTP(t, c, workers, 8)

	id, err := c.Submit(task.Judge, task.Payload{ImageID: 2}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	var items []BatchAnswerItem
	for _, w := range workers[:2] {
		_, lease, err := c.NextContext(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, BatchAnswerItem{Lease: lease, Answer: task.Answer{Choice: 1}})
	}
	results, err := c.AnswerBatchContext(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for i, res := range results {
		if res.Status != http.StatusNoContent {
			t.Fatalf("item %d: status %d (%s)", i, res.Status, res.Error)
		}
		if res.Confidence <= 0 || len(res.Posterior) != 2 {
			t.Fatalf("item %d missing posterior payload: %+v", i, res)
		}
	}
	// Two agreeing calibrated votes should cross 0.95 and finish early.
	last := results[len(results)-1]
	if !last.EarlyDone {
		t.Fatalf("second vote did not complete early: %+v (confidence %v)", last, last.Confidence)
	}
	v, err := c.TaskContext(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != task.Done || len(v.Answers()) != 2 {
		t.Fatalf("task after early finish: status=%v answers=%d", v.Status, len(v.Answers()))
	}
	if st := sys.QualityStats(); st.EarlyCompleted != 1 || st.RedundancySaved != 3 {
		t.Fatalf("quality stats = %+v", st)
	}
}

func TestBadChoiceRejectedOverHTTP(t *testing.T) {
	c, _ := newQualityServer(t, 0)
	if _, err := c.Submit(task.Judge, task.Payload{ImageID: 3}, 2, 0); err != nil {
		t.Fatal(err)
	}
	_, lease, err := c.NextContext(context.Background(), "w1")
	if err != nil {
		t.Fatal(err)
	}
	err = c.AnswerContext(context.Background(), lease, task.Answer{Choice: 7})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("want 422 for out-of-range choice, got %v", err)
	}
	if !strings.Contains(apiErr.Message, "choice out of range") {
		t.Fatalf("error message %q does not name the bad choice", apiErr.Message)
	}
	// Batch path carries the same per-item status.
	results, err := c.AnswerBatchContext(context.Background(), []BatchAnswerItem{{Lease: lease, Answer: task.Answer{Choice: -1}}})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Status != http.StatusUnprocessableEntity {
		t.Fatalf("batch item status = %d, want 422", results[0].Status)
	}
}

// TestAdminQualityMetrics scrapes /metrics and checks that the quality
// families appear once the plane has observed answers.
func TestAdminQualityMetrics(t *testing.T) {
	c, sys := newQualityServer(t, 0.95)
	calibrateOverHTTP(t, c, []string{"w1", "w2"}, 6)

	id, err := c.Submit(task.Judge, task.Payload{ImageID: 4}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"w1", "w2"} {
		_, lease, err := c.NextContext(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AnswerContext(context.Background(), lease, task.Answer{Choice: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := c.TaskContext(context.Background(), id); err != nil || v.Status != task.Done {
		t.Fatalf("task not early-finished: %+v, %v", v, err)
	}

	admin := httptest.NewServer(NewAdminHandler(sys, nil, AdminOptions{}))
	defer admin.Close()
	resp, err := http.Get(admin.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	n := sys.QualityStats().ConfidenceCount
	if n == 0 {
		t.Fatal("no confidence observed")
	}
	for _, fam := range []string{
		"hc_quality_early_completed_total 1",
		"hc_redundancy_saved_total 3",
		"# TYPE hc_quality_posterior_confidence histogram",
		fmt.Sprintf("hc_quality_posterior_confidence_bucket{le=\"+Inf\"} %d\n", n),
		fmt.Sprintf("hc_quality_posterior_confidence_count %d\n", n),
		"hc_quality_online_batch_divergence",
		"hc_quality_tracked_workers 2",
	} {
		if !strings.Contains(text, fam) {
			t.Errorf("metrics exposition missing %q", fam)
		}
	}
}

// TestQualityStatsOverHTTP checks the quality block rides in GET /v1/stats.
func TestQualityStatsOverHTTP(t *testing.T) {
	c, _ := newQualityServer(t, 0)
	calibrateOverHTTP(t, c, []string{"w1"}, 2)
	st, err := c.StatsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Quality.Enabled {
		t.Fatal("quality stats not enabled over HTTP")
	}
	if st.Quality.TrackedWorkers != 1 {
		t.Fatalf("tracked workers = %d, want 1", st.Quality.TrackedWorkers)
	}
	// The raw JSON must carry the quality block for non-Go consumers.
	resp, err := http.Get(fmt.Sprintf("%s/v1/stats", c.baseURL))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["quality"]; !ok {
		t.Fatal("stats JSON missing quality block")
	}
}
