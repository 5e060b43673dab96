package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

func TestStreamDeterminism(t *testing.T) {
	for i := range workloads {
		w := workloads[i]
		w.preload /= 10 // the fingerprint covers the preload; keep the test quick
		a, b := streamSHA256(&w, 1, 2, preloadBodies(&w, 1)), streamSHA256(&w, 1, 2, preloadBodies(&w, 1))
		if a != b {
			t.Errorf("%s: same seed gave %s then %s", w.name, a, b)
		}
		if c := streamSHA256(&w, 2, 2, preloadBodies(&w, 2)); c == a {
			t.Errorf("%s: seeds 1 and 2 gave the same stream %s", w.name, a)
		}
	}
	c := newCrowd(7)
	for task := int64(1); task < 100; task++ {
		if c.vote(3, task) != c.vote(3, task) {
			t.Fatal("vote is not a function of its inputs")
		}
	}
}

// mk builds a sample completing at `at` seconds with latency `ms`.
func mk(at, ms float64, items int, ok bool) sample {
	return sample{
		at:  time.Duration(at * float64(time.Second)),
		lat: time.Duration(ms * float64(time.Millisecond)), items: int32(items), ok: ok,
	}
}

func TestWindowedEstimators(t *testing.T) {
	// Four whole windows of 1000 samples: latencies 1..1000 ms scaled per
	// window, so the per-window p99s are 0.99, 9.9, 1.98 and 2.97. One window
	// is a burst; the median ignores it. A ragged fifth window is dropped.
	var ss []sample
	scale := []float64{0.001, 0.01, 0.002, 0.003}
	for w, sc := range scale {
		for i := 1; i <= 1000; i++ {
			ss = append(ss, mk(float64(w)+float64(i)/1001, float64(i)*sc, 2, true))
		}
	}
	ss = append(ss, mk(4.2, 5000, 1000, true))
	phase := 4500 * time.Millisecond
	if got := windowedP99(ss, phase); math.Abs(got-1.98) > 1e-9 {
		t.Errorf("windowedP99 = %v, want 1.98 (the median window's p99)", got)
	}
	// Window 1 is also where the hypervisor took a third of the machine.
	ticks := []hostTick{{0, 0}, {200, 2}, {400, 72}, {600, 74}, {800, 76}}
	ws := windowStats(ss, phase, ticks)
	if len(ws) != 4 || ws[0].StealRatio != 0.01 || ws[1].StealRatio != 0.35 {
		t.Fatalf("windows = %+v, want four with steal 0.01, 0.35, ...", ws)
	}
	if got := medianItemsPerSec(ws); got != 2000 {
		t.Errorf("medianItemsPerSec = %v, want 2000", got)
	}
	if got := meanSteal(ws); math.Abs(got-0.095) > 1e-12 {
		t.Errorf("meanSteal = %v, want 0.095", got)
	}
	// A bimodal mix: 3 fast requests for every 4 slow ones. The pooled
	// median sits on the slow mode's edge; the mix-weighted one does not.
	var mix []sample
	for i := 0; i < 300; i++ {
		s := mk(0.5, 1, 1, true)
		s.kind = opLeaseBatch
		mix = append(mix, s)
	}
	for i := 0; i < 400; i++ {
		s := mk(0.5, 18+float64(i%5), 1, true)
		s.kind = opSubmitBatch
		mix = append(mix, s)
	}
	if got, want := mixP50(mix), (300*1.0+400*20.0)/700; math.Abs(got-want) > 1e-9 {
		t.Errorf("mixP50 = %v, want %v", got, want)
	}
	// Thin windows fall back to the p99 of the whole phase.
	thin := []sample{mk(0.1, 1, 1, true), mk(1.1, 2, 1, true), mk(2.1, 3, 1, true)}
	if got := windowedP99(thin, 3*time.Second); got != 3 {
		t.Errorf("thin windowedP99 = %v, want 3", got)
	}
	// A failed request misses any limit.
	thin[2].ok = false
	if got := windowedP99(thin, 3*time.Second); !math.IsInf(got, 1) {
		t.Errorf("p99 over a failed request = %v, want +Inf", got)
	}
	if got := finite(math.Inf(1)); got != unmeasurable {
		t.Errorf("finite(+Inf) = %v", got)
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2 {
		t.Errorf("median of 1..4 = %v, want 2 (nearest rank)", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{I: 0, Name: "wire", Start: 0, End: 100},
		{I: 0, Name: "dispatch.handler_submit", Start: 0, End: 60, Parent: "wire"},
		{I: 0, Name: "core.submit", Start: 0, End: 25, Parent: "dispatch.handler_submit"},
		{I: 0, Name: "jsonx.unmarshal_submit", Start: 0, End: 5, Parent: "dispatch.handler_submit"},
		{I: 0, Name: "queue.add", Start: 0, End: 4, Parent: "core.submit"},
		{I: 0, Name: "store.wal_append", Start: 0, End: 11, Parent: "core.submit"},
		// Request 1 never reached the lower rungs.
		{I: 1, Name: "wire", Start: 0, End: 90},
	}
	self := selfTimes(commonIndices(spans))
	want := map[string]time.Duration{
		"wire": 40, "dispatch.handler_submit": 30, "core.submit": 10,
		"jsonx.unmarshal_submit": 5, "queue.add": 4, "store.wal_append": 11,
	}
	for name, d := range want {
		if got := self[name]; len(got) != 1 || got[0] != d {
			t.Errorf("self[%s] = %v, want [%v]", name, got, d)
		}
	}
	var total time.Duration
	for _, ds := range self {
		total += ds[0]
	}
	if total != 100 {
		t.Errorf("self times sum to %v, want the root's 100", total)
	}
	if got := subtractByIndex(spans, "dispatch.handler_", "core."); len(got) != 1 || got[0] != 35 {
		t.Errorf("handler minus core = %v, want [35]", got)
	}
}

func TestLateAnswer(t *testing.T) {
	cases := []struct {
		status int
		body   string
		late   bool
	}{
		{http.StatusConflict, `{"error":"task: not open"}`, true},
		{http.StatusNotFound, `{"error":"queue: unknown task"}`, true},
		{http.StatusConflict, `{"error":"task: worker already answered this task"}`, false},
		{http.StatusNotFound, `{"error":"queue: unknown lease"}`, false},
		{http.StatusNoContent, ``, false},
	}
	for _, c := range cases {
		if got := lateAnswer(c.status, []byte(c.body)); got != c.late {
			t.Errorf("lateAnswer(%d, %s) = %v", c.status, c.body, got)
		}
	}
}

func writeResult(t *testing.T, dir, name string, metrics map[string]float64) string {
	t.Helper()
	r := &runResult{Workload: "worker_loop", Metrics: make(map[string]metric)}
	for k, v := range metrics {
		r.Metrics[k] = metric{Value: v}
	}
	raw, err := json.Marshal(resultFile{Runs: []*runResult{r}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	if d := worsening(100, 90, "higher"); math.Abs(d-0.1) > 1e-12 {
		t.Errorf("throughput 100→90 worsens by %v, want 0.1", d)
	}
	if d := worsening(2, 2.5, "lower"); math.Abs(d-0.25) > 1e-12 {
		t.Errorf("latency 2→2.5 worsens by %v, want 0.25", d)
	}
	if d := worsening(2, 1, "lower"); d >= 0 {
		t.Errorf("an improvement reads as worsening %v", d)
	}
	spec := &benchmarkFile{EndToEnd: []metricSpec{
		{Name: "items_per_s", Better: "higher", Bound: 0.1},
		{Name: "svc_p50_ms", Better: "lower", Bound: 0.1},
	}}
	dir := t.TempDir()
	base := map[string]float64{"items_per_s": 1000, "svc_p50_ms": 1, "slo_rate_req_per_s": 1500, "fail_ratio": 0}
	a := writeResult(t, dir, "a.json", base)
	within := writeResult(t, dir, "b.json", map[string]float64{"items_per_s": 950, "svc_p50_ms": 1.05, "slo_rate_req_per_s": 1500, "fail_ratio": 0})
	beyond := writeResult(t, dir, "c.json", map[string]float64{"items_per_s": 850, "svc_p50_ms": 1, "slo_rate_req_per_s": 1500, "fail_ratio": 0})
	failing := writeResult(t, dir, "d.json", map[string]float64{"items_per_s": 1000, "svc_p50_ms": 1, "slo_rate_req_per_s": 750, "fail_ratio": 0.001})
	if code := compareFiles(spec, a, within); code != 0 {
		t.Errorf("within bounds: exit %d, want 0", code)
	}
	if code := compareFiles(spec, a, beyond); code != 1 {
		t.Errorf("15%% fewer items/s at a 10%% bound: exit %d, want 1", code)
	}
	if code := compareFiles(spec, a, failing); code != 1 {
		t.Errorf("a fail ratio that moved off zero: exit %d, want 1", code)
	}
}

// TestSmoke runs every workload, untraced and traced, with short phases
// and a tenth of the preload: the harness builds, boots, crashes, recovers
// and verifies a real hcservd, so a change that breaks the harness (or an
// API the adapter file calls) fails tier-1, not the next long run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots hcservd processes; skipped under -short")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{
		outDir: t.TempDir(), seed: 1, seconds: 4, smoke: true,
		clients: min(runtime.NumCPU(), 4), runTag: "smoke", units: spec.units(),
	}
	t.Cleanup(killAllChildren)
	if h.bin, _, err = buildServer(root, h.outDir); err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := workloads[i]
		w.preload /= 10
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				run, listed := h.runUntraced, spec.EndToEnd
				if traced {
					run, listed = h.runTraced, spec.PerLayer
				}
				res, err := run(&w)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				for _, c := range res.Checks {
					if !c.OK {
						t.Errorf("traced=%v: check %s failed: %s", traced, c.Name, c.Detail)
					}
				}
				for _, m := range listed {
					if _, ok := res.Metrics[m.Name]; !ok {
						t.Errorf("traced=%v: BENCHMARK.json lists %s, the run did not report it", traced, m.Name)
					}
				}
				if traced {
					if _, err := os.Stat(filepath.Join(h.outDir, "trace-"+w.name+".jsonl")); err != nil {
						t.Errorf("no span file: %v", err)
					}
				}
			}
		})
	}
}

// TestGeneratorLateness is the generator's self-check: the open-loop
// scheduler must not be the thing measured. time.Timer wakes a median
// 0.6 ms late; the nanosleep scheduler must stay under 0.2 ms on an idle
// host. `go test ./...` runs other packages beside this one, so the best of
// a few short attempts counts; and a host whose hypervisor was handing its
// CPUs to other guests meanwhile is not idle, which skips the verdict.
func TestGeneratorLateness(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped under -short")
	}
	total0, steal0, _ := hostCPU()
	best := math.Inf(1)
	for attempt := 0; attempt < 5 && best >= 200; attempt++ {
		out := make(chan arrival, 4096)
		done := make(chan struct{})
		go func() {
			for range out {
			}
			close(done)
		}()
		lag := schedule(rand.New(rand.NewSource(int64(attempt))), 1000, 400*time.Millisecond, out)
		<-done
		best = math.Min(best, durQuantile(lag, 0.5))
	}
	if best < 200 {
		return
	}
	total1, steal1, _ := hostCPU()
	if steal := (steal1 - steal0) / (total1 - total0); steal > 0.02 {
		t.Skipf("lateness p50 = %.0f us, but the host is not idle: %.0f%% of its CPU time was stolen", best, steal*100)
	}
	t.Errorf("open-loop scheduler lateness p50 = %.0f us on the best of 5 attempts, want < 200 us", best)
}
