package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// reportedMetrics are end-to-end numbers the untraced run prints that no
// bound could hold on the reference host (throughput, CPU per item, tails
// and anything fsync-bound swing by tens of percent between identical runs
// whenever the machine's other tenants are busy); BENCHMARK.json carries
// them as per-layer metrics of the traced run. Shown, not judged — read
// them next to host_steal_ratio.
var reportedMetrics = []string{"items_per_s", "cpu_ms_per_kitem", "svc_p99_ms", "lat_p50_ms", "lat_p99_ms",
	"recovery_s", "slo_rate_req_per_s", "host_steal_ratio"}

// exactMetrics must repeat exactly between two runs of the same code and
// seed. fail_ratio is a zero, which no relative bound fits; that is also
// why BENCHMARK.json, whose metrics are never zero, does not list it.
// (slo_rate_req_per_s was meant to repeat exactly too; it is a step on a
// p99, and on the reference host it moves a rung between identical runs.)
var exactMetrics = []string{"fail_ratio"}

func readResults(path string) (map[string]*runResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]*runResult)
	for _, r := range f.Runs {
		if !r.Traced { // bounds are on end-to-end metrics, which only untraced runs report
			out[r.Workload] = r
		}
	}
	return out, nil
}

// worsening is how much worse b is than a, as a share of a; negative when
// b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return 1
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per workload and end-to-end metric, how b differs
// from a against the metric's bound, and returns non-zero when any metric
// is worse beyond it.
func compareFiles(spec *benchmarkFile, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	bad := 0
	fmt.Printf("%-18s %-20s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, w := range workloads {
		ra, rb := a[w.name], b[w.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, okA := ra.Metrics[m.Name]
			vb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				fmt.Printf("%-18s %-20s missing from a result file\n", w.name, m.Name)
				bad++
				continue
			}
			d := worsening(va.Value, vb.Value, m.Better)
			verdict := ""
			if d > m.Bound {
				verdict = "  REGRESSION"
				bad++
			}
			fmt.Printf("%-18s %-20s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n",
				w.name, m.Name, va.Value, vb.Value, d*100, m.Bound*100, verdict)
		}
		for _, name := range reportedMetrics {
			va, vb := ra.Metrics[name], rb.Metrics[name]
			better := "lower"
			if name == "items_per_s" || name == "slo_rate_req_per_s" {
				better = "higher"
			}
			fmt.Printf("%-18s %-20s %14.6g %14.6g %+8.1f%% %7s\n", w.name, name, va.Value, vb.Value,
				worsening(va.Value, vb.Value, better)*100, "none")
		}
		for _, name := range exactMetrics {
			va, vb := ra.Metrics[name], rb.Metrics[name]
			verdict := ""
			if va.Value != vb.Value {
				verdict = "  DIFFERS"
				bad++
			}
			fmt.Printf("%-18s %-20s %14.6g %14.6g %9s %7s%s\n", w.name, name, va.Value, vb.Value, "", "exact", verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("%d metrics beyond their bound\n", bad)
		return 1
	}
	return 0
}
