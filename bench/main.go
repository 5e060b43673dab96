// Command bench is the repository's benchmark: it builds hcservd from the
// checkout it runs in, drives it over loopback in the production
// configuration for the end-to-end metrics, and in a separate traced run
// replays the same seeded request stream against successively smaller
// in-process stacks for the per-layer metrics. README.md has the tables.
//
//	go run ./bench -seed 1                      every workload, untraced then traced
//	go run ./bench -workload worker_loop        one workload
//	go run ./bench -traced                      the traced runs only
//	go run ./bench -compare a.json b.json       two result files against the bounds
//
// With one workload and -trace 0 or 1, the last line of output is the
// result object BENCHMARK.json's contract asks for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// benchmarkFile is BENCHMARK.json: the names, units, directions and bounds
// this harness reports against.
type benchmarkFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// units maps every metric the file names to its unit.
func (b *benchmarkFile) units() map[string]string {
	out := make(map[string]string)
	for _, m := range b.EndToEnd {
		out[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		out[m.Name] = m.Unit
	}
	return out
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// resultFile is bench/out/result.json.
type resultFile struct {
	Seed     int64        `json:"seed"`
	Seconds  float64      `json:"seconds"`
	Clients  int          `json:"clients"`
	NumCPU   int          `json:"num_cpu"`
	Network  string       `json:"network"`
	BuildS   float64      `json:"build_s"`
	Runs     []*runResult `json:"runs"`
	Finished string       `json:"finished"`
}

func printRun(res *runResult) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Printf("# %s %s: seed %d, %d clients over loopback, stream_sha256 %s\n",
		res.Workload, mode, res.Seed, res.Clients, res.StreamSHA256)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%s %s %.6g %s\n", res.Workload, name, m.Value, m.Unit)
	}
	for _, rg := range res.Rungs {
		p := fmt.Sprintf("%s open_loop_%g", res.Workload, rg.RateReqPerS)
		fmt.Printf("%s.lat_p50_ms %.6g ms\n", p, rg.LatP50Ms)
		fmt.Printf("%s.lat_p99_ms %.6g ms\n", p, rg.LatP99Ms)
		fmt.Printf("%s.gen_lag_p50_us %.6g us\n", p, rg.GenLagP50Us)
		fmt.Printf("%s.gen_lag_p99_us %.6g us\n", p, rg.GenLagP99Us)
		fmt.Printf("%s.sent %d count\n", p, rg.Sent)
		fmt.Printf("%s.valid %t\n", p, rg.Valid)
		fmt.Printf("%s.met_limit %t\n", p, rg.MetLimit)
	}
	for _, c := range res.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Printf("# check %s %s: %s %s\n", res.Workload, c.Name, verdict, c.Detail)
	}
}

// contractLine prints the one-object result line: the metrics BENCHMARK.json
// lists for this mode, and nothing else.
func contractLine(res *runResult, specs []metricSpec) error {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]metric)}
	for _, s := range specs {
		m, ok := res.Metrics[s.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json lists %q, which the %s run did not produce", s.Name, res.Workload)
		}
		out.Metrics[s.Name] = metric{Value: m.Value, Unit: s.Unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all four)")
		seed         = flag.Int64("seed", 1, "seed of every generated input")
		seconds      = flag.Float64("seconds", 60, "measured seconds per run: half closed loop, half the open-loop ladder")
		traceMode    = flag.String("trace", "both", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; both")
		tracedOnly   = flag.Bool("traced", false, "shorthand for -trace 1")
		smoke        = flag.Bool("smoke", false, "2 s phases, a tenth of the preload, one open-loop rate: does it run, not how fast")
		compare      = flag.Bool("compare", false, "compare two result files (arguments: a.json b.json) against BENCHMARK.json's bounds")
	)
	flag.Parse()
	if *tracedOnly {
		*traceMode = "1"
	}

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	spec, err := readBenchmarkFile(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	}

	var todo []workload
	if *workloadName == "" {
		todo = append(todo, workloads...)
	} else if w := workloadByName(*workloadName); w != nil {
		todo = append(todo, *w)
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
		return 2
	}
	var modes []bool // traced?
	switch *traceMode {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fmt.Fprintf(os.Stderr, "bench: -trace %q: want 0, 1 or both\n", *traceMode)
		return 2
	}
	if *smoke {
		*seconds = 4
		for i := range todo {
			todo[i].preload /= 10
		}
	}

	h := &harness{
		outDir: filepath.Join(root, "bench", "out"),
		seed:   *seed, seconds: *seconds, smoke: *smoke,
		clients: min(runtime.NumCPU(), 4),
		runTag:  fmt.Sprintf("b%d-%d", os.Getpid(), time.Now().UnixNano()%1e9),
		units:   spec.units(),
	}
	if err := os.MkdirAll(h.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	killChildrenOnSignal()
	defer killAllChildren()
	// A panic must not leave servers behind either; re-raised after.
	defer func() {
		if p := recover(); p != nil {
			killAllChildren()
			panic(p)
		}
	}()

	var buildTook time.Duration
	if h.bin, buildTook, err = buildServer(root, h.outDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("# hcservd built in %.2f s; %d CPUs, %d load connections, loopback only\n",
		buildTook.Seconds(), runtime.NumCPU(), h.clients)

	out := resultFile{
		Seed: h.seed, Seconds: h.seconds, Clients: h.clients, NumCPU: runtime.NumCPU(),
		Network: "loopback", BuildS: buildTook.Seconds(),
	}
	ok := true
	for i := range todo {
		for _, traced := range modes {
			// Every run is bounded: a wedged server must not hang the caller.
			watchdog := time.AfterFunc(time.Duration(h.seconds*2)*time.Second+100*time.Second, func() {
				fmt.Fprintf(os.Stderr, "bench: %s run exceeded its time limit\n", todo[i].name)
				killAllChildren()
				os.Exit(3)
			})
			var res *runResult
			if traced {
				res, err = h.runTraced(&todo[i])
			} else {
				res, err = h.runUntraced(&todo[i])
			}
			watchdog.Stop()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", todo[i].name, err)
				return 1
			}
			printRun(res)
			out.Runs = append(out.Runs, res)
			ok = ok && res.Correct
		}
	}
	out.Finished = time.Now().UTC().Format(time.RFC3339)
	raw, err := json.MarshalIndent(out, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(h.outDir, "result.json"), append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	if len(out.Runs) == 1 {
		specs := spec.EndToEnd
		if out.Runs[0].Traced {
			specs = spec.PerLayer
		}
		if err := contractLine(out.Runs[0], specs); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}
