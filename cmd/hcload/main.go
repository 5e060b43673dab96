// Command hcload measures wire-level dispatch performance: it drives a
// live hcservd over real HTTP with an open-loop, coordinated-omission-safe
// arrival schedule and records per-operation latency distributions
// (p50/p99/p999 from exact HDR-style counts) into the BENCH_wire.json
// trajectory.
//
//	hcload -addr http://127.0.0.1:8080            # against a running server
//	hcload -servd ./hcservd -gomaxprocs 1,4       # spawn one server per value
//	hcload -servd ./hcservd -assert-clean         # the CI smoke invocation
//
// Open loop means arrivals never wait for completions: a stalled server
// accumulates scheduled requests whose queueing delay is charged to their
// latency, exactly as real clients would experience it. Closed-loop
// harnesses (wrk-style fixed workers) under-report tail latency by
// pausing the load when the server stalls.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"humancomp/internal/dispatch"
	"humancomp/internal/loadgen"
)

// wireFile is the schema of BENCH_wire.json: a trajectory of runs, one
// appended per invocation, so successive PRs accumulate comparable
// wire-level history. Earlier runs are carried as written, so an append
// never rewrites fields a later hcload no longer records.
type wireFile struct {
	Schema int               `json:"schema"`
	Runs   []json.RawMessage `json:"runs"`
}

type wireRun struct {
	Time        string     `json:"time"`
	GoVersion   string     `json:"go_version"`
	NumCPU      int        `json:"num_cpu"`
	Rate        float64    `json:"rate"`
	Duration    string     `json:"duration"`
	Warmup      string     `json:"warmup"`
	Concurrency int        `json:"concurrency"`
	Mix         string     `json:"mix"`
	Keys        int        `json:"keys"`
	ZipfS       float64    `json:"zipf_s"`
	BatchSize   int        `json:"batch_size"`
	Arrival     string     `json:"arrival"`
	Seed        uint64     `json:"seed"`
	Note        string     `json:"note"`
	Cells       []wireCell `json:"cells"`
}

// wireCell is one GOMAXPROCS point of the matrix.
type wireCell struct {
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Scheduled   int64              `json:"scheduled"`
	Completed   int64              `json:"completed"`
	AchievedRPS float64            `json:"achieved_rps"`
	Ops         []loadgen.OpReport `json:"ops"`
}

func main() {
	var (
		addr     = flag.String("addr", "", "base URL of a running dispatch server; empty spawns servers via -servd")
		servd    = flag.String("servd", "", "path to an hcservd binary to spawn per matrix cell")
		gmpList  = flag.String("gomaxprocs", "1,4", "comma-separated GOMAXPROCS values for spawned servers")
		rate     = flag.Float64("rate", 2000, "offered load in operations per second")
		duration = flag.Duration("duration", 10*time.Second, "measurement window per cell")
		warmup   = flag.Duration("warmup", 2*time.Second, "warmup before measurement (recorded separately, discarded)")
		conc     = flag.Int("concurrency", 256, "max in-flight operations (bounds parallelism, not arrivals)")
		mixFlag  = flag.String("mix", "submit=2,lease=2,answer=2,submit_batch=1,lease_batch=1,answer_batch=1", "op=weight list")
		keys     = flag.Int("keys", 1024, "key space size")
		zipfS    = flag.Float64("zipf", 1.1, "Zipf skew exponent over keys; 0 = uniform")
		batch    = flag.Int("batch", 16, "items per *_batch operation")
		seed     = flag.Uint64("seed", 1, "seed for the arrival schedule and key draws")
		arrival  = flag.String("arrival", "poisson", "inter-arrival law: poisson or uniform")
		out      = flag.String("out", "BENCH_wire.json", "trajectory file to append the run to; empty skips writing")
		clean    = flag.Bool("assert-clean", false, "exit nonzero if any operation returned a non-2xx response other than 429")
		doTrace  = flag.Bool("trace", false, "send traceparent headers and report each op's slowest calls' trace IDs")
		slowN    = flag.Int("slow-traces", 5, "slowest traced calls to keep per operation (with -trace)")
	)
	flag.Parse()

	mix, err := parseMix(*mixFlag)
	if err != nil {
		fail("%v", err)
	}
	cfg := loadgen.Config{
		Rate:        *rate,
		Duration:    *duration,
		Warmup:      *warmup,
		Concurrency: *conc,
		Mix:         mix,
		Keys:        *keys,
		ZipfS:       *zipfS,
		BatchSize:   *batch,
		Seed:        *seed,
		Arrival:     *arrival,
		Trace:       *doTrace,
		SlowTraces:  *slowN,
	}

	run := wireRun{
		Time:        time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Rate:        *rate,
		Duration:    duration.String(),
		Warmup:      warmup.String(),
		Concurrency: *conc,
		Mix:         *mixFlag,
		Keys:        *keys,
		ZipfS:       *zipfS,
		BatchSize:   *batch,
		Arrival:     *arrival,
		Seed:        *seed,
		Note: "open-loop fixed-rate arrivals; latency measured from intended start " +
			"(coordinated-omission safe), so queueing delay behind a saturated or " +
			"stalled server is charged to the affected operations. Latencies are " +
			"exact HDR-style counts, not samples. Cells spawn one hcservd each; " +
			"absolute numbers are host-dependent, the trajectory is the signal.",
	}

	switch {
	case *addr != "":
		rep, err := loadgen.Run(context.Background(), withBase(cfg, *addr))
		if err != nil {
			fail("load run against %s: %v", *addr, err)
		}
		cell := wireCell{
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			Scheduled:   rep.Scheduled,
			Completed:   rep.Completed,
			AchievedRPS: rep.AchievedRPS,
			Ops:         rep.Ops,
		}
		printCell(cell)
		run.Cells = append(run.Cells, cell)
	case *servd != "":
		gmps, err := parseInts(*gmpList)
		if err != nil {
			fail("-gomaxprocs: %v", err)
		}
		for _, gmp := range gmps {
			cell, err := runCell(*servd, gmp, cfg)
			if err != nil {
				fail("cell gomaxprocs=%d: %v", gmp, err)
			}
			printCell(cell)
			run.Cells = append(run.Cells, cell)
		}
	default:
		fail("one of -addr or -servd is required")
	}

	code := 0
	if *clean {
		for _, cell := range run.Cells {
			for _, op := range cell.Ops {
				if op.Errors > 0 {
					fmt.Fprintf(os.Stderr,
						"hcload: -assert-clean: %s at gomaxprocs=%d returned %d errors\n",
						op.Op, cell.GOMAXPROCS, op.Errors)
					code = 1
				}
			}
		}
	}

	if *out != "" {
		if err := appendRun(*out, run); err != nil {
			fail("writing %s: %v", *out, err)
		}
		fmt.Printf("hcload: appended run to %s\n", *out)
	}
	os.Exit(code)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hcload: "+format+"\n", args...)
	os.Exit(1)
}

func withBase(cfg loadgen.Config, base string) loadgen.Config {
	cfg.BaseURL = strings.TrimRight(base, "/")
	return cfg
}

// parseMix turns "submit=2,lease=1" into the engine's weight map.
func parseMix(s string) (map[string]float64, error) {
	mix := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, w, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("-mix entry %q: want op=weight", part)
		}
		weight, err := strconv.ParseFloat(w, 64)
		if err != nil || weight < 0 {
			return nil, fmt.Errorf("-mix entry %q: bad weight", part)
		}
		if weight > 0 {
			mix[name] = weight
		}
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("-mix %q selects no operations", s)
	}
	return mix, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// runCell boots one hcservd configured for the cell, loads it, and tears
// it down. The server's GOMAXPROCS comes from the environment so the
// binary needs no extra flags.
func runCell(servd string, gmp int, cfg loadgen.Config) (wireCell, error) {
	port, err := freePort()
	if err != nil {
		return wireCell{}, err
	}
	listen := fmt.Sprintf("127.0.0.1:%d", port)
	base := "http://" + listen

	args := []string{"-addr", listen, "-log-level", "warn"}
	if _, ok := cfg.Mix[loadgen.OpSession]; ok {
		// The session op needs the live session plane; a short matchmaking
		// wait keeps lone stragglers from idling out the cell.
		args = append(args, "-sessions", "64", "-match-timeout", "500ms")
	}
	cmd := exec.Command(servd, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", gmp))
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return wireCell{}, fmt.Errorf("starting %s: %w", servd, err)
	}
	defer stopServer(cmd)

	if err := waitHealthy(base, 15*time.Second); err != nil {
		return wireCell{}, err
	}
	fmt.Printf("--- gomaxprocs=%d (%s)\n", gmp, base)
	rep, err := loadgen.Run(context.Background(), withBase(cfg, base))
	if err != nil {
		return wireCell{}, err
	}
	return wireCell{
		GOMAXPROCS:  gmp,
		Scheduled:   rep.Scheduled,
		Completed:   rep.Completed,
		AchievedRPS: rep.AchievedRPS,
		Ops:         rep.Ops,
	}, nil
}

// freePort reserves an ephemeral port by binding and releasing it. The
// tiny window before the server rebinds is acceptable for a local bench.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func waitHealthy(base string, timeout time.Duration) error {
	client := dispatch.NewClient(base, nil)
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		ok := client.HealthyContext(ctx)
		cancel()
		if ok {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("server at %s not healthy after %v", base, timeout)
}

func stopServer(cmd *exec.Cmd) {
	if cmd.Process == nil {
		return
	}
	_ = cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _ = cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = cmd.Process.Kill()
		<-done
	}
}

func printCell(cell wireCell) {
	fmt.Printf("gomaxprocs=%d scheduled=%d completed=%d achieved=%.0f op/s\n",
		cell.GOMAXPROCS, cell.Scheduled, cell.Completed, cell.AchievedRPS)
	fmt.Printf("  %-13s %8s %6s %6s %6s %7s  %8s %8s %8s %8s %9s\n",
		"op", "count", "err", "shed", "empty", "skipped", "mean_ms", "p50_ms", "p99_ms", "p999_ms", "max_ms")
	for _, op := range cell.Ops {
		fmt.Printf("  %-13s %8d %6d %6d %6d %7d  %8.2f %8.2f %8.2f %8.2f %9.2f\n",
			op.Op, op.Count, op.Errors, op.Shed, op.Empty, op.Skipped,
			op.Latency.MeanMs, op.Latency.P50Ms, op.Latency.P99Ms, op.Latency.P999Ms, op.Latency.MaxMs)
		for _, st := range op.SlowTraces {
			fmt.Printf("    slow trace %s  %8.2f ms  status=%d  (GET /v1/debug/spans?trace=%s)\n",
				st.TraceID, st.Ms, st.Status, st.TraceID)
		}
	}
}

// appendRun loads the trajectory (tolerating a missing file), appends the
// run and writes it back.
func appendRun(path string, run wireRun) error {
	var file wireFile
	raw, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		file.Schema = 1
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(raw, &file); err != nil {
			return fmt.Errorf("parsing existing trajectory: %w", err)
		}
	}
	if file.Schema == 0 {
		file.Schema = 1
	}
	rec, err := json.Marshal(run)
	if err != nil {
		return err
	}
	file.Runs = append(file.Runs, rec)
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
