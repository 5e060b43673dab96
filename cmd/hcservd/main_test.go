package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"humancomp/internal/core"
	"humancomp/internal/dispatch"
	"humancomp/internal/task"
	"humancomp/internal/trace"
)

// proc is one running hcservd over the state in a directory.
type proc struct {
	cmd  *exec.Cmd
	url  string
	c    *dispatch.Client
	done chan struct{}
}

// get decodes the JSON body of GET path, for the routes dispatch.Client
// has no method for; a non-200 answer is an error.
func get[T any](n *proc, path string) (T, error) {
	var out T
	resp, err := http.Get(n.url + path)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// launch execs the binary on a free loopback port over dir's WAL and
// snapshot; it is not serving yet.
func launch(t *testing.T, bin, dir string) *proc {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.OpenFile(filepath.Join(dir, "hcservd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()
	n := &proc{done: make(chan struct{}), url: "http://" + addr, c: dispatch.NewClient("http://"+addr, nil)}
	n.cmd = exec.Command(bin,
		"-addr", addr,
		"-wal", filepath.Join(dir, "wal.log"),
		"-snapshot", filepath.Join(dir, "snap.json"),
		"-quality-online",
	)
	n.cmd.Stdout, n.cmd.Stderr = logf, logf
	if err := n.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		_ = n.cmd.Wait() // a SIGKILLed process's exit status says nothing
		close(n.done)
	}()
	t.Cleanup(func() { n.stop(t, syscall.SIGKILL) })
	return n
}

// startNode launches the binary over dir and returns once it serves.
func startNode(t *testing.T, bin, dir string) *proc {
	t.Helper()
	n := launch(t, bin, dir)
	for deadline := time.Now().Add(20 * time.Second); !n.c.HealthyContext(context.Background()); time.Sleep(5 * time.Millisecond) {
		select {
		case <-n.done:
			t.Fatalf("hcservd exited before serving; log:\n%s", readLog(dir))
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("hcservd not serving after 20s; log:\n%s", readLog(dir))
		}
	}
	return n
}

// stop signals the process and waits until it is gone.
func (n *proc) stop(t *testing.T, sig syscall.Signal) {
	t.Helper()
	_ = n.cmd.Process.Signal(sig)
	select {
	case <-n.done:
	case <-time.After(20 * time.Second):
		t.Error("hcservd did not exit")
	}
}

func readLog(dir string) string {
	b, _ := os.ReadFile(filepath.Join(dir, "hcservd.log"))
	return string(b)
}

// durable is what a restart must not change: the parts of GET /v1/stats
// that describe recovered state (the request counters beside them count
// since boot), one open task's posterior, and the calibration sidecar of
// the checkpoint the boot wrote.
type durable struct {
	Open, InFlight, Stored       int
	TrackedTasks, TrackedWorkers int
	Votes                        int
	Posterior                    []float64
	Calibration                  string
}

func observe(t *testing.T, n *proc, dir string, open task.ID) durable {
	t.Helper()
	st, err := n.c.StatsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	post, err := get[core.PosteriorInfo](n, fmt.Sprintf("/v1/tasks/%d/posterior", open))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "snap.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Calibration json.RawMessage `json:"calibration"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	return durable{
		Open: st.Queue.Open, InFlight: st.Queue.InFlight, Stored: st.StoredTasks,
		TrackedTasks: st.Quality.TrackedTasks, TrackedWorkers: st.Quality.TrackedWorkers,
		Votes: post.Votes, Posterior: post.Posterior,
		Calibration: string(snap.Calibration),
	}
}

// assertSame compares two observations; posteriors to 1e-9, since one may
// come from live updates and the other from replaying the same votes.
func assertSame(t *testing.T, when string, got, want durable) {
	t.Helper()
	if len(got.Posterior) != len(want.Posterior) {
		t.Fatalf("%s: posterior = %v, want %v", when, got.Posterior, want.Posterior)
	}
	for i := range want.Posterior {
		if math.Abs(got.Posterior[i]-want.Posterior[i]) > 1e-9 {
			t.Fatalf("%s: posterior = %v, want %v", when, got.Posterior, want.Posterior)
		}
	}
	got.Posterior, want.Posterior = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n got %+v\nwant %+v", when, got, want)
	}
}

// sidecar is the part of the calibration sidecar the workload determines.
type sidecar struct {
	Gold       map[task.ID]struct{ Choice int } `json:"gold"`
	Reputation struct {
		Correct map[string]float64 `json:"correct"`
		Total   map[string]float64 `json:"total"`
	} `json:"reputation"`
	OnlineDS struct {
		Workers map[string]json.RawMessage `json:"workers"`
		Tasks   map[string]json.RawMessage `json:"tasks"`
	} `json:"online_ds"`
}

func decodeSidecar(t *testing.T, d durable) sidecar {
	t.Helper()
	var sc sidecar
	if err := json.Unmarshal([]byte(d.Calibration), &sc); err != nil {
		t.Fatalf("decoding calibration sidecar %q: %v", d.Calibration, err)
	}
	return sc
}

// replayed is what a boot leaves in the serving system's process-lifetime
// observability, which no snapshot carries: gold answers scored, and
// whether the task's timeline opens with the store's persist event.
func replayed(t *testing.T, n *proc, id task.ID) (goldChecked int64, persisted bool) {
	t.Helper()
	st, err := n.c.StatsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := get[dispatch.TraceResponse](n, fmt.Sprintf("/v1/tasks/%d/trace", id))
	if err != nil {
		t.Fatal(err)
	}
	return st.GoldChecked, len(tr.Events) > 0 && tr.Events[0].Stage == trace.StagePersist
}

// TestCrashRestartKeepsRecoveredState drives the real binary: calibrate two
// workers on gold probes and vote on plain tasks over the wire, SIGKILL,
// and restart on the same -wal/-snapshot. The node must come back with the
// queue, the estimator and the reputation it was killed with — recovered
// into the one system it serves from and journals through — and a further
// clean restart, which replays nothing, must change none of it.
func TestCrashRestartKeepsRecoveredState(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "hcservd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building hcservd: %v\n%s", err, out)
	}
	dir := t.TempDir()
	n := startNode(t, bin, dir)

	// Gold probes carry image IDs from 100 up, expect choice id%2 and
	// outrank the plain tasks; two of three slots get filled, so every task
	// stays open and leasable.
	const probes, plain = 4, 3
	var probeReqs []dispatch.SubmitRequest
	for i := 0; i < probes; i++ {
		probeReqs = append(probeReqs, dispatch.SubmitRequest{
			Kind: task.Judge.String(), Payload: task.Payload{ImageID: 100 + i}, Redundancy: 3, Priority: 1,
			Gold: true, Expected: &task.Answer{Choice: i % 2},
		})
	}
	res, err := n.c.SubmitBatchContext(context.Background(), probeReqs)
	if err != nil {
		t.Fatal(err)
	}
	gold := map[task.ID]int{}
	for i, r := range res {
		if r.Status != http.StatusCreated {
			t.Fatalf("gold probe %d: %d %s", i, r.Status, r.Error)
		}
		gold[r.ID] = i % 2
	}
	var open task.ID
	for i := 0; i < plain; i++ {
		id, err := n.c.Submit(task.Judge, task.Payload{ImageID: i}, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		open = id
	}
	for i := 0; i < probes+plain; i++ {
		for _, w := range []string{"good", "bad"} {
			tv, lease, err := n.c.NextContext(context.Background(), w)
			if err != nil {
				t.Fatalf("leasing for %s: %v", w, err)
			}
			choice := tv.Payload.ImageID % 2
			if w == "bad" {
				choice = 1 - choice
			}
			if err := n.c.AnswerContext(context.Background(), lease, task.Answer{Choice: choice}); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := observe(t, n, dir, open)
	if before.Open != probes+plain || before.InFlight != 0 || before.Stored != probes+plain ||
		before.TrackedTasks != probes+plain || before.TrackedWorkers != 2 || before.Votes != 2 {
		t.Fatalf("state before the crash is not what the workload builds: %+v", before)
	}

	n.stop(t, syscall.SIGKILL)
	n = startNode(t, bin, dir)
	crashed := observe(t, n, dir, open)
	// The first boot checkpointed an empty system, so the sidecar the crash
	// boot wrote is checked against the workload itself.
	sc := decodeSidecar(t, crashed)
	if len(sc.Gold) != probes {
		t.Errorf("checkpoint holds %d gold expectations, want %d", len(sc.Gold), probes)
	}
	for id, choice := range gold {
		if got, ok := sc.Gold[id]; !ok || got.Choice != choice {
			t.Errorf("gold expectation for task %d = %+v (present %v), want choice %d", id, got, ok, choice)
		}
	}
	wantTotal := map[string]float64{"good": probes, "bad": probes}
	if !reflect.DeepEqual(sc.Reputation.Total, wantTotal) || sc.Reputation.Correct["good"] != probes || sc.Reputation.Correct["bad"] != 0 {
		t.Errorf("reputation in the checkpoint = %+v, want %d probes each, good all right, bad all wrong", sc.Reputation, probes)
	}
	if len(sc.OnlineDS.Workers) != 2 || len(sc.OnlineDS.Tasks) != probes+plain {
		t.Errorf("estimator in the checkpoint tracks %d workers and %d tasks, want 2 and %d",
			len(sc.OnlineDS.Workers), len(sc.OnlineDS.Tasks), probes+plain)
	}
	before.Calibration = crashed.Calibration
	assertSame(t, "after SIGKILL and recovery", crashed, before)
	// The node serves from the system it replayed into, so that system has
	// seen the tail (DESIGN §2.9): every replayed gold answer is counted
	// and every replayed submit is on the task's timeline.
	if checked, persisted := replayed(t, n, open); checked != 2*probes || !persisted {
		t.Errorf("after the crash boot: gold_checked %d, persist event %v; want %d and true", checked, persisted, 2*probes)
	}

	// Clean shutdown snapshots and truncates the WAL; the next boot replays
	// nothing and changes nothing, the checkpoint it writes included.
	n.stop(t, syscall.SIGTERM)
	if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || fi.Size() != 0 {
		t.Fatalf("wal after clean shutdown: %v, %v; want empty", fi, err)
	}
	n = startNode(t, bin, dir)
	assertSame(t, "after a clean restart", observe(t, n, dir, open), crashed)
	if checked, persisted := replayed(t, n, open); checked != 0 || persisted {
		t.Errorf("after the clean boot, which replays nothing: gold_checked %d, persist event %v; want 0 and false", checked, persisted)
	}
	if got := strings.Count(readLog(dir), "replayed wal events"); got != 1 {
		t.Errorf("%d boots replayed the wal, want only the one after SIGKILL; log:\n%s", got, readLog(dir))
	}

	// The recovered system is the journaled one: a recovered gold probe
	// still scores the worker who takes it, and that answer, acknowledged,
	// survives the next crash.
	tv, lease, err := n.c.NextContext(context.Background(), "late")
	if err != nil {
		t.Fatal(err)
	}
	if _, isGold := gold[tv.ID]; !isGold {
		t.Fatalf("leased task %d, want a gold probe", tv.ID)
	}
	if err := n.c.AnswerContext(context.Background(), lease, task.Answer{Choice: tv.Payload.ImageID % 2}); err != nil {
		t.Fatal(err)
	}
	n.stop(t, syscall.SIGKILL)
	n = startNode(t, bin, dir)
	last := observe(t, n, dir, open)
	if rep := decodeSidecar(t, last).Reputation; rep.Total["late"] != 1 || rep.Correct["late"] != 1 {
		t.Errorf("late worker's probe lost in the second crash: %+v", rep)
	}
	if last.Open != probes+plain-1 || last.Stored != probes+plain {
		t.Errorf("after the second crash: %+v, want the answered probe done and nothing else changed", last)
	}
	// The finished probe left the snapshot's estimator state when it
	// completed; its posterior is readable because its completion was
	// replayed, and only until the next boot that replays nothing.
	if checked, _ := replayed(t, n, tv.ID); checked != 1 {
		t.Errorf("after the second crash boot: gold_checked %d, want the one replayed answer", checked)
	}
	if post, err := get[core.PosteriorInfo](n, fmt.Sprintf("/v1/tasks/%d/posterior", tv.ID)); err != nil || !post.Done || post.Votes != 3 {
		t.Errorf("finished probe's posterior after replaying its completion: %+v, %v", post, err)
	}
	n.stop(t, syscall.SIGTERM)
	n = startNode(t, bin, dir)
	if _, err := get[core.PosteriorInfo](n, fmt.Sprintf("/v1/tasks/%d/posterior", tv.ID)); err == nil {
		t.Error("finished probe's posterior survived a clean restart; completed-task history is not durable state")
	}
}
