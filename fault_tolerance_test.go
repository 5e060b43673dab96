package humancomp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"humancomp/internal/core"
	"humancomp/internal/dispatch"
	"humancomp/internal/faultinject"
	"humancomp/internal/node"
	"humancomp/internal/repl"
	"humancomp/internal/store"
	"humancomp/internal/task"
)

// soakTraffic drives a deterministic submit/lease/answer workload against
// a journaled system, pressing on through journal failures (the writer may
// die mid-run). It returns which events were acknowledged: exactly the
// operations whose core call returned nil, i.e. whose WAL append flushed.
func soakTraffic(sys *core.System) (ackedTasks map[task.ID]bool, ackedAnswers map[task.ID]int) {
	ackedTasks = make(map[task.ID]bool)
	ackedAnswers = make(map[task.ID]int)
	for i := 1; i <= 12; i++ {
		id, err := sys.SubmitTask(task.Label, task.Payload{ImageID: i}, 1, 0)
		if err == nil {
			ackedTasks[id] = true
		}
		tv, lease, err := sys.NextTask("w")
		if err != nil {
			continue
		}
		if err := sys.SubmitAnswer(lease, task.Answer{Words: []int{int(tv.ID)}}); err == nil {
			ackedAnswers[tv.ID]++
		}
	}
	return ackedTasks, ackedAnswers
}

// TestCrashRecoverySoak cuts the WAL's backing file at 50 distinct byte
// offsets — each modeling a crash mid-write at a different point — and
// checks the acknowledgment contract after every one: an event survives
// recovery if and only if its append was acknowledged. No acked event is
// lost, no unacked event resurfaces, no task is duplicated, and a second
// restart from the truncated file is clean.
func TestCrashRecoverySoak(t *testing.T) {
	// Reference run against an in-memory log to learn the full log size.
	var ref bytes.Buffer
	refCfg := core.DefaultConfig()
	refCfg.Journal = store.NewWAL(&ref)
	soakTraffic(core.New(refCfg))
	total := int64(ref.Len())
	if total < 100 {
		t.Fatalf("reference log implausibly small: %d bytes", total)
	}

	const trials = 50
	dir := t.TempDir()
	seen := make(map[int64]bool)
	for k := 0; k < trials; k++ {
		// Offsets spread evenly across the log, endpoints excluded so
		// every trial dies somewhere strictly mid-stream.
		cut := 1 + k*(int(total)-2)/(trials-1)
		if seen[int64(cut)] {
			t.Fatalf("offset %d repeated; log too small for %d distinct trials", cut, trials)
		}
		seen[int64(cut)] = true
		t.Run(fmt.Sprintf("cut@%d", cut), func(t *testing.T) {
			path := filepath.Join(dir, fmt.Sprintf("wal-%d.log", cut))
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.Journal = store.NewWAL(faultinject.NewCutWriter(f, int64(cut)))
			ackedTasks, ackedAnswers := soakTraffic(core.New(cfg))
			f.Close() // crash: in-memory state is gone, only the file remains

			ackedEvents := len(ackedTasks)
			for _, n := range ackedAnswers {
				ackedEvents += n
			}

			recovered := core.New(core.DefaultConfig())
			rf, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer rf.Close()
			st, err := store.RecoverWAL(rf, recovered.Store())
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			if st.Applied != ackedEvents {
				t.Fatalf("recovered %d events, acked %d (lost or resurrected work)",
					st.Applied, ackedEvents)
			}
			if got := recovered.Store().Len(); got != len(ackedTasks) {
				t.Fatalf("recovered %d tasks, acked %d", got, len(ackedTasks))
			}
			for id := range ackedTasks {
				tk, err := recovered.Task(id)
				if err != nil {
					t.Fatalf("acked task %d lost: %v", id, err)
				}
				if len(tk.Answers) != ackedAnswers[id] {
					t.Fatalf("task %d has %d answers, acked %d", id, len(tk.Answers), ackedAnswers[id])
				}
			}

			// The damaged tail must be gone from disk, and a second
			// restart from the same file must be byte-clean.
			info, err := rf.Stat()
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() != st.GoodBytes {
				t.Fatalf("file is %d bytes after recovery, want %d", info.Size(), st.GoodBytes)
			}
			if _, err := rf.Seek(0, 0); err != nil {
				t.Fatal(err)
			}
			again := core.New(core.DefaultConfig())
			st2, err := store.RecoverWAL(rf, again.Store())
			if err != nil {
				t.Fatalf("second recovery failed: %v", err)
			}
			if st2.Applied != st.Applied || st2.TruncatedBytes != 0 {
				t.Fatalf("second recovery: applied %d truncated %d, want %d/0",
					st2.Applied, st2.TruncatedBytes, st.Applied)
			}
		})
	}
}

// nodeConfig is hcservd's defaults over the state in dir, on a free loopback
// port, with the online estimator on.
func nodeConfig(dir string) node.Config {
	cfg := node.Config{
		Addr:            "127.0.0.1:0",
		Snapshot:        filepath.Join(dir, "snap.json"),
		WAL:             filepath.Join(dir, "wal.log"),
		WALSync:         "interval",
		WALSyncInterval: 100 * time.Millisecond,
		ExpiryInterval:  time.Hour,
		Core:            core.DefaultConfig(),
	}
	cfg.Core.OnlineQuality = true
	return cfg
}

// TestCalibrationSurvivesCrashRecovery is the regression test for the
// quality plane's durability: gold-probe expectations, reputation tallies
// and the online estimator's posteriors must all be rebuilt from the
// journal after a crash. Under the old in-memory-only behavior a restart
// silently forgot every gold expectation and reputation tally, so this
// test fails against it.
func TestCalibrationSurvivesCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	n, err := node.Open(nodeConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	sys := n.System()

	// Calibrate two workers on gold probes: good always right, bad always
	// wrong.
	const probes = 6
	goldIDs := make([]task.ID, probes)
	for i := 0; i < probes; i++ {
		// Redundancy 3 leaves one slot per probe unfilled, so gold tasks
		// are still leasable after recovery.
		id, err := sys.SubmitGold(task.Judge, task.Payload{ImageID: 100 + i}, 3, 0, task.Answer{Choice: i % 2})
		if err != nil {
			t.Fatal(err)
		}
		goldIDs[i] = id
	}
	for i := 0; i < probes; i++ {
		for _, w := range []string{"good", "bad"} {
			tv, lease, err := sys.NextTask(w)
			if err != nil {
				t.Fatalf("leasing probe for %s: %v", w, err)
			}
			choice := (tv.Payload.ImageID - 100) % 2
			if w == "bad" {
				choice = 1 - choice
			}
			if err := sys.SubmitAnswer(lease, task.Answer{Choice: choice}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One in-flight Judge task with a single vote.
	open, err := sys.SubmitTask(task.Judge, task.Payload{ImageID: 7}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, lease, err := sys.NextTask("good"); err != nil {
		t.Fatal(err)
	} else if err := sys.SubmitAnswer(lease, task.Answer{Choice: 1}); err != nil {
		t.Fatal(err)
	}
	wantPost, err := sys.TaskPosterior(open)
	if err != nil {
		t.Fatal(err)
	}
	wantGoodAcc := sys.Reputation().Accuracy("good")
	wantBadAcc := sys.Reputation().Accuracy("bad")
	if wantGoodAcc <= wantBadAcc {
		t.Fatalf("calibration failed before crash: good=%v bad=%v", wantGoodAcc, wantBadAcc)
	}

	// Crash: what survives is the boot snapshot of an empty system and the
	// journal, as they sit on disk this instant. A second node boots from a
	// copy of the two.
	image := t.TempDir()
	for _, name := range []string{"snap.json", "wal.log"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(image, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rn, err := node.Open(nodeConfig(image))
	if err != nil {
		t.Fatalf("booting from the crash image: %v", err)
	}
	defer rn.Close()
	recovered := rn.System()

	rep := recovered.Reputation()
	if got := rep.Probes("good"); got != probes {
		t.Fatalf("good worker has %d probes after recovery, want %d", got, probes)
	}
	if got := rep.Accuracy("good"); got != wantGoodAcc {
		t.Fatalf("good worker accuracy %v after recovery, want %v", got, wantGoodAcc)
	}
	if got := rep.Accuracy("bad"); got != wantBadAcc {
		t.Fatalf("bad worker accuracy %v after recovery, want %v", got, wantBadAcc)
	}
	for _, id := range goldIDs {
		if !recovered.IsGold(id) {
			t.Fatalf("gold expectation for task %d lost in recovery", id)
		}
	}
	// The in-flight posterior is rebuilt from the replayed votes.
	gotPost, err := recovered.TaskPosterior(open)
	if err != nil {
		t.Fatalf("posterior lost in recovery: %v", err)
	}
	if gotPost.Votes != wantPost.Votes {
		t.Fatalf("recovered %d votes, want %d", gotPost.Votes, wantPost.Votes)
	}
	for i := range wantPost.Posterior {
		if diff := gotPost.Posterior[i] - wantPost.Posterior[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("recovered posterior %v, want %v", gotPost.Posterior, wantPost.Posterior)
		}
	}
	// A recovered gold task must keep scoring reputation: the next worker
	// to answer one gets a tally.
	tv, lease, err := recovered.NextTask("late")
	if err != nil {
		t.Fatal(err)
	}
	if !recovered.IsGold(tv.ID) {
		t.Fatalf("expected a gold task to still be leasable, got task %d", tv.ID)
	}
	if err := recovered.SubmitAnswer(lease, task.Answer{Choice: (tv.Payload.ImageID - 100) % 2}); err != nil {
		t.Fatal(err)
	}
	if got := rep.Probes("late"); got != 1 {
		t.Fatalf("late worker has %d probes, want 1 (recovered gold no longer scores)", got)
	}
}

// replWaitFor polls cond until it holds or the deadline passes.
func replWaitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// replSoakTraffic drives submits, leases and answers through the public
// HTTP API, pressing on through server-side failures (the leader's WAL may
// die mid-run). Acknowledged operations — the ones whose call returned
// nil — are exactly the durable, replicable set.
func replSoakTraffic(c *dispatch.Client) (ackedTasks map[task.ID]bool, ackedAnswers map[task.ID]int) {
	ackedTasks = make(map[task.ID]bool)
	ackedAnswers = make(map[task.ID]int)
	for i := 1; i <= 12; i++ {
		id, err := c.Submit(task.Label, task.Payload{ImageID: i}, 1, 0)
		if err == nil {
			ackedTasks[id] = true
		}
		tv, lease, err := c.Next("w")
		if err != nil {
			continue
		}
		if err := c.Answer(lease, task.Answer{Words: []int{int(tv.ID)}}); err == nil {
			ackedAnswers[tv.ID]++
		}
	}
	return ackedTasks, ackedAnswers
}

// saveArtifact copies a WAL into HC_ARTIFACT_DIR (when set) so CI can
// upload the evidence from a failed trial.
func saveArtifact(t *testing.T, path, name string) {
	dir := os.Getenv("HC_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Logf("artifact %s: %v", name, err)
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifact dir: %v", err)
		return
	}
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Logf("artifact %s: %v", name, err)
	}
}

// TestKillLeaderFailoverSoak is the end-to-end replication soak: a leader
// serving real HTTP traffic ships its WAL to a live follower; the leader's
// log is cut at a seeded byte offset (the crash moment — after it nothing
// more is acknowledged); the follower drains what the leader acked,
// promotes, and must then hold the full consistency contract: every acked
// submit and answer present, nothing unacked resurrected, no task ID
// reissued, and the dead leader's epoch fenced by the term check.
func TestKillLeaderFailoverSoak(t *testing.T) {
	// Reference run to size the log so cut offsets spread across it.
	var ref bytes.Buffer
	refCfg := core.DefaultConfig()
	refCfg.Journal = store.NewWAL(&ref)
	refSrv := httptest.NewServer(dispatch.NewServer(core.New(refCfg)))
	replSoakTraffic(dispatch.NewClient(refSrv.URL, refSrv.Client()))
	refSrv.Close()
	total := int64(ref.Len())
	if total < 100 {
		t.Fatalf("reference log implausibly small: %d bytes", total)
	}

	const trials = 12
	for k := 0; k < trials; k++ {
		cut := 1 + int64(k)*(total-2)/(trials-1)
		t.Run(fmt.Sprintf("cut@%d", cut), func(t *testing.T) {
			killLeaderTrial(t, cut)
		})
	}
}

func killLeaderTrial(t *testing.T, cut int64) {
	dir := t.TempDir()

	// Leader: WAL on a cut writer (dies at the seeded offset), tapped into
	// a replication source, public API and /v1/repl on one server.
	leaderWALPath := filepath.Join(dir, "leader.wal")
	lf, err := os.Create(leaderWALPath)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	snap := emptySnapshot(t)
	src := repl.NewSource(repl.SourceOptions{
		Term:     1,
		WALPath:  leaderWALPath,
		Snapshot: func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(snap)), nil },
	})
	wal := store.NewWALWith(faultinject.NewCutWriter(lf, cut), store.WALOptions{OnRecord: src.OnRecord})
	defer wal.Close()
	cfg := core.DefaultConfig()
	cfg.Journal = wal
	leaderSys := core.New(cfg)
	mux := http.NewServeMux()
	mux.Handle("/v1/repl/", src.Handler(nil))
	mux.Handle("/", dispatch.NewServer(leaderSys))
	leaderSrv := httptest.NewServer(mux)
	defer leaderSrv.Close()
	defer src.Close() // runs before leaderSrv.Close: ends blocked streams

	// Follower: a real node in -follow mode. It bootstraps from the
	// leader's snapshot, tails the stream into its own WAL and refuses
	// writes until promoted — by the boot and promotion sequences hcservd
	// runs.
	fcfg := nodeConfig(filepath.Join(dir, "follower"))
	fcfg.Follow = leaderSrv.URL
	if err := os.Mkdir(filepath.Dir(fcfg.WAL), 0o755); err != nil {
		t.Fatal(err)
	}
	fnode, err := node.Open(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fnode.Close()
	fsys := fnode.System()
	applied := func() int64 {
		var st repl.Status
		resp, err := http.Get("http://" + fnode.Addr() + "/v1/repl/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.LastSeq
	}

	// Drive traffic until the WAL dies (or the run completes, for late
	// cuts). Acked == durable == replicable.
	client := dispatch.NewClient(leaderSrv.URL, leaderSrv.Client())
	ackedTasks, ackedAnswers := replSoakTraffic(client)
	ackedEvents := len(ackedTasks)
	for _, n := range ackedAnswers {
		ackedEvents += n
	}

	failed := func() {
		saveArtifact(t, leaderWALPath, fmt.Sprintf("leader-cut%d.wal", cut))
		saveArtifact(t, fcfg.WAL, fmt.Sprintf("follower-cut%d.wal", cut))
	}

	// The follower drains everything the leader acknowledged. The leader's
	// LastSeq counts exactly the flushed (acked) records — the cut write
	// was never acked and never tapped — and the follower's counts what it
	// has applied and logged.
	lastAcked := wal.LastSeq()
	if lastAcked != int64(ackedEvents) {
		failed()
		t.Fatalf("leader acked %d events but LastSeq=%d", ackedEvents, lastAcked)
	}
	replWaitFor(t, 10*time.Second, "follower to drain the acked log", func() bool {
		return applied() >= lastAcked
	})

	// Kill the leader and promote the follower.
	leaderSrv.CloseClientConnections()
	if err := fnode.Promote(); err != nil {
		failed()
		t.Fatalf("promotion: %v", err)
	}
	newTerm, err := repl.LoadTerm(fcfg.WAL + ".term")
	if err != nil || newTerm != 2 {
		failed()
		t.Fatalf("persisted term after promotion = %d, %v; want the leader's 1 bumped to 2", newTerm, err)
	}
	if got := applied(); got != lastAcked {
		failed()
		t.Fatalf("promoted follower logged %d records, leader acked %d", got, lastAcked)
	}

	// Contract 1: every acked submit and answer survived the failover.
	if got := fsys.Store().Len(); got != len(ackedTasks) {
		failed()
		t.Fatalf("promoted follower has %d tasks, acked %d", got, len(ackedTasks))
	}
	maxID := task.ID(0)
	for id := range ackedTasks {
		tk, err := fsys.Task(id)
		if err != nil {
			failed()
			t.Fatalf("acked task %d lost in failover: %v", id, err)
		}
		if len(tk.Answers) != ackedAnswers[id] {
			failed()
			t.Fatalf("task %d has %d answers after failover, acked %d",
				id, len(tk.Answers), ackedAnswers[id])
		}
		if id > maxID {
			maxID = id
		}
	}

	// Contract 2: new submits on the promoted leader never reuse an ID.
	for i := 0; i < 3; i++ {
		id, err := fsys.SubmitTask(task.Label, task.Payload{ImageID: 900 + i}, 1, 0)
		if err != nil {
			failed()
			t.Fatalf("submit after promotion: %v", err)
		}
		if ackedTasks[id] || id <= maxID {
			failed()
			t.Fatalf("task ID %d reissued after failover (max replicated %d)", id, maxID)
		}
	}

	// Contract 3: the old epoch is fenced. A consumer carrying the new
	// term refuses the dead leader's stream outright.
	zombie := repl.NewFollower(repl.FollowerOptions{
		Leader: leaderSrv.URL,
		Term:   newTerm,
		Apply:  func(int64, store.Event) error { return nil },
	})
	zctx, zcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer zcancel()
	if err := zombie.Run(zctx); !errors.Is(err, repl.ErrStaleTerm) {
		failed()
		t.Fatalf("stream from fenced leader = %v, want ErrStaleTerm", err)
	}
}

// emptySnapshot returns a pristine system's snapshot — the leader's "state
// at sequence 0" when it booted fresh.
func emptySnapshot(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.New(core.DefaultConfig()).Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
