package node

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
	"reflect"
	"testing"
	"time"

	"humancomp/internal/core"
	"humancomp/internal/dispatch"
	"humancomp/internal/faultinject"
	"humancomp/internal/repl"
	"humancomp/internal/store"
	"humancomp/internal/task"
)

// TestCalibrationSurvivesCrashRecovery is the regression test for the
// quality plane's durability: gold-probe expectations, reputation tallies
// and the online estimator's posteriors must all be rebuilt from the
// journal after a crash. Under the old in-memory-only behavior a restart
// silently forgot every gold expectation and reputation tally, so this
// test fails against it.
func TestCalibrationSurvivesCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(config(dir))
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
	wantRep := reputation(t, sys)
	if wantRep.Correct["good"] != probes || wantRep.Correct["bad"] != 0 {
		t.Fatalf("calibration failed before crash: %+v", wantRep)
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
	rn, err := Open(config(image))
	if err != nil {
		t.Fatalf("booting from the crash image: %v", err)
	}
	defer rn.Close()
	recovered := rn.System()

	if rep := reputation(t, recovered); !reflect.DeepEqual(rep, wantRep) {
		t.Fatalf("reputation after recovery %+v, want %+v", rep, wantRep)
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
	if got := reputation(t, recovered).Total["late"]; got != 1 {
		t.Fatalf("late worker has %v probes, want 1 (recovered gold no longer scores)", got)
	}
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
		tv, lease, err := c.NextContext(context.Background(), "w")
		if err != nil {
			continue
		}
		if err := c.AnswerContext(context.Background(), lease, task.Answer{Words: []int{int(tv.ID)}}); err == nil {
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
	src := repl.NewSource(repl.SourceOptions{
		Term:         1,
		WALPath:      leaderWALPath,
		SnapshotPath: emptySnapshot(t, filepath.Join(dir, "leader.snap")),
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
	fcfg := config(filepath.Join(dir, "follower"))
	fcfg.Follow = leaderSrv.URL
	if err := os.Mkdir(filepath.Dir(fcfg.WAL), 0o755); err != nil {
		t.Fatal(err)
	}
	fnode, err := Open(fcfg)
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
	// Len counts exactly the flushed (acked) records — the cut write
	// was never acked and never tapped — and the follower's counts what it
	// has applied and logged.
	lastAcked := wal.Len()
	if lastAcked != int64(ackedEvents) {
		failed()
		t.Fatalf("leader acked %d events but Len=%d", ackedEvents, lastAcked)
	}
	waitFor(t, "follower to drain the acked log", func() bool {
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
		if len(tk.Answers()) != ackedAnswers[id] {
			failed()
			t.Fatalf("task %d has %d answers after failover, acked %d",
				id, len(tk.Answers()), ackedAnswers[id])
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
		WAL:    store.NewWAL(io.Discard),
	})
	zctx, zcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer zcancel()
	if err := zombie.Run(zctx); !errors.Is(err, repl.ErrStaleTerm) {
		failed()
		t.Fatalf("stream from fenced leader = %v, want ErrStaleTerm", err)
	}
}

// emptySnapshot writes a pristine system's snapshot — the leader's "state
// at sequence 0" when it booted fresh — to path and returns path.
func emptySnapshot(t *testing.T, path string) string {
	t.Helper()
	if err := save(core.New(core.DefaultConfig()), path); err != nil {
		t.Fatal(err)
	}
	return path
}
