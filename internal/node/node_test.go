package node

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"humancomp/internal/core"
	"humancomp/internal/dispatch"
	"humancomp/internal/quality"
	"humancomp/internal/repl"
	"humancomp/internal/session"
	"humancomp/internal/store"
	"humancomp/internal/task"
	"humancomp/internal/trace"
)

// config is hcservd's flag defaults with the state in dir, both listeners
// on free loopback ports, and -max-replica-lag 30s as CI's follower smoke
// runs it.
func config(dir string) Config {
	cfg := Config{
		Addr:          "127.0.0.1:0",
		AdminAddr:     "127.0.0.1:0",
		Snapshot:      filepath.Join(dir, "snap.json"),
		WAL:           filepath.Join(dir, "wal.log"),
		WALSync:       "interval",
		MaxReplicaLag: 30 * time.Second,
		MatchTimeout:  2 * time.Second,
		RoundTimeout:  60 * time.Second,
		Core:          core.DefaultConfig(),
		API:           dispatch.Options{Burst: 20, RequestTimeout: 30 * time.Second, MaxInFlight: 1024},
	}
	cfg.Core.OnlineQuality = true
	cfg.Core.Spans.Enabled = true
	return cfg
}

// open boots a node and closes it when the test ends, if the test has not.
func open(t *testing.T, cfg Config) *Node {
	t.Helper()
	n, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func client(n *Node) *dispatch.Client { return dispatch.NewClient("http://"+n.Addr(), nil) }

// reputation returns the per-worker gold tallies sys would checkpoint:
// the reputation part of its snapshot's calibration sidecar.
func reputation(t *testing.T, sys *core.System) quality.ReputationState {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Calibration struct {
			Reputation quality.ReputationState `json:"reputation"`
		} `json:"calibration"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	return snap.Calibration.Reputation
}

// Addr is the address the API listener is bound to.
func (n *Node) Addr() string { return n.apiLn.Addr().String() }

// AdminAddr is the admin listener's bound address.
func (n *Node) AdminAddr() string { return n.adminLn.Addr().String() }

// System is the core the node serves from and recovered into.
func (n *Node) System() *core.System { return n.sys }

// get returns the status and body of GET url.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// metric reads one sample off the node's admin /metrics page.
func metric(t *testing.T, n *Node, name string) string {
	t.Helper()
	_, body := get(t, "http://"+n.AdminAddr()+"/metrics")
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return v
		}
	}
	return ""
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// dirState reads every file in dir.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	state := map[string]string{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		state[e.Name()] = string(b)
	}
	return state
}

// crashImage copies a live node's state files into a fresh directory: what a
// SIGKILL at this moment would leave behind, since every acknowledged append
// has reached the WAL file.
func crashImage(t *testing.T, dir string) string {
	t.Helper()
	image := t.TempDir()
	for name, content := range dirState(t, dir) {
		if err := os.WriteFile(filepath.Join(image, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return image
}

// TestOpenRefusesBeforeTouchingState: every flag combination hcservd used
// to exit on, and an address somebody else holds, comes back from Open as
// an error with its message — and with the state directory, a crashed
// node's snapshot and unreplayed WAL, exactly as it was.
func TestOpenRefusesBeforeTouchingState(t *testing.T) {
	live := t.TempDir()
	n := open(t, config(live))
	for i := 0; i < 20; i++ {
		if _, err := client(n).Submit(task.Label, task.Payload{ImageID: i}, 2, 0); err != nil {
			t.Fatal(err)
		}
	}
	dir := crashImage(t, live)
	before := dirState(t, dir)
	if before["wal.log"] == "" || before["snap.json"] == "" {
		t.Fatalf("crash image holds a %d-byte wal and a %d-byte snapshot; both were meant to have content",
			len(before["wal.log"]), len(before["snap.json"]))
	}
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()

	for _, tc := range []struct {
		name string
		set  func(*Config)
		want string
	}{
		{"follow without wal", func(c *Config) { c.Follow, c.WAL = "http://127.0.0.1:1", "" }, "-follow requires -wal and -snapshot"},
		{"follow without snapshot", func(c *Config) { c.Follow, c.Snapshot = "http://127.0.0.1:1", "" }, "-follow requires -wal and -snapshot"},
		{"wal without snapshot", func(c *Config) { c.Snapshot = "" }, "-wal requires -snapshot"},
		{"sessions on a follower", func(c *Config) { c.Follow, c.Sessions = "http://127.0.0.1:1", 4 }, "-sessions cannot be combined with -follow (sessions are leader-local)"},
		{"confidence target without the estimator", func(c *Config) { c.Core.ConfidenceTarget, c.Core.OnlineQuality = 0.9, false }, "-confidence-target requires -quality-online"},
		{"blank api keys", func(c *Config) { c.APIKeys = " , ," }, "-api-keys contains no usable keys"},
		{"bad wal-sync", func(c *Config) { c.WALSync = "sometimes" }, `invalid -wal-sync: store: unknown sync policy "sometimes" (want always, interval or never)`},
		{"zero lease ttl", func(c *Config) { c.Core.LeaseTTL = 0 }, "-lease-ttl must be positive"},
		{"rate without a burst", func(c *Config) { c.API.RatePerSec, c.API.Burst = 5, 0.5 }, "-rate needs a -burst of at least 1"},
		{"api address taken", func(c *Config) { c.Addr = taken.Addr().String() }, "address already in use"},
		{"admin address taken", func(c *Config) { c.AdminAddr = taken.Addr().String() }, "address already in use"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config(dir)
			tc.set(&cfg)
			n, err := Open(cfg)
			if err == nil {
				n.Close()
				t.Fatal("Open succeeded")
			}
			if !strings.HasSuffix(err.Error(), tc.want) {
				t.Errorf("Open: %q, want it to end in %q", err, tc.want)
			}
			if after := dirState(t, dir); len(after) != len(before) || after["wal.log"] != before["wal.log"] || after["snap.json"] != before["snap.json"] {
				t.Errorf("a refused Open changed the state directory: %d files (snapshot %d bytes, wal %d), were %d (%d, %d)",
					len(after), len(after["snap.json"]), len(after["wal.log"]), len(before), len(before["snap.json"]), len(before["wal.log"]))
			}
		})
	}

	// The directory the refusals left alone still boots, and recovers
	// everything the crashed node had acknowledged.
	if got := open(t, config(dir)).System().Store().Len(); got != 20 {
		t.Errorf("recovered %d tasks from the crash image, want 20", got)
	}
}

// TestReopenServesTheSameState: traffic over HTTP, Close, Open on the same
// directory. The shutdown snapshot is the whole state — the WAL is empty
// after it — and the reopened node serves the same task list, stats and
// posterior.
func TestReopenServesTheSameState(t *testing.T) {
	dir := t.TempDir()
	n := open(t, config(dir))
	c := client(n)
	gold := []dispatch.SubmitRequest{{
		Kind: task.Judge.String(), Payload: task.Payload{ImageID: 100}, Redundancy: 3, Priority: 1,
		Gold: true, Expected: &task.Answer{Choice: 1},
	}}
	if res, err := c.SubmitBatchContext(context.Background(), gold); err != nil || res[0].Status != http.StatusCreated {
		t.Fatalf("gold submit = %+v, %v", res, err)
	}
	var plain task.ID
	for i := 0; i < 5; i++ {
		id, err := c.Submit(task.Judge, task.Payload{ImageID: i}, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		plain = id
	}
	for _, w := range []string{"ann", "bo"} {
		for i := 0; i < 6; i++ {
			tv, lease, err := c.NextContext(context.Background(), w)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.AnswerContext(context.Background(), lease, task.Answer{Choice: tv.Payload.ImageID % 2}); err != nil {
				t.Fatal(err)
			}
		}
	}
	observe := func(n *Node) (list string, st core.Stats, post core.PosteriorInfo) {
		t.Helper()
		_, list = get(t, "http://"+n.Addr()+"/v1/tasks?limit=100")
		st, err := client(n).StatsContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		post, err = n.sys.TaskPosterior(plain)
		if err != nil {
			t.Fatal(err)
		}
		return list, st, post
	}
	list, st, post := observe(n)
	if st.StoredTasks != 6 || st.Queue.Open != 6 || st.Quality.TrackedWorkers != 2 || post.Votes != 2 {
		t.Fatalf("state before Close is not what the traffic builds: %+v, posterior %+v", st, post)
	}

	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || fi.Size() != 0 {
		t.Fatalf("wal after Close: %v, %v; want empty, the snapshot covers it", fi, err)
	}

	re := open(t, config(dir))
	relist, rest, repost := observe(re)
	if relist != list {
		t.Errorf("GET /v1/tasks after reopen:\n%s\nbefore Close:\n%s", relist, list)
	}
	if rest.StoredTasks != st.StoredTasks || rest.Queue.Open != st.Queue.Open || rest.Queue.InFlight != 0 ||
		rest.Quality.TrackedTasks != st.Quality.TrackedTasks || rest.Quality.TrackedWorkers != st.Quality.TrackedWorkers {
		t.Errorf("stats after reopen %+v, before Close %+v", rest, st)
	}
	if repost.Votes != post.Votes || len(repost.Posterior) != len(post.Posterior) {
		t.Fatalf("posterior after reopen %+v, before Close %+v", repost, post)
	}
	for i := range post.Posterior {
		if math.Abs(repost.Posterior[i]-post.Posterior[i]) > 1e-9 {
			t.Errorf("posterior after reopen %v, before Close %v", repost.Posterior, post.Posterior)
		}
	}
	if got := reputation(t, re.System()).Total["ann"]; got != 1 {
		t.Errorf("ann has %v gold probes after reopen, want the 1 the snapshot's sidecar carries", got)
	}
}

// TestCloseReclaimsExpiredLeasesBeforeSnapshot: a worker leases a task and
// vanishes. The lease runs out while no call reclaims it — the task's trace
// shows no expiry, where a Stats call would have reclaimed it; Close
// reclaims it before it snapshots, so the next boot hands the task out at
// once instead of waiting out a TTL that died with the process.
func TestCloseReclaimsExpiredLeasesBeforeSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := config(dir)
	cfg.Core.LeaseTTL = 5 * time.Millisecond
	n := open(t, cfg)
	id, err := client(n).Submit(task.Judge, task.Payload{ImageID: 2}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client(n).NextContext(context.Background(), "ghost"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	var stages []trace.Stage
	for _, e := range n.System().TaskTrace(id) {
		stages = append(stages, e.Stage)
	}
	if !slices.Contains(stages, trace.StageLease) || slices.Contains(stages, trace.StageExpire) {
		t.Fatalf("before Close: stages %v; the ghost's lease was meant to be expired but unreclaimed", stages)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	re := open(t, config(dir))
	tv, lease, err := client(re).NextContext(context.Background(), "fresh")
	if err != nil {
		t.Fatalf("the abandoned task is not leasable right after reopen: %v", err)
	}
	if tv.ID != id {
		t.Fatalf("leased task %d, want the abandoned %d", tv.ID, id)
	}
	if err := client(re).AnswerContext(context.Background(), lease, task.Answer{Choice: 1}); err != nil {
		t.Fatal(err)
	}
}

// follow boots a leader and a follower of it, each over its own directory.
func follow(t *testing.T) (leader, follower *Node, fcfg Config) {
	t.Helper()
	leader = open(t, config(t.TempDir()))
	fcfg = config(t.TempDir())
	fcfg.Follow = "http://" + leader.Addr()
	return leader, open(t, fcfg), fcfg
}

// TestFollowerBootsAtItsLeadersTerm: the bootstrap snapshot carries the
// leader's term, so a follower promoted before its stream has attached
// still moves past the leader's epoch instead of taking it.
func TestFollowerBootsAtItsLeadersTerm(t *testing.T) {
	leader := open(t, config(t.TempDir()))
	leader.source.SetTerm(3)
	fcfg := config(t.TempDir())
	fcfg.Follow = "http://" + leader.Addr()
	follower := open(t, fcfg)
	if got := follower.follower.Term(); got != 3 {
		t.Fatalf("follower booted at term %d, want its leader's 3", got)
	}
	if err := follower.Promote(); err != nil {
		t.Fatal(err)
	}
	if got, err := repl.LoadTerm(fcfg.WAL + ".term"); err != nil || got != 4 {
		t.Fatalf("persisted term after promotion = %d, %v; want 4", got, err)
	}
}

// postTask submits one task with no client in between, so a refusal is seen
// as sent.
func postTask(t *testing.T, n *Node) *http.Response {
	t.Helper()
	resp, err := http.Post("http://"+n.Addr()+"/v1/tasks", "application/json",
		strings.NewReader(`{"kind":"label","payload":{"image_id":9},"redundancy":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestFollowerReplicatesFencesAndPromotes is the leader+follower binary
// smoke without the binary: a -follow node bootstraps from a live leader
// and tails it, serves reads, refuses writes with 503 + X-Leader, and once
// the leader is gone and Promote has run accepts them under a bumped term.
func TestFollowerReplicatesFencesAndPromotes(t *testing.T) {
	leader, follower, _ := follow(t)
	if status, body := get(t, "http://"+follower.AdminAddr()+"/readyz"); status != http.StatusOK {
		t.Fatalf("follower /readyz = %d %s", status, body)
	}
	if err := leader.Promote(); !errors.Is(err, ErrNotFollower) {
		t.Errorf("Promote on the leader: %v, want ErrNotFollower", err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := client(leader).Submit(task.Label, task.Payload{ImageID: i}, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the follower to apply the leader's three records", func() bool {
		return metric(t, follower, "hc_wal_last_seq") == "3" && metric(t, follower, "hc_repl_follower_lag_seq") == "0"
	})
	if got := metric(t, follower, "hc_repl_term"); got != "0" {
		t.Errorf("hc_repl_term on the unpromoted follower = %q, want 0", got)
	}
	if status, _ := get(t, "http://"+follower.Addr()+"/v1/tasks/1"); status != http.StatusOK {
		t.Errorf("replicated read on the follower = %d, want 200", status)
	}
	if resp := postTask(t, follower); resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("X-Leader") != "http://"+leader.Addr() {
		t.Errorf("write on the follower = %d, X-Leader %q; want 503 and the leader's URL", resp.StatusCode, resp.Header.Get("X-Leader"))
	}

	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	if err := follower.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := follower.Promote(); err != nil {
		t.Errorf("second Promote: %v, want the first one's nil", err)
	}
	if resp := postTask(t, follower); resp.StatusCode != http.StatusCreated {
		t.Errorf("write on the promoted follower = %d, want 201", resp.StatusCode)
	}
	if got := metric(t, follower, "hc_repl_term"); got != "1" {
		t.Errorf("hc_repl_term after promotion = %q, want 1", got)
	}
	if got := metric(t, follower, "hc_repl_follower_lag_seq"); got != "" {
		t.Errorf("promoted node still reports follower lag %q", got)
	}
	if status, body := get(t, "http://"+follower.AdminAddr()+"/readyz"); status != http.StatusOK {
		t.Errorf("/readyz after promotion = %d %s", status, body)
	}
	select {
	case err := <-follower.Err():
		t.Errorf("node reported %v after a clean promotion", err)
	default:
	}
}

// TestFollowerLogIsLeaderLog: a follower re-appends every record it
// applies, so once it has caught up its WAL file is its leader's byte for
// byte — submits single and batched, answers, a cancel and a gold probe
// included. What a chained follower ships from its own file is therefore
// its leader's log.
func TestFollowerLogIsLeaderLog(t *testing.T) {
	leader, follower, fcfg := follow(t)
	c := client(leader)
	ctx := context.Background()
	for i := 1; i <= 8; i++ {
		if _, err := c.Submit(task.Label, task.Payload{ImageID: i}, 1+i%3, i%2); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.SubmitBatchContext(ctx, []dispatch.SubmitRequest{
		{Kind: task.Label.String(), Payload: task.Payload{ImageID: 20}, Redundancy: 2},
		{Kind: task.Label.String(), Payload: task.Payload{ImageID: 21}, Redundancy: 1},
		{Kind: task.Label.String(), Payload: task.Payload{ImageID: 30}, Redundancy: 1, Gold: true, Expected: &task.Answer{Words: []int{7}}},
	})
	if err != nil || len(res) != 3 || res[0].Status != http.StatusCreated || res[1].Status != http.StatusCreated || res[2].Status != http.StatusCreated {
		t.Fatalf("batch submit = %+v, %v", res, err)
	}
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("http://%s/v1/tasks/%d", leader.Addr(), 1), nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("cancel = %v, %v", resp, err)
	}
	for w := 0; w < 12; w++ {
		tv, lease, err := c.NextContext(ctx, fmt.Sprintf("w%d", w%4))
		if err != nil {
			continue // nothing leasable for this worker
		}
		if err := c.AnswerContext(ctx, lease, task.Answer{Words: []int{w % 2, int(tv.ID)}}); err != nil {
			t.Fatal(err)
		}
	}
	want := leader.wal.Len()
	waitFor(t, "the follower to apply the leader's log", func() bool { return follower.wal.Len() == want })

	lb, err := os.ReadFile(leader.cfg.WAL)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for sc := store.NewRecordScanner(bytes.NewReader(lb), 0); sc.Scan(); {
		e := sc.Event()
		kinds[string(e.Kind)]++
		if e.Gold != nil {
			kinds["gold"]++
		}
	}
	for _, k := range []string{"submit", "answer", "cancel", "gold"} {
		if kinds[k] == 0 {
			t.Fatalf("the leader's log holds no %s record: %v", k, kinds)
		}
	}
	t.Logf("records by kind: %v", kinds)
	fb, err := os.ReadFile(fcfg.WAL)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(lb, fb) {
		return
	}
	ls, fs := store.NewRecordScanner(bytes.NewReader(lb), 0), store.NewRecordScanner(bytes.NewReader(fb), 0)
	for lo, fo := int64(store.WALHeaderSize), int64(store.WALHeaderSize); ls.Scan() && fs.Scan(); lo, fo = ls.Offset(), fs.Offset() {
		if l, f := lb[lo:ls.Offset()], fb[fo:fs.Offset()]; !bytes.Equal(l, f) {
			t.Fatalf("record %d differs:\nleader   %q\nfollower %q", ls.Seq(), l, f)
		}
	}
	t.Fatalf("logs differ in length: leader %d bytes, follower %d (%d of %d records)", len(lb), len(fb), follower.wal.Len(), want)
}

// TestFailedPromotionLeavesNodeReadOnly: the term cannot be persisted (a
// directory sits where the term file goes). The promote request gets a 500
// carrying the error instead of taking the process down mid-request, the node
// keeps refusing writes — its journal was never attached — and the failure is
// on Err for hcservd to exit on.
func TestFailedPromotionLeavesNodeReadOnly(t *testing.T) {
	_, follower, fcfg := follow(t)
	if err := os.Mkdir(fcfg.WAL+".term", 0o755); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+follower.Addr()+"/v1/repl/promote", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "persisting promotion term") {
		t.Fatalf("promote with an unwritable term file = %d %q, want 500 naming the step", resp.StatusCode, body)
	}
	select {
	case err := <-follower.Err():
		if !strings.Contains(err.Error(), "persisting promotion term") {
			t.Errorf("Err delivered %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("failed promotion never arrived on Err")
	}
	if err := follower.Promote(); err == nil || !strings.Contains(err.Error(), "persisting promotion term") {
		t.Errorf("Promote after the failure: %v, want the same error", err)
	}
	if resp := postTask(t, follower); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("write after a failed promotion = %d, want 503: the node is still a follower", resp.StatusCode)
	}
	if !follower.System().ReadOnly() {
		t.Error("system writable after a failed promotion")
	}
}

// TestClosePromptWithParkedLongPoll: a player is parked on a session's event
// stream with a 30-second wait. Close ends the poll and returns well inside
// the five-second drain, and a second Close returns what the first did.
func TestClosePromptWithParkedLongPoll(t *testing.T) {
	cfg := config(t.TempDir())
	cfg.Sessions, cfg.MatchTimeout, cfg.RoundTimeout = 4, 30*time.Second, time.Minute
	n := open(t, cfg)
	c := client(n)
	joined := make(chan session.JoinInfo, 1)
	go func() {
		info, err := c.JoinSessionContext(context.Background(), "alice")
		if err != nil {
			t.Errorf("alice: %v", err)
		}
		joined <- info
	}()
	waitFor(t, "alice to wait for a partner", func() bool {
		st, err := c.SessionStatsContext(context.Background())
		return err == nil && st.Waiting == 1
	})
	info, err := c.JoinSessionContext(context.Background(), "bob")
	if err != nil {
		t.Fatal(err)
	}
	if a := <-joined; a.Session != info.Session {
		t.Fatalf("alice is in session %d, bob in %d", a.Session, info.Session)
	}
	polled := make(chan error, 1)
	go func() {
		_, _, err := c.SessionEventsContext(context.Background(), info.Session, "bob", 1<<20, 30*time.Second)
		polled <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the poll park; Close is prompt either way

	start := time.Now()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Errorf("Close took %s with a parked long-poll", took)
	}
	select {
	case <-polled:
	case <-time.After(5 * time.Second):
		t.Error("the parked poll outlived Close")
	}
	start = time.Now()
	if err := n.Close(); err != nil || time.Since(start) > time.Second {
		t.Errorf("second Close: %v after %s", err, time.Since(start))
	}
	if snap, err := os.ReadFile(cfg.Snapshot); err != nil || !bytes.Contains(snap, []byte(`"tasks"`)) {
		t.Errorf("shutdown snapshot: %d bytes, %v", len(snap), err)
	}
}
