package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload     string            `json:"workload"`
	Traced       bool              `json:"traced"`
	Seed         int64             `json:"seed"`
	Seconds      float64           `json:"seconds"`
	Clients      int               `json:"clients"`
	StreamSHA256 string            `json:"stream_sha256"`
	Metrics      map[string]metric `json:"metrics"`
	Windows      []windowStat      `json:"closed_loop_windows,omitempty"`
	Rungs        []rung            `json:"open_loop,omitempty"`
	Checks       []check           `json:"checks"`
	Attempted    int64             `json:"attempted"`
	Failed       int64             `json:"failed"`
	Correct      bool              `json:"correct"`
}

func (r *runResult) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: finite(v), Unit: unit}
}

func (r *runResult) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	if !ok {
		r.Correct = false
	}
}

// harness is one invocation's fixed settings.
type harness struct {
	outDir  string
	bin     string
	seed    int64
	seconds float64
	smoke   bool
	clients int
	runTag  string
	units   map[string]string // BENCHMARK.json's unit of each metric it names
}

// setupRepeats is how many times the boot-preload-crash-recover unit runs;
// setup_s and recovery_s are medians over them.
const setupRepeats = 3

func (h *harness) dur(fraction float64) time.Duration {
	return time.Duration(h.seconds * fraction * float64(time.Second))
}

// warm is how long load runs before anything is measured. On worker_loop a
// freshly recovered node serves ~4000 items/s for its first two or three
// seconds and ~2500 after; short runs would otherwise measure the
// transient.
func (h *harness) warm() time.Duration {
	if h.smoke {
		return 500 * time.Millisecond
	}
	return 3 * time.Second
}

// serverFlags is the production configuration of a workload's node.
func serverFlags(w *workload, extra ...string) []string {
	return append([]string{
		"-wal-sync", w.walSync,
		"-quality-online", "-confidence-target", fmt.Sprint(confidenceTarget),
	}, extra...)
}

// cluster is the node under load and, where the workload has one, its
// follower.
type cluster struct {
	leader   *node
	follower *node
}

func (c *cluster) kill() {
	if c.follower != nil {
		c.follower.kill()
		c.follower = nil
	}
	if c.leader != nil {
		c.leader.kill()
		c.leader = nil
	}
}

// run is the state of one workload run.
type run struct {
	h      *harness
	w      *workload
	res    *runResult
	bodies [][]byte // the preload, encoded once and sent by every set-up unit
	logf   *os.File
	flogf  *os.File
	tmp    string // per-run directory for WAL, snapshot and term files
	nDirs  int
	ls     *loadSpec
	acked  ledger // everything any phase was acknowledged, since the preload
	bootAt struct{ submitted, answers int }
	c      cluster
	dir    string // state directory of the node under load

	bootS, recoveryS, catchupS []float64
	peakMiB                    float64 // highest VmHWM of a node that had just recovered the preload
}

func (r *run) newDir(prefix string) (string, error) {
	r.nDirs++
	dir := filepath.Join(r.tmp, fmt.Sprintf("%s%d", prefix, r.nDirs))
	return dir, os.MkdirAll(dir, 0o755)
}

func authedGet(base, path string, into any) error {
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+apiKey)
	resp, err := probeClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// serverStats is the part of GET /v1/stats the checks use.
type serverStats struct {
	TasksSubmitted int64 `json:"tasks_submitted"`
	AnswersTotal   int64 `json:"answers_total"`
}

// preloadOver submits the resident set over the wire.
func (r *run) preloadOver(n *node) error {
	d := newWireDoer(n.api, newTransport(1))
	defer d.client.CloseIdleConnections()
	for _, body := range r.bodies {
		status, reply, _, err := d.do(http.MethodPost, "/v1/tasks:batch", body, "")
		if err != nil {
			return err
		}
		var br batchSubmitReply
		if status != http.StatusOK || json.Unmarshal(reply, &br) != nil {
			return fmt.Errorf("preload: status %d body %.80q", status, reply)
		}
		for _, it := range br.Results {
			if it.Status != http.StatusCreated {
				return fmt.Errorf("preload: item status %d", it.Status)
			}
		}
	}
	return nil
}

// followerLag reads the follower's replication gauges.
func followerLag(f *node) (seq, seconds float64, err error) {
	m, _, err := f.scrape()
	if err != nil {
		return 0, 0, err
	}
	return m["hc_repl_follower_lag_seq"], m["hc_repl_follower_lag_seconds"], nil
}

// waitCaughtUp blocks until the follower has applied everything the leader
// has acknowledged.
func waitCaughtUp(leader, follower *node) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		lm, _, err := leader.scrape()
		if err != nil {
			return err
		}
		fm, _, err := follower.scrape()
		if err != nil {
			return err
		}
		if fm["hc_repl_follower_lag_seq"] == 0 && fm["hc_wal_last_seq"] >= lm["hc_wal_last_seq"] {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower still %v records behind after 30s", fm["hc_repl_follower_lag_seq"])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// boot starts the node over r.dir (recovering whatever is there) and, for
// a follower workload, a fresh follower that it waits to catch up.
func (r *run) boot(extra ...string) (ready time.Duration, err error) {
	r.c.leader, ready, err = startNode(r.h.bin, r.dir, r.logf, serverFlags(r.w, extra...)...)
	if err != nil {
		return 0, err
	}
	r.bootAt.submitted, r.bootAt.answers = len(r.acked.submitted), len(r.acked.answers)
	r.ls.base = r.c.leader.api
	if !r.w.follower {
		return ready, nil
	}
	fdir, err := r.newDir("follower")
	if err != nil {
		return 0, err
	}
	start := time.Now()
	r.c.follower, _, err = startNode(r.h.bin, fdir, r.flogf, serverFlags(r.w, "-follow", r.c.leader.api)...)
	if err != nil {
		return 0, err
	}
	if err := waitCaughtUp(r.c.leader, r.c.follower); err != nil {
		return 0, err
	}
	r.catchupS = append(r.catchupS, time.Since(start).Seconds())
	return ready, nil
}

// setupUnit is the repeatable part of set-up: boot on an empty directory,
// preload over the wire, crash, and recover that fixed state. It leaves
// the recovered cluster running.
func (r *run) setupUnit(extra ...string) (time.Duration, error) {
	start := time.Now()
	var err error
	if r.dir, err = r.newDir("node"); err != nil {
		return 0, err
	}
	n, ready, err := startNode(r.h.bin, r.dir, r.logf, serverFlags(r.w)...)
	if err != nil {
		return 0, err
	}
	r.bootS = append(r.bootS, ready.Seconds())
	if err := r.preloadOver(n); err != nil {
		n.kill()
		return 0, err
	}
	n.kill()
	ready, err = r.boot(extra...)
	if err != nil {
		return 0, err
	}
	r.recoveryS = append(r.recoveryS, ready.Seconds())
	took := time.Since(start)
	hwm, err := r.c.leader.hwmMiB()
	if err != nil {
		return 0, err
	}
	r.peakMiB = max(r.peakMiB, hwm)
	return took, nil
}

// setup runs the unit `repeats` times, keeps the last cluster and warms it.
// It returns the set-up time of the run: the median unit, the follower's
// catch-up where there is one, and the warm-up.
func (r *run) setup(repeats int, extra ...string) (float64, error) {
	var units []float64
	for i := 0; i < repeats; i++ {
		if i > 0 {
			r.c.kill()
			if err := os.RemoveAll(r.dir); err != nil {
				return 0, err
			}
		}
		took, err := r.setupUnit(extra...)
		if err != nil {
			return 0, err
		}
		units = append(units, took.Seconds())
	}
	total := median(units)
	if len(r.catchupS) > 0 {
		total += median(r.catchupS)
	}
	start := time.Now()
	r.warmUp()
	return total + time.Since(start).Seconds(), nil
}

func (r *run) warmUp() {
	_, led := closedLoop(r.ls, r.h.warm(), nil)
	r.acked.merge(led)
}

// prefill puts a few leases in the open-loop pool, so an answer that is
// due before the next that precedes it has replied still finds one.
func (r *run) prefill(pool *leasePool, recent *recentRing) {
	r.ls.phase++
	tr := newTransport(1)
	defer tr.CloseIdleConnections()
	c := r.ls.newClient(newWireDoer(r.ls.base, tr), 0, pool, recent)
	st := newStream(r.w, r.h.seed, r.ls.clients)
	filled := 0
	for _, o := range st.ops {
		if filled == 4*r.ls.clients {
			break
		}
		if o.kind == opNext || o.kind == opLeaseBatch {
			c.exec(o, st)
			filled++
		}
	}
	r.acked.merge(&c.led)
}

// sampleLag polls the follower's lag gauges at 10 Hz until stop closes.
func sampleLag(f *node, stop <-chan struct{}) (seq, seconds []float64) {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if s, sec, err := followerLag(f); err == nil {
				seq, seconds = append(seq, s), append(seconds, sec)
			}
		}
	}
}

// closedPhase is one measured closed-loop phase with the server's CPU
// over it.
type closedPhase struct {
	samples  []sample
	led      *ledger
	windows  []windowStat
	userMs   float64
	sysMs    float64
	lagSeq   []float64
	lagSec   []float64
	itemsSec float64 // median over whole windows
}

func (r *run) closed(d time.Duration, record func(cl, i int, k opKind, start time.Time, took time.Duration)) (*closedPhase, error) {
	u0, s0, err := r.c.leader.cpuMs()
	if err != nil {
		return nil, err
	}
	p := &closedPhase{}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// The machine's CPU clock at every window boundary, for the steal
	// ratio: how much of each window the hypervisor gave to other guests.
	var ticks []hostTick
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(window)
		defer t.Stop()
		for {
			if total, steal, err := hostCPU(); err == nil {
				ticks = append(ticks, hostTick{total, steal})
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	if r.c.follower != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.lagSeq, p.lagSec = sampleLag(r.c.follower, stop)
		}()
	}
	p.samples, p.led = closedLoop(r.ls, d, record)
	close(stop)
	wg.Wait()
	u1, s1, err := r.c.leader.cpuMs()
	if err != nil {
		return nil, err
	}
	p.userMs, p.sysMs = u1-u0, s1-s0
	p.windows = windowStats(p.samples, d, ticks)
	p.itemsSec = medianItemsPerSec(p.windows)
	r.acked.merge(p.led)
	return p, nil
}

func (p *closedPhase) items() float64 {
	var n float64
	for _, s := range p.samples {
		n += float64(s.items)
	}
	return n
}

// checkStats compares the server's counters since its boot with what the
// generator was acknowledged since then.
func (r *run) checkStats() error {
	var st serverStats
	if err := authedGet(r.c.leader.api, "/v1/stats", &st); err != nil {
		return err
	}
	wantS := int64(len(r.acked.submitted) - r.bootAt.submitted)
	wantA := int64(len(r.acked.answers) - r.bootAt.answers)
	r.res.check("stats_match_acked", st.TasksSubmitted == wantS && st.AnswersTotal == wantA,
		"server submitted=%d answers=%d, generator acked submitted=%d answers=%d",
		st.TasksSubmitted, st.AnswersTotal, wantS, wantA)
	return nil
}

// failover quiesces to follower lag 0, kills the leader, promotes the
// follower and sends it a write; the follower is the node from then on.
func (r *run) failover() (float64, error) {
	if err := r.checkStats(); err != nil {
		return 0, err
	}
	if err := waitCaughtUp(r.c.leader, r.c.follower); err != nil {
		return 0, err
	}
	start := time.Now()
	r.c.leader.kill()
	resp, err := probeClient.Post(r.c.follower.api+"/v1/repl/promote", "application/json", nil)
	if err != nil {
		return 0, fmt.Errorf("promote: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("promote: status %d", resp.StatusCode)
	}
	r.c.leader, r.c.follower = r.c.follower, nil
	r.dir = r.c.leader.dir
	r.ls.base = r.c.leader.api
	r.bootAt.submitted, r.bootAt.answers = len(r.acked.submitted), len(r.acked.answers)

	r.ls.phase++
	tr := newTransport(1)
	defer tr.CloseIdleConnections()
	c := r.ls.newClient(newWireDoer(r.ls.base, tr), 0, &leasePool{}, &recentRing{})
	st := newStream(r.w, r.h.seed, 0)
	for _, o := range st.ops {
		if o.kind == opSubmit || o.kind == opSubmitBatch {
			_, _, ok, _ := c.exec(o, st)
			r.acked.merge(&c.led)
			if !ok {
				return 0, fmt.Errorf("first write after promotion: %s", c.led.firstErr)
			}
			break
		}
	}
	return time.Since(start).Seconds(), nil
}

// snapshotFile is the part of hcservd's snapshot the checks read. The
// harness decodes it on its own terms, not with the program's types.
type snapshotFile struct {
	Tasks []struct {
		ID         int64 `json:"id"`
		Status     int   `json:"status"` // 0 open, 1 done, 2 canceled
		Redundancy int   `json:"redundancy"`
		Answers    []struct {
			WorkerID string `json:"worker_id"`
			Choice   int    `json:"choice"`
		} `json:"answers"`
	} `json:"tasks"`
}

const statusDone = 1

// verify crashes the node once more, restarts it and checks that what it
// recovered is exactly what the generator was acknowledged.
func (r *run) verify() error {
	res := r.res
	if err := r.checkStats(); err != nil {
		return err
	}
	r.c.kill()
	if _, err := r.boot(); err != nil {
		return fmt.Errorf("restart after final SIGKILL: %w", err)
	}
	// Booting checkpoints the recovered state, so the snapshot on disk is
	// what the node now serves.
	raw, err := os.ReadFile(filepath.Join(r.dir, "snap.json"))
	if err != nil {
		return err
	}
	var snap snapshotFile
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("decoding snapshot: %w", err)
	}

	seen := make(map[int64]bool, len(r.acked.submitted))
	dup := 0
	for _, id := range r.acked.submitted {
		if seen[id] || id <= int64(r.w.preload) {
			dup++
		}
		seen[id] = true
	}
	res.check("task_ids_unique", dup == 0, "%d of %d acked task IDs were issued twice or collide with the preload", dup, len(r.acked.submitted))

	type answerKey struct {
		task   int64
		worker string
	}
	have := make(map[answerKey]bool)
	status := make(map[int64]int, len(snap.Tasks))
	var doneTasks, doneEarly, doneAnswers, answersTotal, right, judged int
	crowd := r.ls.crowd
	for _, t := range snap.Tasks {
		status[t.ID] = t.Status
		answersTotal += len(t.Answers)
		votes := [2]int{}
		for _, a := range t.Answers {
			have[answerKey{t.ID, a.WorkerID}] = true
			votes[a.Choice&1]++
		}
		if t.Status != statusDone {
			continue
		}
		doneTasks++
		doneAnswers += len(t.Answers)
		if len(t.Answers) < t.Redundancy {
			doneEarly++ // finished on confidence, not on redundancy
		}
		if r.w.kind == "compare" && votes[0] != votes[1] {
			judged++
			majority := 0
			if votes[1] > votes[0] {
				majority = 1
			}
			if majority == crowd.truth(t.ID) {
				right++
			}
		} else if r.w.kind == "compare" {
			judged++ // a tie decided nothing
		}
	}
	missing := 0
	for _, id := range r.acked.submitted {
		if _, ok := status[id]; !ok {
			missing++
		}
	}
	res.check("acked_submits_recovered", missing == 0 && len(snap.Tasks) == r.w.preload+len(r.acked.submitted),
		"%d acked submits missing; node holds %d tasks, preload %d + acked %d", missing, len(snap.Tasks), r.w.preload, len(r.acked.submitted))
	missing = 0
	for _, a := range r.acked.answers {
		if !have[answerKey{a.task, workerIDs[a.worker]}] {
			missing++
		}
	}
	res.check("acked_answers_recovered", missing == 0 && answersTotal == len(r.acked.answers),
		"%d acked answers missing; node holds %d answers, acked %d", missing, answersTotal, len(r.acked.answers))
	notDone := 0
	for _, id := range r.acked.late {
		if status[id] != statusDone {
			notDone++
		}
	}
	res.check("late_answers_were_late", notDone == 0, "%d of %d answers refused as late are on tasks that are not done", notDone, len(r.acked.late))

	// A spot check over the wire that the restarted node serves that state.
	spot := r.acked.submitted
	if len(spot) > 50 {
		spot = spot[len(spot)-50:]
	}
	bad := 0
	for _, id := range spot {
		var t idReply
		if err := authedGet(r.c.leader.api, fmt.Sprintf("/v1/tasks/%d", id), &t); err != nil || t.ID != id {
			bad++
		}
	}
	res.check("restarted_node_serves", bad == 0, "%d of %d acked tasks not served after restart", bad, len(spot))

	if doneTasks > 0 {
		res.set("answers_per_task", float64(doneAnswers)/float64(doneTasks), "ratio")
		res.set("quality.early_complete_ratio", float64(doneEarly)/float64(doneTasks), "ratio")
	} else {
		res.check("tasks_completed", false, "no task completed")
	}
	if r.w.kind == "compare" && judged > 0 {
		acc := float64(right) / float64(judged)
		res.set("quality.label_accuracy", acc, "ratio")
		res.check("label_accuracy", acc >= 0.9, "majority label matches the hidden truth on %.4f of %d completed tasks", acc, judged)
	} else {
		res.set("quality.label_accuracy", 0, "ratio") // the quality plane is idle on this workload
	}
	return nil
}

// finish folds the ledger into the result.
func (r *run) finish() {
	att, failed := r.acked.totals()
	r.res.Attempted, r.res.Failed = att, failed
	detail := ""
	if failed > 0 {
		detail = r.acked.firstErr
	}
	r.res.check("no_failed_requests", failed == 0, "%d of %d requests failed: %s", failed, att, detail)
	ratio := 0.0
	if att > 0 {
		ratio = float64(failed) / float64(att)
	}
	r.res.set("fail_ratio", ratio, "ratio")
}

func (h *harness) newRun(w *workload, traced bool) (*run, error) {
	r := &run{h: h, w: w, bodies: preloadBodies(w, h.seed)}
	r.res = &runResult{
		Workload: w.name, Traced: traced, Seed: h.seed, Seconds: h.seconds, Clients: h.clients,
		StreamSHA256: streamSHA256(w, h.seed, h.clients, r.bodies),
		Metrics:      make(map[string]metric), Correct: true,
	}
	var err error
	if r.logf, err = os.Create(filepath.Join(h.outDir, w.name+".log")); err != nil {
		return nil, err
	}
	if w.follower {
		if r.flogf, err = os.Create(filepath.Join(h.outDir, w.name+"-follower.log")); err != nil {
			return nil, err
		}
	}
	if r.tmp, err = os.MkdirTemp(h.outDir, "run-"); err != nil {
		return nil, err
	}
	r.ls = &loadSpec{w: w, seed: h.seed, crowd: newCrowd(h.seed), clients: h.clients, runTag: h.runTag}
	// Flush what earlier runs left dirty (each writes tens of MB of WAL,
	// snapshots and request log), so their writeback does not compete with
	// this run's fsyncs.
	syscall.Sync()
	return r, nil
}

// close stops the run's processes and removes its state directory —
// unless the run failed, when the WAL and snapshot are the evidence.
func (r *run) close(failed *error) {
	r.c.kill()
	r.logf.Close()
	if r.flogf != nil {
		r.flogf.Close()
	}
	if *failed != nil || !r.res.Correct {
		fmt.Fprintf(os.Stderr, "bench: %s: state kept in %s\n", r.w.name, r.tmp)
		return
	}
	os.RemoveAll(r.tmp)
}

// ladderShare is each rung's share of a run's measured time: the middle
// rate, which lat_p50_ms and lat_p99_ms are read at, gets half the open loop.
var ladderShare = [3]float64{0.125, 0.25, 0.125}

// runUntraced measures the end-to-end metrics: production flags, nothing
// recorded beyond each request's latency.
func (h *harness) runUntraced(w *workload) (_ *runResult, err error) {
	r, err := h.newRun(w, false)
	if err != nil {
		return nil, err
	}
	defer r.close(&err)
	res := r.res

	setup, err := r.setup(setupRepeats)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup, "s")
	res.set("recovery_s", median(r.recoveryS), "s")
	// Peak memory of recovering and holding the resident set, the highest
	// of the three recoveries (how high one recovery peaks depends on when
	// the collector happened to run). Read before the measured phases: at
	// the end of a run it would grow with however many tasks the run got
	// to submit, that is, with throughput.
	res.set("rss_mb", r.peakMiB, "MiB")

	p, err := r.closed(h.dur(0.5), nil)
	if err != nil {
		return nil, err
	}
	res.Windows = p.windows
	res.set("items_per_s", p.itemsSec, "items/s")
	res.set("svc_p50_ms", mixP50(p.samples), "ms")
	res.set("svc_p99_ms", windowedP99(p.samples, h.dur(0.5)), "ms")
	res.set("cpu_ms_per_kitem", (p.userMs+p.sysMs)/(p.items()/1000), "ms")
	res.set("host_steal_ratio", meanSteal(p.windows), "ratio")

	pool, recent := &leasePool{}, &recentRing{}
	r.prefill(pool, recent)
	slo := 0.0
	rates := w.ladder[:]
	shares := ladderShare[:]
	if h.smoke {
		rates, shares = rates[1:2], shares[1:2]
	}
	for i, rate := range rates {
		rg, led := openLoop(r.ls, rate, h.dur(shares[i]), pool, recent)
		r.acked.merge(led)
		res.Rungs = append(res.Rungs, rg)
		if rate == w.ladder[1] {
			res.set("lat_p50_ms", rg.LatP50Ms, "ms")
			res.set("lat_p99_ms", rg.LatP99Ms, "ms")
		}
		if rg.MetLimit && rate > slo {
			slo = rate
		}
	}
	res.set("slo_rate_req_per_s", slo, "req/s")

	if w.follower {
		if _, err := r.failover(); err != nil {
			return nil, err
		}
	}
	if err := r.verify(); err != nil {
		return nil, err
	}
	r.finish()
	return res, nil
}

// wireSpans keeps each closed-loop client's spans apart while the phase
// runs; only client 0's stream is the one the in-process rungs replay.
type wireSpan struct {
	i     int
	k     opKind
	start time.Time
	took  time.Duration
}

// runTraced produces the per-layer metrics: a wire phase with every
// request recorded as a span, then the in-process rungs.
func (h *harness) runTraced(w *workload) (_ *runResult, err error) {
	r, err := h.newRun(w, true)
	if err != nil {
		return nil, err
	}
	defer r.close(&err)
	res := r.res
	log := newSpanLog()

	// Phase one: every server-side span retained, for the price of it.
	if _, err := r.setup(1, "-span-sample", "1"); err != nil {
		return nil, err
	}
	retained, err := r.closed(h.dur(0.125), nil)
	if err != nil {
		return nil, err
	}
	r.c.kill()

	// Phase two: production flags, the harness's own spans around every
	// request. These are the wire numbers the layers are subtracted from.
	if _, err := r.boot(); err != nil {
		return nil, err
	}
	r.warmUp()
	spans := make([][]wireSpan, h.clients)
	log.rung()
	p, err := r.closed(h.dur(0.25), func(cl, i int, k opKind, start time.Time, took time.Duration) {
		spans[cl] = append(spans[cl], wireSpan{i, k, start, took})
	})
	if err != nil {
		return nil, err
	}
	wire := make(map[opKind][]time.Duration)
	var wireAll []time.Duration
	for cl, ss := range spans {
		for _, s := range ss {
			wire[s.k] = append(wire[s.k], s.took)
			wireAll = append(wireAll, s.took)
			if cl == 0 {
				log.add(s.i, "wire", "", s.start, s.took)
			}
		}
	}
	// The same over one connection: what a request costs when it waits
	// behind nobody. The in-process rungs are single-threaded, so this is
	// the wire number they subtract from; the rest of the C-connection
	// median is waiting — for a lock, a core, the other request's fsync.
	wire1 := make(map[opKind][]time.Duration)
	var wire1All []time.Duration
	r.ls.clients = 1
	_, err = r.closed(h.dur(0.0625), func(_, _ int, k opKind, _ time.Time, took time.Duration) {
		wire1[k] = append(wire1[k], took)
		wire1All = append(wire1All, took)
	})
	r.ls.clients = h.clients
	if err != nil {
		return nil, err
	}

	// The middle rate of the ladder, for the open-loop numbers the untraced
	// run also reports but no bound could hold on a shared host.
	pool, recent := &leasePool{}, &recentRing{}
	r.prefill(pool, recent)
	rg, led := openLoop(r.ls, w.ladder[1], h.dur(0.125), pool, recent)
	r.acked.merge(led)
	res.Rungs = append(res.Rungs, rg)
	res.set("hcservd.lat_p50_ms", rg.LatP50Ms, "ms")
	res.set("hcservd.lat_p99_ms", rg.LatP99Ms, "ms")
	res.set("hcservd.gen_lag_p50_us", rg.GenLagP50Us, "us")
	res.set("hcservd.gen_lag_p99_us", rg.GenLagP99Us, "us")
	res.set("hcservd.svc_p99_ms", windowedP99(p.samples, h.dur(0.25)), "ms")
	res.set("hcservd.recovery_s", median(r.recoveryS), "s")

	res.set("hcservd.boot_s", median(r.bootS), "s")
	res.set("hcservd.items_per_s", p.itemsSec, "items/s")
	res.set("hcservd.cpu_ms_per_kitem", (p.userMs+p.sysMs)/(p.items()/1000), "ms")
	res.set("hcservd.cpu_user_ms_per_kitem", p.userMs/(p.items()/1000), "ms")
	res.set("hcservd.cpu_sys_ms_per_kitem", p.sysMs/(p.items()/1000), "ms")
	res.set("hcservd.span_retention_overhead_ratio", p.itemsSec/retained.itemsSec, "ratio")
	att, _ := p.led.totals()
	res.set("dispatch.shed_ratio", float64(p.led.shed)/float64(att), "ratio")
	leases := p.led.attempted[opNext] + p.led.attempted[opLeaseBatch]
	res.set("queue.lease_empty_ratio", float64(p.led.empty[opNext]+p.led.empty[opLeaseBatch])/float64(max(leases, 1)), "ratio")
	answered := len(p.led.answers) + len(p.led.late)
	res.set("quality.late_answer_ratio", float64(len(p.led.late))/float64(max(answered, 1)), "ratio")

	var scrapes []time.Duration
	for i := 0; i < 3; i++ {
		_, took, err := r.c.leader.scrape()
		if err != nil {
			return nil, err
		}
		scrapes = append(scrapes, took)
	}
	res.set("metrics.scrape_ms", durQuantile(scrapes, 0.5)/1000, "ms")
	res.set("repl.catchup_s", 0, "s")
	res.set("repl.lag_seq_p99", 0, "count")
	res.set("repl.lag_s_max", 0, "s")
	res.set("repl.failover_s", 0, "s")
	if w.follower {
		res.set("repl.catchup_s", median(r.catchupS), "s")
		res.set("repl.lag_seq_p99", quantile(p.lagSeq, 0.99), "count")
		res.set("repl.lag_s_max", quantile(p.lagSec, 1), "s")
		took, err := r.failover()
		if err != nil {
			return nil, err
		}
		res.set("repl.failover_s", took, "s")
	}
	if err := r.verify(); err != nil {
		return nil, err
	}
	r.c.kill()

	// The in-process rungs, on the same seed's stream.
	dir, err := r.newDir("inproc")
	if err != nil {
		return nil, err
	}
	layers, tm, err := runLayers(w, h.seed, dir, h.dur(0.5), h.clients, log)
	if err != nil {
		return nil, err
	}
	for name, v := range layers {
		res.set(name, v, h.units[name])
	}

	// Self times: each rung minus the rung beneath it, request by request,
	// over the request indices every rung reached.
	self := selfTimes(commonIndices(log.spans))
	var coreSelf []time.Duration
	for name, ds := range self {
		if strings.HasPrefix(name, "core.") {
			coreSelf = append(coreSelf, ds...)
		}
	}
	// dispatch.self_us is handler minus core only; the span tree also
	// takes out jsonx and the span bookkeeping, which the table shows.
	handlerMinusCore := subtractByIndex(commonIndices(log.spans), "dispatch.handler_", "core.")
	res.set("dispatch.self_us", durQuantile(handlerMinusCore, 0.5), "us")
	res.set("core.self_us", durQuantile(coreSelf, 0.5), "us")
	res.set("hcservd.svc_p50_us", durQuantile(wireAll, 0.5), "us")
	res.set("hcservd.contention_us", durQuantile(wireAll, 0.5)-durQuantile(wire1All, 0.5), "us")
	res.set("hcservd.wire_residual_us", durQuantile(wire1All, 0.5)-tm.p50("dispatch.handler"), "us")

	printLayerTable(w, h.clients, wire, wire1, tm, self)
	if err := log.writeFile(filepath.Join(h.outDir, "trace-"+w.name+".jsonl")); err != nil {
		return nil, err
	}
	r.finish()
	// The traced run reports per-layer metrics only: end-to-end numbers
	// are never taken from a run that records spans.
	for _, name := range []string{"answers_per_task", "fail_ratio"} {
		delete(res.Metrics, name)
	}
	return res, nil
}

// commonIndices keeps the spans whose request index every rung reached:
// the wire phase, the handler rung and the rungs below it each stop at
// their own index, and a span tree missing its children has no self time.
func commonIndices(spans []span) []span {
	reached := make(map[string]int) // layer → highest index seen
	layer := func(name string) string {
		switch {
		case name == "wire":
			return "wire"
		case strings.HasPrefix(name, "dispatch.handler_"):
			return "handler"
		case strings.HasPrefix(name, "core."):
			return "core"
		}
		return "leaf"
	}
	for _, s := range spans {
		if hi, ok := reached[layer(s.Name)]; !ok || s.I > hi {
			reached[layer(s.Name)] = s.I
		}
	}
	limit := -1
	for _, hi := range reached {
		if limit < 0 || hi < limit {
			limit = hi
		}
	}
	var out []span
	for _, s := range spans {
		if s.I <= limit {
			out = append(out, s)
		}
	}
	return out
}

// subtractByIndex returns, per request index, the duration of the span
// whose name starts with outer minus that of the span starting with inner.
func subtractByIndex(spans []span, outer, inner string) []time.Duration {
	in := make(map[int]int64)
	for _, s := range spans {
		if strings.HasPrefix(s.Name, inner) {
			in[s.I] = s.End - s.Start
		}
	}
	var out []time.Duration
	for _, s := range spans {
		if strings.HasPrefix(s.Name, outer) {
			if d, ok := in[s.I]; ok {
				out = append(out, time.Duration(s.End-s.Start-d))
			}
		}
	}
	return out
}

// printLayerTable prints, per op of the workload's mix, the wire median and
// where it goes. The waiting and residual rows are defined as what is
// left, so waiting + residual + handler is the wire median exactly.
func printLayerTable(w *workload, clients int, wire, wire1 map[opKind][]time.Duration, tm *timings, self map[string][]time.Duration) {
	seen := make(map[opKind]bool)
	var ops []opKind
	for _, k := range w.unit {
		if !seen[k] && len(wire[k]) > 0 {
			seen[k] = true
			ops = append(ops, k)
		}
	}
	fmt.Printf("# %s: p50 per request in us, loopback; the handler and below run one request at a time\n", w.name)
	fmt.Printf("# %-40s", "layer")
	for _, k := range ops {
		fmt.Printf(" %12s", k)
	}
	fmt.Println()
	row := func(label string, f func(k opKind) float64) {
		fmt.Printf("# %-40s", label)
		for _, k := range ops {
			fmt.Printf(" %12.1f", f(k))
		}
		fmt.Println()
	}
	row(fmt.Sprintf("wire, %d connections", clients), func(k opKind) float64 { return durQuantile(wire[k], 0.5) })
	row("  waiting (wire - wire at 1)", func(k opKind) float64 {
		return durQuantile(wire[k], 0.5) - durQuantile(wire1[k], 0.5)
	})
	row("  hcservd residual (wire at 1 - handler)", func(k opKind) float64 {
		return durQuantile(wire1[k], 0.5) - tm.p50("dispatch.handler_"+k.String())
	})
	row("  dispatch.handler", func(k opKind) float64 { return tm.p50("dispatch.handler_" + k.String()) })
	row("    dispatch self", func(k opKind) float64 {
		return durQuantile(self["dispatch.handler_"+k.String()], 0.5)
	})
	row("    core", func(k opKind) float64 { return tm.p50("core." + k.String()) })
	row("      core self", func(k opKind) float64 { return durQuantile(self["core."+k.String()], 0.5) })
	var leaves []string
	for name := range self {
		if !strings.HasPrefix(name, "dispatch.") && !strings.HasPrefix(name, "core.") && name != "wire" {
			leaves = append(leaves, name)
		}
	}
	sort.Strings(leaves)
	for _, name := range leaves {
		fmt.Printf("# %-40s %12.1f  (n=%d)\n", "      "+name, durQuantile(self[name], 0.5), len(self[name]))
	}
}
