// Command hcservd runs the human-computation dispatch service: an HTTP
// server that accepts tasks, leases them to workers with redundancy
// control, scores gold probes into worker reputations, and aggregates
// answers. State can be checkpointed to a JSON snapshot and restored on
// restart; a write-ahead log covers the tail between snapshots, with
// checksummed records that recover cleanly from a crash mid-write.
//
// A second, optional listener (-admin-addr) serves the operational
// surface — Prometheus metrics, health/readiness probes and pprof — kept
// off the public API address so it can be bound to loopback.
//
//	hcservd -addr :8080 -admin-addr 127.0.0.1:9090 -snapshot state.json \
//	  -wal wal.log -wal-sync interval -lease-ttl 2m
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"humancomp/internal/agree"
	"humancomp/internal/core"
	"humancomp/internal/dispatch"
	"humancomp/internal/repl"
	"humancomp/internal/session"
	"humancomp/internal/store"
	"humancomp/internal/task"
	"humancomp/internal/trace"
	"humancomp/internal/vocab"
)

// version identifies the build on hc_build_info; override with
// -ldflags "-X main.version=...".
var version = "dev"

// startTime anchors hc_uptime_seconds.
var startTime = time.Now()

// logger is the process-wide structured logger, configured from flags in
// main before anything logs.
var logger = slog.Default()

// fatal logs at error level and exits; the slog replacement for log.Fatalf.
func fatal(msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

// newLogger builds the process logger from the -log-json/-log-level flags.
func newLogger(json bool, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	if json {
		h = slog.NewJSONHandler(os.Stderr, opts)
	} else {
		h = slog.NewTextHandler(os.Stderr, opts)
	}
	return slog.New(h), nil
}

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		adminAddr = flag.String("admin-addr", "", "admin listen address for /metrics, /healthz, /readyz and /debug/pprof; empty disables")
		snapshot  = flag.String("snapshot", "", "snapshot file to restore on start and write on shutdown")
		walPath   = flag.String("wal", "", "write-ahead log file: recovered after the snapshot on start, appended to while running")
		walSync   = flag.String("wal-sync", "interval", "WAL durability: always (fsync per append, group-committed), interval (background fsync), never")
		walSyncIv = flag.Duration("wal-sync-interval", 100*time.Millisecond, "background fsync period under -wal-sync=interval")
		leaseTTL  = flag.Duration("lease-ttl", 2*time.Minute, "worker lease duration")
		expiry    = flag.Duration("expiry-interval", 10*time.Second, "how often expired leases are reclaimed")
		apiKeys   = flag.String("api-keys", "", "comma-separated API keys; empty leaves the server open")
		rate      = flag.Float64("rate", 0, "per-key request rate limit (req/s); 0 disables")
		burst     = flag.Float64("burst", 20, "rate-limit burst size")
		shards    = flag.Int("shards", 0, "store/queue lock shards, rounded up to a power of two; 0 = auto (GOMAXPROCS)")
		traceCap  = flag.Int("trace-capacity", 0, "lifecycle trace ring capacity in events; 0 = default, negative disables tracing")

		spansOn    = flag.Bool("spans", true, "record request-scoped span trees, tail-sampled and served at admin GET /v1/debug/spans")
		spanCap    = flag.Int("span-capacity", 0, "retained span trees in the debug ring; 0 = default (512)")
		spanSlow   = flag.Duration("span-slow", 0, "root latency at or above which a trace is always retained; 0 = default (100ms), negative disables slow retention")
		spanSample = flag.Int("span-sample", 0, "keep a deterministic 1-in-N sample of fast clean traces; 0 = default (1024), negative disables sampling")
		logJSON    = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")

		qualityOn  = flag.Bool("quality-online", true, "run the online Dawid-Skene quality estimator over choice-task answers")
		confTarget = flag.Float64("confidence-target", 0, "posterior confidence that completes a choice task before redundancy (0 disables early completion)")
		qualityMin = flag.Int("quality-min-answers", 2, "answers required before confidence can complete a task early")

		readHeaderTO = flag.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (slowloris guard); 0 disables")
		readTO       = flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout; 0 disables")
		writeTO      = flag.Duration("write-timeout", 0, "http.Server WriteTimeout; 0 disables")
		maxHeader    = flag.Int("max-header-bytes", 0, "http.Server MaxHeaderBytes; 0 = stdlib default (1 MiB)")
		idleTO       = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections; 0 disables")
		requestTO    = flag.Duration("request-timeout", 30*time.Second, "per-request handler deadline (503 past it); 0 disables")
		maxInflight  = flag.Int("max-inflight", 1024, "per-route concurrent request cap; excess is shed with 429; 0 disables")
		idemCap      = flag.Int("idempotency-capacity", 0, "Idempotency-Key replay cache entries; 0 = default (4096), negative disables")

		follow = flag.String("follow", "", "run as replication follower of the leader at this base URL (requires -wal and -snapshot); writes are rejected with 503 + X-Leader until promotion (POST /v1/repl/promote or SIGHUP)")
		maxLag = flag.Duration("max-replica-lag", 10*time.Second, "follower readiness degrades (503 on /readyz) when replication staleness exceeds this; 0 disables the check")

		sessItems = flag.Int("sessions", 0, "live session plane: distinct game items players are matched over; 0 disables the /v1/sessions API")
		matchTO   = flag.Duration("match-timeout", 2*time.Second, "matchmaking wait before a lone player falls back to a replayed partner")
		roundTO   = flag.Duration("round-timeout", 60*time.Second, "live round deadline; sessions past it end with reason timeout")
	)
	flag.Parse()

	l, err := newLogger(*logJSON, *logLevel)
	if err != nil {
		fatal("invalid -log-level", "level", *logLevel, "err", err)
	}
	logger = l.With("service", "hcservd")
	slog.SetDefault(logger)

	syncPolicy, err := store.ParseSyncPolicy(*walSync)
	if err != nil {
		fatal("invalid -wal-sync", "err", err)
	}

	cfg := core.DefaultConfig()
	cfg.LeaseTTL = *leaseTTL
	cfg.Shards = *shards
	cfg.TraceCapacity = *traceCap
	cfg.OnlineQuality = *qualityOn
	cfg.ConfidenceTarget = *confTarget
	cfg.QualityMinAnswers = *qualityMin
	cfg.Spans = trace.SpanConfig{
		Enabled:       *spansOn,
		Capacity:      *spanCap,
		SlowThreshold: *spanSlow,
		SampleEvery:   *spanSample,
	}
	if *confTarget > 0 && !*qualityOn {
		fatal("-confidence-target requires -quality-online")
	}

	// One boot sequence for every role. The system is built once, over an
	// attach-later journal, and state is loaded straight into it: a
	// follower first downloads the leader's sequence-0 snapshot to its own
	// snapshot path; every node restores its snapshot; a leader then replays
	// the WAL tail written after it (a torn or corrupt tail is truncated,
	// not fatal), requeues and checkpoints. Then the WAL starts empty and
	// becomes the journal once the node leads — at boot for a leader, at
	// promotion for a follower. The boot snapshot plus the current WAL is
	// therefore always the complete state — the contract replication
	// bootstrap relies on.
	var (
		wal        *store.WAL
		walFile    *os.File
		walStats   *store.ReplayStats
		replSource *repl.Source
		follower   *repl.Follower
		journal    *repl.SwitchableJournal
		termPath   string
		stopFollow context.CancelFunc
		followDone chan struct{}
		followErr  error
	)
	if *follow != "" && (*walPath == "" || *snapshot == "") {
		fatal("-follow requires -wal and -snapshot")
	}
	if *walPath != "" {
		termPath = *walPath + ".term"
		journal = &repl.SwitchableJournal{}
		cfg.Journal = journal
	}
	sys := core.New(cfg)
	logger.Info("dispatch core ready", "shards", sys.Shards())
	if *follow != "" {
		sys.SetReadOnly(true)
		// Adopt the leader's snapshot as our own (chained followers can
		// bootstrap from us) and boot from that file as a leader would.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := fetchLeaderSnapshot(ctx, nil, *follow, *snapshot, time.Second)
		cancel()
		if err != nil {
			fatal("bootstrapping from leader snapshot", "leader", *follow, "err", err)
		}
	}
	if *snapshot != "" {
		if err := restore(sys, *snapshot); err != nil {
			fatal("restoring snapshot", "err", err)
		}
	}
	if *follow == "" {
		if *walPath != "" {
			walStats = recoverWAL(sys, *walPath)
		}
		if err := sys.RequeueOpen(); err != nil {
			fatal("requeueing recovered tasks", "err", err)
		}
		if *walPath != "" && *snapshot != "" {
			if err := save(sys, *snapshot); err != nil {
				fatal("checkpointing after replay", "err", err)
			}
		}
	}
	if *walPath != "" {
		term, err := repl.LoadTerm(termPath)
		if err != nil {
			fatal("loading replication term", "err", err)
		}
		srcOpts := repl.SourceOptions{Term: term, WALPath: *walPath}
		if *snapshot != "" {
			srcOpts.Snapshot = repl.SnapshotFile(*snapshot)
		}
		replSource = repl.NewSource(srcOpts)
		// Truncate: the snapshot covers history, so sequence 1 is the first
		// record after it (on a follower: leader sequence 1).
		walFile, err = os.Create(*walPath)
		if err != nil {
			fatal("creating wal", "err", err)
		}
		defer walFile.Close()
		wal = store.NewWALWith(walFile, store.WALOptions{
			Policy:   syncPolicy,
			Interval: *walSyncIv,
			OnRecord: replSource.OnRecord,
		})
		defer wal.Close()
		logger.Info("wal open", "path", *walPath, "sync", syncPolicy.String(), "term", term)

		if *follow == "" {
			journal.Set(wal)
		} else {
			follower = repl.NewFollower(repl.FollowerOptions{
				Leader: *follow,
				Term:   term,
				Apply: func(seq int64, e store.Event) error {
					if err := store.ApplyEvent(sys.Store(), e); err != nil {
						return err
					}
					sys.ObserveRecoveredEvent(e)
					return wal.Append(e)
				},
				OnTermChange: func(t int64) error {
					replSource.SetTerm(t)
					return repl.SaveTerm(termPath, t)
				},
				Logger: logger,
			})
			var followCtx context.Context
			followCtx, stopFollow = context.WithCancel(context.Background())
			followDone = make(chan struct{})
			go func() {
				followErr = follower.Run(followCtx)
				if followErr != nil {
					logger.Error("replication stream ended", "err", followErr)
				}
				close(followDone)
			}()
		}
	}

	// The live session plane is leader-local, in-memory state: games and
	// matchmaking queues are not replicated, players reconnect after a
	// failover. Session agreements journal like any other answer.
	var (
		sessions      *session.Plane
		sessionBridge *dispatch.SessionBridge
	)
	if *sessItems > 0 {
		if *follow != "" {
			fatal("-sessions cannot be combined with -follow (sessions are leader-local)")
		}
		sessionBridge = dispatch.NewSessionBridge(sys, *sessItems, 2, 1)
		sessions, err = session.New(session.Config{
			MatchTimeout: *matchTO,
			RoundTimeout: *roundTO,
			Match:        agree.Exact,
			Lexicon:      vocab.NewLexicon(vocab.DefaultLexiconConfig()),
			NextItem:     sessionBridge.NextItem,
			OnResult:     sessionBridge.OnResult,
			Seed:         1,
		})
		if err != nil {
			fatal("starting session plane", "err", err)
		}
		logger.Info("session plane ready", "items", *sessItems,
			"match_timeout", *matchTO, "round_timeout", *roundTO)
	}

	stopExpiry := make(chan struct{})
	go func() {
		t := time.NewTicker(*expiry)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if n := sys.ExpireLeases(); n > 0 {
					logger.Info("reclaimed expired leases", "leases", n)
				}
			case <-stopExpiry:
				return
			}
		}
	}()

	opts := dispatch.Options{
		RatePerSec:          *rate,
		Burst:               *burst,
		Logger:              logger,
		RequestTimeout:      *requestTO,
		MaxInFlight:         *maxInflight,
		IdempotencyCapacity: *idemCap,
		Sessions:            sessions,
	}
	if *follow != "" {
		opts.Writable = func() bool { return !sys.ReadOnly() }
		opts.LeaderHint = func() string { return *follow }
	}
	if *apiKeys != "" {
		// Trim and drop empty entries so "a,b," never registers the empty
		// string as a valid key (which would admit unauthenticated requests).
		for _, k := range strings.Split(*apiKeys, ",") {
			if k = strings.TrimSpace(k); k != "" {
				opts.APIKeys = append(opts.APIKeys, k)
			}
		}
		if len(opts.APIKeys) == 0 {
			fatal("-api-keys contains no usable keys")
		}
	}
	api := dispatch.NewServerWith(sys, opts)

	// Promotion flips a follower into a writable leader: stop tailing,
	// bump and persist the term (fencing the old leader's streams), attach
	// the local WAL as the journal, and open the write path. Idempotent —
	// invoked by POST /v1/repl/promote or SIGHUP.
	var promoteOnce sync.Once
	promote := func() {
		promoteOnce.Do(func() {
			logger.Info("promoting to leader")
			stopFollow()
			<-followDone
			newTerm := follower.Term() + 1
			if err := repl.SaveTerm(termPath, newTerm); err != nil {
				fatal("persisting promotion term", "err", err)
			}
			replSource.SetTerm(newTerm)
			journal.Set(wal)
			if err := sys.RequeueOpen(); err != nil {
				fatal("requeueing after promotion", "err", err)
			}
			sys.SetReadOnly(false)
			logger.Info("promoted to leader", "term", newTerm, "applied", follower.Applied())
		})
	}
	var promoteHandler http.HandlerFunc
	if follower != nil {
		promoteHandler = func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
				return
			}
			promote()
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, "{\"term\":%d,\"last_seq\":%d}\n", replSource.Term(), replSource.LastSeq())
		}
	}

	// The public handler: /v1/repl/* (when a WAL backs this node) serves
	// replication peers; everything else is the dispatch API.
	var handler http.Handler = api
	if replSource != nil {
		replHandler := replSource.Handler(promoteHandler)
		mux := http.NewServeMux()
		mux.Handle("/v1/repl/", replHandler)
		mux.Handle("/", api)
		handler = mux
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: *readHeaderTO,
		ReadTimeout:       *readTO,
		WriteTimeout:      *writeTO,
		IdleTimeout:       *idleTO,
		MaxHeaderBytes:    *maxHeader,
	}

	// ready flips once the API listener is up; /readyz serves 503 before —
	// and degrades again if the WAL write path starts failing (pulling the
	// instance out of rotation before it can lose acknowledged work) or,
	// on an unpromoted follower, when replication staleness exceeds
	// -max-replica-lag.
	var ready atomic.Bool
	readyProbe := func() error {
		if !ready.Load() {
			return errors.New("not serving")
		}
		if wal != nil && !wal.Healthy() {
			if err := wal.Err(); err != nil {
				return fmt.Errorf("wal unhealthy: %v", err)
			}
			return errors.New("wal unhealthy")
		}
		if follower != nil && sys.ReadOnly() && *maxLag > 0 {
			if lag := follower.Lag(); lag.Seconds > maxLag.Seconds() {
				return fmt.Errorf("replication lag %.1fs (%d records) exceeds %s",
					lag.Seconds, lag.Seq, *maxLag)
			}
		}
		return nil
	}
	replState := func() dispatch.ReplState {
		rs := dispatch.ReplState{Term: replSource.Term()}
		if follower != nil && sys.ReadOnly() {
			lag := follower.Lag()
			rs.Follower = true
			rs.LagSeq = lag.Seq
			rs.LagSeconds = lag.Seconds
		}
		return rs
	}
	var admin *http.Server
	if *adminAddr != "" {
		adminOpts := dispatch.AdminOptions{
			WAL:           wal,
			WALRecovery:   walStats,
			Ready:         readyProbe,
			Start:         startTime,
			Version:       version,
			Sessions:      sessions,
			SessionBridge: sessionBridge,
		}
		if replSource != nil {
			adminOpts.Repl = replState
		}
		admin = &http.Server{
			Addr:              *adminAddr,
			Handler:           dispatch.NewAdminHandler(sys, api, adminOpts),
			ReadHeaderTimeout: *readHeaderTO,
			ReadTimeout:       *readTO,
			WriteTimeout:      *writeTO,
			IdleTimeout:       *idleTO,
			MaxHeaderBytes:    *maxHeader,
		}
		go func() {
			logger.Info("admin listening", "addr", *adminAddr)
			if err := admin.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fatal("admin server failed", "err", err)
			}
		}()
	}

	go func() {
		logger.Info("listening", "addr", *addr)
		ready.Store(true)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("server failed", "err", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for s := range sig {
		if s == syscall.SIGHUP {
			// SIGHUP promotes a follower (the out-of-band path when the old
			// leader is unreachable); a leader ignores it.
			if follower != nil {
				promote()
			} else {
				logger.Info("ignoring SIGHUP: not a follower")
			}
			continue
		}
		break
	}
	logger.Info("shutting down")
	ready.Store(false)
	close(stopExpiry)
	if stopFollow != nil {
		stopFollow()
		<-followDone
	}
	if replSource != nil {
		replSource.Close()
	}

	if sessions != nil {
		// Closing the plane unblocks parked long-polls so the HTTP drain
		// below does not wait out their timers.
		sessions.Close()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("shutdown", "err", err)
	}
	if admin != nil {
		if err := admin.Shutdown(ctx); err != nil {
			logger.Warn("admin shutdown", "err", err)
		}
	}
	if wal != nil {
		if err := wal.Close(); err != nil {
			logger.Warn("closing wal", "err", err)
		}
	}
	// Reclaim whatever leases expired while the server drained: their
	// tasks return to Open before the snapshot, so the next boot re-leases
	// them instead of waiting out TTLs that died with this process.
	if n := sys.ExpireLeases(); n > 0 {
		logger.Info("reclaimed expired leases at shutdown", "leases", n)
	}
	if *snapshot != "" {
		if err := save(sys, *snapshot); err != nil {
			fatal("writing snapshot", "err", err)
		}
		logger.Info("snapshot written", "path", *snapshot)
		// The shutdown snapshot now covers everything the WAL recorded;
		// truncate it so the next boot does not replay submits the
		// snapshot already contains (which would fail as duplicates).
		if walFile != nil {
			if err := walFile.Truncate(0); err != nil {
				logger.Warn("truncating wal after snapshot", "err", err)
			}
		}
	}
}

// fetchLeaderSnapshot streams the leader's bootstrap snapshot into the file
// at path, retrying every retry until ctx ends so a follower can start
// slightly before its leader. A download that dies partway never shows at
// path: writeDurable renames only a complete body into place.
func fetchLeaderSnapshot(ctx context.Context, hc *http.Client, leader, path string, retry time.Duration) error {
	for {
		err := writeDurable(path, func(w io.Writer) error {
			rc, err := repl.FetchSnapshot(ctx, hc, leader)
			if err != nil {
				return err
			}
			defer rc.Close()
			_, err = io.Copy(w, rc)
			return err
		})
		if err == nil {
			return nil
		}
		logger.Warn("leader snapshot fetch failed; retrying", "err", err)
		select {
		case <-ctx.Done():
			return err
		case <-time.After(retry):
		}
	}
}

// restore loads a snapshot; a missing file is a clean first start.
func restore(sys *core.System, path string) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	if err := sys.Restore(f); err != nil {
		return err
	}
	logger.Info("restored snapshot", "tasks", sys.Store().Len(),
		"open", len(sys.Store().IDs(task.Open)))
	return nil
}

// recoverWAL replays the WAL tail at path onto sys, calibration state
// included, truncating a torn or corrupt tail; a missing file is a clean
// first start (nil stats).
func recoverWAL(sys *core.System, path string) *store.ReplayStats {
	tail, err := os.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		fatal("opening wal", "err", err)
	}
	defer tail.Close()
	st, err := store.RecoverWALObserved(tail, sys.Store(), sys.ObserveRecoveredEvent)
	if err != nil {
		fatal("recovering wal", "err", err)
	}
	if st.TruncatedBytes > 0 {
		logger.Warn("truncated damaged wal tail",
			"bytes", st.TruncatedBytes, "good_bytes", st.GoodBytes)
	}
	if st.Applied > 0 {
		logger.Info("replayed wal events", "events", st.Applied)
	}
	return &st
}

// save checkpoints sys to the snapshot file at path.
func save(sys *core.System, path string) error { return writeDurable(path, sys.Snapshot) }

// writeDurable replaces the file at path atomically: write streams the new
// contents into a temp file beside it, which is fsynced and renamed over the
// target, and the directory is fsynced. A crash or a failed write at any
// point — both snapshot writers stream, so a failure leaves a prefix behind —
// leaves the old file or the new one at path, never a truncated one that
// would poison the next boot.
func writeDurable(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	// Persist the rename itself; without this a power loss can forget the
	// directory entry even though both files were written.
	if err := dir.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return err
	}
	return nil
}
