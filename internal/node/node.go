// Package node is one hcservd process's lifetime: the order it recovers,
// serves, promotes and shuts down in. Open runs the one boot sequence and
// returns a serving Node; Promote turns a follower into the leader; Close
// runs the one shutdown sequence. Nothing here exits the process — boot and
// promotion failures are returned, later ones arrive on Err — so a test or a
// harness runs the same sequence the binary does.
package node

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"humancomp/internal/agree"
	"humancomp/internal/core"
	"humancomp/internal/dispatch"
	"humancomp/internal/repl"
	"humancomp/internal/session"
	"humancomp/internal/store"
	"humancomp/internal/task"
	"humancomp/internal/vocab"
)

// Config is what hcservd's flags say; the comments name the flag. Flags
// that configure the core, the span plane or the API middleware bind
// straight into Core and API.
type Config struct {
	Addr, AdminAddr string // -addr, -admin-addr ("" = no admin listener)
	Snapshot, WAL   string // -snapshot, -wal ("" = none)
	WALSync         string // -wal-sync: always, interval or never
	WALSyncInterval time.Duration
	ExpiryInterval  time.Duration
	APIKeys         string // -api-keys, comma-separated; "" leaves the API open
	Follow          string // -follow: leader base URL; "" = boot as leader
	MaxReplicaLag   time.Duration
	Sessions        int // -sessions: game items; 0 = no session plane

	MatchTimeout, RoundTimeout time.Duration // of the session plane

	// The http.Server limits both listeners run with.
	ReadHeaderTimeout, ReadTimeout, WriteTimeout, IdleTimeout time.Duration
	MaxHeaderBytes                                            int

	// Core carries -lease-ttl, -trace-capacity, -quality-*,
	// -confidence-target and -span*; Open supplies Journal.
	Core core.Config
	// API carries -rate, -burst, -request-timeout, -max-inflight and
	// -idempotency-capacity, and the logger -log-json/-log-level built (nil
	// discards; the node logs through it too). Open supplies the rest.
	API dispatch.Options
	// Version labels hc_build_info (-ldflags "-X main.version=...").
	Version string
}

// validate refuses flag combinations the node cannot run with, before any
// file or socket is touched, and parses the two flags that need it: the
// sync policy is returned, the keys land in c.API.APIKeys.
func (c *Config) validate() (store.SyncPolicy, error) {
	policy, err := store.ParseSyncPolicy(c.WALSync)
	switch {
	case err != nil:
		return 0, fmt.Errorf("invalid -wal-sync: %w", err)
	case c.Core.ConfidenceTarget > 0 && !c.Core.OnlineQuality:
		return 0, errors.New("-confidence-target requires -quality-online")
	case c.Follow != "" && (c.WAL == "" || c.Snapshot == ""):
		return 0, errors.New("-follow requires -wal and -snapshot")
	case c.Follow != "" && c.Sessions > 0:
		return 0, errors.New("-sessions cannot be combined with -follow (sessions are leader-local)")
	}
	// Trim and drop empty entries so "a,b," never registers the empty
	// string as a valid key (which would admit unauthenticated requests).
	for _, k := range strings.Split(c.APIKeys, ",") {
		if k = strings.TrimSpace(k); k != "" {
			c.API.APIKeys = append(c.API.APIKeys, k)
		}
	}
	if c.APIKeys != "" && len(c.API.APIKeys) == 0 {
		return 0, errors.New("-api-keys contains no usable keys")
	}
	return policy, nil
}

// ErrNotFollower is Promote's answer on a node that booted as leader.
var ErrNotFollower = errors.New("node: not a follower")

// Node is a booted, serving hcservd.
type Node struct {
	cfg Config // API's keys, session plane and follower gate filled in by Open
	log *slog.Logger
	sys *core.System

	// Set when -wal is: the log, the file under it, the replication source
	// it is tapped into, and the journal that points at it once this node
	// leads.
	wal     *store.WAL
	walFile *os.File
	source  *repl.Source
	journal *repl.SwitchableJournal

	// Set under -follow.
	follower   *repl.Follower
	stopFollow context.CancelFunc
	followDone chan struct{}

	apiLn, adminLn   net.Listener // bound by Open; adminLn nil without -admin-addr
	adminAddr        string
	apiSrv, adminSrv *http.Server // serving once boot is through
	adminOpts        dispatch.AdminOptions
	// ready is true from the moment the API listener is served until Close;
	// /readyz is 503 outside that window.
	ready      atomic.Bool
	stopExpiry chan struct{}
	bg         sync.WaitGroup // expiry loop and the listeners' Serve calls
	errc       chan error

	promoteOnce, closeOnce sync.Once
	promoteErr, closeErr   error
}

// Open validates cfg, binds both listeners — so a taken address is refused
// with the state directory untouched — runs the boot sequence and serves.
func Open(cfg Config) (*Node, error) {
	policy, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	// errc: one send each from the two listeners and a failed promotion.
	n := &Node{cfg: cfg, log: cfg.API.Logger, stopExpiry: make(chan struct{}), errc: make(chan error, 3)}
	if n.log == nil {
		n.log = dispatch.DiscardLogger()
	}
	if n.apiLn, err = net.Listen("tcp", cfg.Addr); err != nil {
		return nil, fmt.Errorf("binding -addr: %w", err)
	}
	if cfg.AdminAddr != "" {
		if n.adminLn, err = net.Listen("tcp", cfg.AdminAddr); err != nil {
			n.apiLn.Close()
			return nil, fmt.Errorf("binding -admin-addr: %w", err)
		}
		n.adminAddr = n.adminLn.Addr().String()
	}
	if err := n.boot(policy); err != nil {
		n.close(false)
		return nil, err
	}
	return n, nil
}

// boot is the one boot sequence, the same for every role. The system is
// built once, over an attach-later journal, and state is loaded straight
// into it: a follower first downloads the leader's sequence-0 snapshot to
// its own snapshot path; every node restores its snapshot; a leader then
// replays the WAL tail written after it (a torn or corrupt tail is
// truncated, not fatal), requeues and checkpoints. Then the WAL starts empty
// and becomes the journal once the node leads — at boot for a leader, at
// promotion for a follower. The boot snapshot plus the current WAL is
// therefore always the complete state — the contract replication bootstrap
// relies on. Last come the session plane, the lease expiry loop, and serving.
func (n *Node) boot(policy store.SyncPolicy) error {
	cfg, following := &n.cfg, n.cfg.Follow != ""
	var err error
	if cfg.WAL != "" {
		n.journal = &repl.SwitchableJournal{}
		cfg.Core.Journal = n.journal
	}
	n.sys = core.New(cfg.Core)
	n.log.Info("dispatch core ready")
	if following {
		n.sys.SetReadOnly(true)
		// Adopt the leader's snapshot as our own (chained followers can
		// bootstrap from us) and boot from that file as a leader would.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = fetchLeaderSnapshot(ctx, n.log, nil, cfg.Follow, cfg.Snapshot, time.Second)
		cancel()
		if err != nil {
			return fmt.Errorf("bootstrapping from leader snapshot at %s: %w", cfg.Follow, err)
		}
	}
	if cfg.Snapshot != "" {
		if err = restore(n.log, n.sys, cfg.Snapshot); err != nil {
			return fmt.Errorf("restoring snapshot: %w", err)
		}
	}
	if !following {
		if cfg.WAL != "" {
			if n.adminOpts.WALRecovery, err = recoverWAL(n.log, n.sys, cfg.WAL); err != nil {
				return err
			}
		}
		n.sys.RequeueOpen()
		if cfg.WAL != "" && cfg.Snapshot != "" {
			if err = save(n.sys, cfg.Snapshot); err != nil {
				return fmt.Errorf("checkpointing after replay: %w", err)
			}
		}
	}
	if cfg.WAL != "" {
		if err = n.openWAL(policy); err != nil {
			return err
		}
	}

	// The live session plane is leader-local, in-memory state: games and
	// matchmaking queues are not replicated, players reconnect after a
	// failover. Session agreements journal like any other answer.
	if cfg.Sessions > 0 {
		bridge := dispatch.NewSessionBridge(n.sys, cfg.Sessions, 2, 1)
		plane, err := session.New(session.Config{
			MatchTimeout: cfg.MatchTimeout,
			RoundTimeout: cfg.RoundTimeout,
			Match:        agree.Exact,
			Lexicon:      vocab.NewLexicon(vocab.DefaultLexiconConfig()),
			NextItem:     bridge.NextItem,
			OnResult:     bridge.OnResult,
			Seed:         1,
		})
		if err != nil {
			return fmt.Errorf("starting session plane: %w", err)
		}
		cfg.API.Sessions, n.adminOpts.Sessions, n.adminOpts.SessionBridge = plane, plane, bridge
		n.log.Info("session plane ready", "items", cfg.Sessions,
			"match_timeout", cfg.MatchTimeout, "round_timeout", cfg.RoundTimeout)
	}

	n.bg.Add(1)
	go n.expireLoop()
	n.serve()
	return nil
}

// openWAL loads the term, truncates the WAL — the snapshot covers history,
// so sequence 1 is the first record after it (on a follower: leader
// sequence 1) — taps it into the replication source, and attaches it as
// the journal on a leader or starts tailing the leader on a follower.
func (n *Node) openWAL(policy store.SyncPolicy) error {
	cfg := &n.cfg
	term, err := repl.LoadTerm(n.termPath())
	if err != nil {
		return fmt.Errorf("loading replication term: %w", err)
	}
	opts := repl.SourceOptions{Term: term, WALPath: cfg.WAL}
	if cfg.Snapshot != "" {
		opts.Snapshot = repl.SnapshotFile(cfg.Snapshot)
	}
	if n.walFile, err = os.Create(cfg.WAL); err != nil {
		return fmt.Errorf("creating wal: %w", err)
	}
	n.source = repl.NewSource(opts)
	n.wal = store.NewWALWith(n.walFile, store.WALOptions{
		Policy:   policy,
		Interval: cfg.WALSyncInterval,
		OnRecord: n.source.OnRecord,
	})
	n.adminOpts.WAL, n.adminOpts.Repl = n.wal, n.replState
	n.log.Info("wal open", "path", cfg.WAL, "sync", policy.String(), "term", term)
	if cfg.Follow == "" {
		n.journal.Set(n.wal)
		return nil
	}
	// A follower refuses writes, naming its leader, until it is promoted.
	cfg.API.Writable = func() bool { return !n.sys.ReadOnly() }
	cfg.API.LeaderHint = func() string { return cfg.Follow }
	n.follower = repl.NewFollower(repl.FollowerOptions{
		Leader: cfg.Follow,
		Term:   term,
		Apply: func(_ int64, e store.Event) error {
			if err := store.ApplyEvent(n.sys.Store(), e); err != nil {
				return err
			}
			n.sys.ObserveRecoveredEvent(e)
			return n.wal.Append(e)
		},
		OnTermChange: func(t int64) error {
			n.source.SetTerm(t)
			return repl.SaveTerm(n.termPath(), t)
		},
		Logger: n.log,
	})
	var ctx context.Context
	ctx, n.stopFollow = context.WithCancel(context.Background())
	n.followDone = make(chan struct{})
	go func() {
		defer close(n.followDone)
		if err := n.follower.Run(ctx); err != nil {
			n.log.Error("replication stream ended", "err", err)
		}
	}()
	return nil
}

func (n *Node) termPath() string { return n.cfg.WAL + ".term" }

func (n *Node) expireLoop() {
	defer n.bg.Done()
	t := time.NewTicker(n.cfg.ExpiryInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if leases := n.sys.ExpireLeases(); leases > 0 {
				n.log.Info("reclaimed expired leases", "leases", leases)
			}
		case <-n.stopExpiry:
			return
		}
	}
}

// serve builds the two handlers and starts serving the bound listeners.
func (n *Node) serve() {
	api := dispatch.NewServerWith(n.sys, n.cfg.API)

	// The public handler: /v1/repl/* (when a WAL backs this node) serves
	// replication peers; everything else is the dispatch API.
	var handler http.Handler = api
	if n.source != nil {
		var promote http.HandlerFunc
		if n.follower != nil {
			promote = n.handlePromote
		}
		mux := http.NewServeMux()
		mux.Handle("/v1/repl/", n.source.Handler(promote))
		mux.Handle("/", api)
		handler = mux
	}
	if n.adminLn != nil {
		n.adminOpts.Ready, n.adminOpts.Start, n.adminOpts.Version = n.readiness, time.Now(), n.cfg.Version
		n.adminSrv = n.listen("admin ", n.adminLn, dispatch.NewAdminHandler(n.sys, api, n.adminOpts))
	}
	n.apiSrv = n.listen("", n.apiLn, handler)
	n.ready.Store(true)
}

// listen serves h on ln in the background; a Serve that ends for any
// reason but Close is reported on Err. who prefixes the log lines.
func (n *Node) listen(who string, ln net.Listener, h http.Handler) *http.Server {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: n.cfg.ReadHeaderTimeout,
		ReadTimeout:       n.cfg.ReadTimeout,
		WriteTimeout:      n.cfg.WriteTimeout,
		IdleTimeout:       n.cfg.IdleTimeout,
		MaxHeaderBytes:    n.cfg.MaxHeaderBytes,
	}
	n.log.Info(who+"listening", "addr", ln.Addr().String())
	n.bg.Add(1)
	go func() {
		defer n.bg.Done()
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			n.errc <- fmt.Errorf("%sserver failed: %w", who, err)
		}
	}()
	return srv
}

// readiness gates /readyz: serving, and not degraded — a WAL write path
// that started failing pulls the instance out of rotation before it can
// lose acknowledged work, and so does an unpromoted follower whose
// replication staleness exceeds -max-replica-lag.
func (n *Node) readiness() error {
	if !n.ready.Load() {
		return errors.New("not serving")
	}
	if n.wal != nil {
		if err := n.wal.Err(); err != nil {
			return fmt.Errorf("wal unhealthy: %v", err)
		}
	}
	if limit := n.cfg.MaxReplicaLag; n.follower != nil && n.sys.ReadOnly() && limit > 0 {
		if lag := n.follower.Lag(); lag.Seconds > limit.Seconds() {
			return fmt.Errorf("replication lag %.1fs (%d records) exceeds %s", lag.Seconds, lag.Seq, limit)
		}
	}
	return nil
}

func (n *Node) replState() dispatch.ReplState {
	if n.follower == nil || !n.sys.ReadOnly() {
		return dispatch.ReplState{Term: n.source.Term()}
	}
	lag := n.follower.Lag()
	return dispatch.ReplState{Term: n.source.Term(), Follower: true, LagSeq: lag.Seq, LagSeconds: lag.Seconds}
}

// Addr is the address the API listener is bound to.
func (n *Node) Addr() string { return n.apiLn.Addr().String() }

// AdminAddr is the admin listener's bound address, "" without -admin-addr.
func (n *Node) AdminAddr() string { return n.adminAddr }

// System is the core the node serves from and recovered into.
func (n *Node) System() *core.System { return n.sys }

// Err delivers what goes wrong after Open: a listener that stopped
// serving, a promotion that failed. The node is then not worth keeping;
// hcservd logs the error and exits.
func (n *Node) Err() <-chan error { return n.errc }

// Promote flips a follower into a writable leader: stop tailing, bump and
// persist the term (fencing the old leader's streams), attach the local WAL
// as the journal — only once the term is on disk — requeue, and open the
// write path. It runs once; behind POST /v1/repl/promote and SIGHUP. A node
// whose promotion failed stays read-only, returns the same error to every
// later call and reports it on Err.
func (n *Node) Promote() error {
	if n.follower == nil {
		return ErrNotFollower
	}
	n.promoteOnce.Do(func() {
		if n.promoteErr = n.promote(); n.promoteErr != nil {
			n.errc <- n.promoteErr
		}
	})
	return n.promoteErr
}

func (n *Node) promote() error {
	n.log.Info("promoting to leader")
	n.stopFollow()
	<-n.followDone
	term := n.follower.Term() + 1
	if err := repl.SaveTerm(n.termPath(), term); err != nil {
		return fmt.Errorf("persisting promotion term: %w", err)
	}
	n.source.SetTerm(term)
	n.journal.Set(n.wal)
	n.sys.RequeueOpen()
	n.sys.SetReadOnly(false)
	n.log.Info("promoted to leader", "term", term, "applied", n.follower.Applied())
	return nil
}

func (n *Node) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if err := n.Promote(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"term\":%d,\"last_seq\":%d}\n", n.source.Term(), n.source.LastSeq())
}

// Close runs the shutdown sequence once, later calls returning what the
// first did: not ready; stop the expiry loop; stop tailing the leader; end
// the replication streams this node feeds; close the session plane (which
// wakes parked long-polls, so the drain does not wait out their timers);
// drain the API and the admin listener, five seconds between them; close
// the WAL; reclaim the leases that expired meanwhile — their tasks return
// to Open before the snapshot, so the next boot re-leases them instead of
// waiting out TTLs that died with this process; write the snapshot; and
// truncate the WAL, which the snapshot now covers — the next boot must not
// replay submits the snapshot already holds (they would fail as
// duplicates). The error is the snapshot's: the one step whose failure
// loses work.
func (n *Node) Close() error {
	n.closeOnce.Do(func() { n.closeErr = n.close(true) })
	return n.closeErr
}

// close is Close with persist set; a boot that failed partway releases what
// it holds through the same steps and leaves the state files alone.
func (n *Node) close(persist bool) error {
	n.ready.Store(false)
	close(n.stopExpiry)
	if n.stopFollow != nil {
		n.stopFollow()
		<-n.followDone
	}
	if n.source != nil {
		n.source.Close()
	}
	if plane := n.cfg.API.Sessions; plane != nil {
		plane.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if n.apiSrv == nil { // never served: nothing to drain
		n.apiLn.Close()
	} else if err := n.apiSrv.Shutdown(ctx); err != nil {
		n.log.Warn("shutdown", "err", err)
	}
	if n.adminSrv != nil {
		if err := n.adminSrv.Shutdown(ctx); err != nil {
			n.log.Warn("admin shutdown", "err", err)
		}
	} else if n.adminLn != nil {
		n.adminLn.Close()
	}
	n.bg.Wait()
	if n.wal != nil {
		defer n.walFile.Close()
		if err := n.wal.Close(); err != nil {
			n.log.Warn("closing wal", "err", err)
		}
	}
	if !persist || n.cfg.Snapshot == "" {
		return nil
	}
	if leases := n.sys.ExpireLeases(); leases > 0 {
		n.log.Info("reclaimed expired leases at shutdown", "leases", leases)
	}
	if err := save(n.sys, n.cfg.Snapshot); err != nil {
		return fmt.Errorf("writing snapshot: %w", err)
	}
	n.log.Info("snapshot written", "path", n.cfg.Snapshot)
	if n.walFile != nil {
		if err := n.walFile.Truncate(0); err != nil {
			n.log.Warn("truncating wal after snapshot", "err", err)
		}
	}
	return nil
}

// fetchLeaderSnapshot streams the leader's bootstrap snapshot into the file
// at path, retrying every retry until ctx ends so a follower can start
// slightly before its leader. A download that dies partway never shows at
// path: store.WriteDurable renames only a complete body into place.
func fetchLeaderSnapshot(ctx context.Context, log *slog.Logger, hc *http.Client, leader, path string, retry time.Duration) error {
	for {
		err := store.WriteDurable(path, func(w io.Writer) error {
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
		log.Warn("leader snapshot fetch failed; retrying", "err", err)
		select {
		case <-ctx.Done():
			return err
		case <-time.After(retry):
		}
	}
}

// restore loads a snapshot; a missing file is a clean first start.
func restore(log *slog.Logger, sys *core.System, path string) error {
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
	log.Info("restored snapshot", "tasks", sys.Store().Len(),
		"open", sys.Store().Count(task.Open))
	return nil
}

// recoverWAL replays the WAL tail at path onto sys, calibration state
// included, truncating a torn or corrupt tail; a missing file is a clean
// first start (nil stats).
func recoverWAL(log *slog.Logger, sys *core.System, path string) (*store.ReplayStats, error) {
	tail, err := os.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("opening wal: %w", err)
	}
	defer tail.Close()
	st, err := store.RecoverWALObserved(tail, sys.Store(), sys.ObserveRecoveredEvent)
	if err != nil {
		return nil, fmt.Errorf("recovering wal: %w", err)
	}
	if st.TruncatedBytes > 0 {
		log.Warn("truncated damaged wal tail",
			"bytes", st.TruncatedBytes, "good_bytes", st.GoodBytes)
	}
	if st.Applied > 0 {
		log.Info("replayed wal events", "events", st.Applied)
	}
	return &st, nil
}

// save checkpoints sys to the snapshot file at path.
func save(sys *core.System, path string) error { return store.WriteDurable(path, sys.Snapshot) }
