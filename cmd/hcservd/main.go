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
	"errors"
	"flag"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"humancomp/internal/core"
	"humancomp/internal/node"
)

// version identifies the build on hc_build_info; override with
// -ldflags "-X main.version=...".
var version = "dev"

// fatal logs at error level and exits; the slog replacement for log.Fatalf.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

// main is flag parsing around one node: every flag binds straight into the
// node.Config field it sets, internal/node owns what happens between Open
// and Close, and this is the only place the process exits from.
func main() {
	cfg := node.Config{Core: core.DefaultConfig(), Version: version}
	flag.StringVar(&cfg.Addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.AdminAddr, "admin-addr", "", "admin listen address for /metrics, /healthz, /readyz and /debug/pprof; empty disables")
	flag.StringVar(&cfg.Snapshot, "snapshot", "", "snapshot file to restore on start and write on shutdown")
	flag.StringVar(&cfg.WAL, "wal", "", "write-ahead log file (requires -snapshot): replayed after the snapshot on start, checkpointed into it, then appended to while running")
	flag.StringVar(&cfg.WALSync, "wal-sync", "interval", "WAL durability: always (fsync per append, group-committed), interval (background fsync every 100ms), never")
	flag.DurationVar(&cfg.Core.LeaseTTL, "lease-ttl", 2*time.Minute, "worker lease duration; must be positive")
	flag.StringVar(&cfg.APIKeys, "api-keys", "", "comma-separated API keys; empty leaves the server open")
	flag.Float64Var(&cfg.API.RatePerSec, "rate", 0, "per-key request rate limit (req/s); 0 disables")
	flag.Float64Var(&cfg.API.Burst, "burst", 20, "rate-limit burst size; at least 1 when -rate is set")

	flag.BoolVar(&cfg.Core.Spans.Enabled, "spans", true, "record request-scoped span trees, tail-sampled and served at admin GET /v1/debug/spans")
	flag.IntVar(&cfg.Core.Spans.SampleEvery, "span-sample", 0, "keep a deterministic 1-in-N sample of fast clean traces; 0 = default (1024), negative disables sampling")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")

	flag.BoolVar(&cfg.Core.OnlineQuality, "quality-online", true, "run the online Dawid-Skene quality estimator over choice-task answers")
	flag.Float64Var(&cfg.Core.ConfidenceTarget, "confidence-target", 0, "posterior confidence that completes a choice task before redundancy (0 disables early completion)")

	flag.DurationVar(&cfg.API.RequestTimeout, "request-timeout", 30*time.Second, "per-request handler deadline (503 past it); 0 disables")
	flag.IntVar(&cfg.API.MaxInFlight, "max-inflight", 1024, "per-route concurrent request cap; excess is shed with 429; 0 disables")

	flag.StringVar(&cfg.Follow, "follow", "", "run as replication follower of the leader at this base URL (requires -wal and -snapshot); writes are rejected with 503 + X-Leader until promotion (POST /v1/repl/promote or SIGHUP)")
	flag.DurationVar(&cfg.MaxReplicaLag, "max-replica-lag", 10*time.Second, "follower readiness degrades (503 on /readyz) when replication staleness exceeds this; 0 disables the check")

	flag.IntVar(&cfg.Sessions, "sessions", 0, "live session plane: distinct game items players are matched over; 0 disables the /v1/sessions API")
	flag.DurationVar(&cfg.MatchTimeout, "match-timeout", 2*time.Second, "matchmaking wait before a lone player falls back to a replayed partner")
	flag.DurationVar(&cfg.RoundTimeout, "round-timeout", 60*time.Second, "live round deadline; sessions past it end with reason timeout")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fatal("invalid -log-level", "level", *logLevel, "err", err)
	}
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler = slog.NewTextHandler(os.Stderr, opts)
	if *logJSON {
		h = slog.NewJSONHandler(os.Stderr, opts)
	}
	cfg.API.Logger = slog.New(h).With("service", "hcservd")
	slog.SetDefault(cfg.API.Logger)

	n, err := node.Open(cfg)
	if err != nil {
		fatal(err.Error())
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for {
		select {
		case err := <-n.Err():
			fatal(err.Error())
		case s := <-sig:
			if s == syscall.SIGHUP {
				// SIGHUP promotes a follower (the out-of-band path when the
				// old leader is unreachable); a leader ignores it. A promotion
				// that failed arrives on Err.
				if err := n.Promote(); errors.Is(err, node.ErrNotFollower) {
					slog.Info("ignoring SIGHUP: not a follower")
				}
				continue
			}
			slog.Info("shutting down")
			if err := n.Close(); err != nil {
				fatal(err.Error())
			}
			return
		}
	}
}
