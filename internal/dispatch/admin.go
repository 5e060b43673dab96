package dispatch

import (
	"bytes"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"time"

	"humancomp/internal/core"
	"humancomp/internal/metrics"
	"humancomp/internal/session"
	"humancomp/internal/store"
	"humancomp/internal/trace"
)

// AdminOptions configures the admin/debug handler.
type AdminOptions struct {
	// WAL, when set, contributes write-ahead log growth and health
	// metrics (hc_wal_events_total, hc_wal_bytes_total,
	// hc_wal_append_failures_total, hc_wal_healthy).
	WAL *store.WAL
	// WALRecovery, when set, exports what boot-time recovery found:
	// hc_wal_recovered_events (applied from the surviving log) and
	// hc_wal_truncated_bytes (torn/corrupt tail cut off).
	WALRecovery *store.ReplayStats
	// Ready gates /readyz: the probe returns 200 while Ready returns nil
	// and 503 with the error as a JSON reason otherwise. Wire WAL health
	// and replication lag into it (hcservd does) so a dying write path or
	// a stale follower pulls the instance out of rotation. Nil means
	// always ready.
	Ready func() error
	// Repl, when set, contributes replication gauges: hc_repl_term on any
	// replicating node, hc_repl_follower_lag_seq and
	// hc_repl_follower_lag_seconds on followers.
	Repl func() ReplState
	// Sessions, when set, contributes live-session-plane metrics:
	// hc_sessions_open, match latency, replay-mode ratio and friends.
	Sessions *session.Plane
	// SessionBridge, when set, exports how many session agreements were
	// placed as (or dropped before becoming) task answers.
	SessionBridge *SessionBridge
	// Start, when set, exports hc_uptime_seconds relative to it.
	Start time.Time
	// Version is the build identifier on hc_build_info ("dev" when empty).
	Version string
}

// ReplState is a point-in-time view of a node's replication position,
// feeding the admin metrics and the readiness probe.
type ReplState struct {
	// Term is the node's current epoch (bumped at each promotion).
	Term int64
	// Follower reports whether the node is tailing a leader; the lag
	// fields are meaningful only then.
	Follower bool
	// LagSeq is the sequence delta behind the leader.
	LagSeq int64
	// LagSeconds is the wall-clock staleness of the replica.
	LagSeconds float64
}

// readyResponse is the JSON body of /readyz.
type readyResponse struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
}

// NewAdminHandler returns the admin/debug surface served on a separate
// listener from the public API:
//
//	GET /metrics        Prometheus text exposition (0.0.4), or
//	                    OpenMetrics 1.0 with exemplars when the Accept
//	                    header asks for application/openmetrics-text
//	GET /v1/debug/spans tail-sampled request span trees (JSON)
//	GET /healthz        liveness (always 200 while serving)
//	GET /readyz         readiness (503 until AdminOptions.Ready)
//	    /debug/pprof/*  runtime profiles
//
// The handler is deliberately unauthenticated — it must only be bound to
// a loopback or otherwise trusted address (hcservd -admin-addr). api may
// be nil when no HTTP API server is running; its per-route request
// metrics are then omitted.
func NewAdminHandler(sys *core.System, api *Server, opts AdminOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		serveProm(w, r, sys, api, opts)
	})
	mux.HandleFunc("GET /v1/debug/spans", func(w http.ResponseWriter, r *http.Request) {
		serveDebugSpans(w, r, sys)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if opts.Ready != nil {
			if err := opts.Ready(); err != nil {
				writeJSON(w, http.StatusServiceUnavailable,
					readyResponse{Ready: false, Reason: err.Error()})
				return
			}
		}
		writeJSON(w, http.StatusOK, readyResponse{Ready: true})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveProm assembles every metric family and writes the exposition.
// Content negotiation follows the scraper's Accept header: a request
// naming application/openmetrics-text gets the OpenMetrics 1.0 body
// (exemplars on histogram buckets, # EOF trailer); everything else gets
// the classic 0.0.4 text format.
func serveProm(w http.ResponseWriter, r *http.Request, sys *core.System, api *Server, opts AdminOptions) {
	fams := promFamilies(sys, api, opts)
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", metrics.OpenMetricsContentType)
		_ = metrics.WriteOpenMetrics(w, fams)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = metrics.WriteProm(w, fams)
}

// SpanDebugResponse is the body of GET /v1/debug/spans.
type SpanDebugResponse struct {
	Traces []trace.TraceView `json:"traces"`
}

// serveDebugSpans serves the tail-sampled span trees. Filters arrive as
// query parameters: trace (32-hex trace ID), op (exact root op match),
// min_ms (root duration floor), errors_only, limit (max trees, newest
// first). A system running without the span plane answers 404.
func serveDebugSpans(w http.ResponseWriter, r *http.Request, sys *core.System) {
	p := sys.Spans()
	if p == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "dispatch: span plane disabled"})
		return
	}
	q := r.URL.Query()
	var f trace.SpanFilter
	if raw := q.Get("trace"); raw != "" {
		id, ok := trace.ParseTraceID(raw)
		if !ok {
			badRequest(w, r, "dispatch: invalid trace id %q", raw)
			return
		}
		f.Trace = id
	}
	f.Op = q.Get("op")
	if raw := q.Get("min_ms"); raw != "" {
		ms, err := strconv.ParseFloat(raw, 64)
		ns := ms * float64(time.Millisecond)
		if err != nil || ms < 0 || math.IsNaN(ms) || ns >= math.MaxInt64 { // beyond a time.Duration
			badRequest(w, r, "dispatch: invalid min_ms %q", raw)
			return
		}
		f.MinDur = time.Duration(ns)
	}
	if raw := q.Get("errors_only"); raw != "" {
		v, err := strconv.ParseBool(raw)
		if err != nil {
			badRequest(w, r, "dispatch: invalid errors_only %q", raw)
			return
		}
		f.ErrorsOnly = v
	}
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 || n > 1000 {
			badRequest(w, r, "dispatch: invalid limit %q (1..1000)", raw)
			return
		}
		f.Limit = n
	}
	views := p.Snapshot(f)
	if views == nil {
		views = []trace.TraceView{}
	}
	writeJSON(w, http.StatusOK, SpanDebugResponse{Traces: views})
}

// promFamilies gathers the system's observable state into Prometheus
// families: lifecycle counters, queue/store occupancy, lock
// acquisitions, stage-latency summaries from the trace recorder, the
// session plane's counters and GWAP play metrics, WAL growth and
// per-route HTTP request stats.
func promFamilies(sys *core.System, api *Server, opts AdminOptions) []metrics.PromFamily {
	st := sys.Stats()
	fams := []metrics.PromFamily{
		buildInfoFamily(sys, opts),
		metrics.PromCounterFamily("hc_tasks_submitted_total",
			"Tasks accepted by SubmitTask/SubmitGold.", st.TasksSubmitted),
		metrics.PromCounterFamily("hc_answers_total",
			"Worker answers recorded.", st.AnswersTotal),
		metrics.PromCounterFamily("hc_gold_checked_total",
			"Gold (reputation probe) answers scored.", st.GoldChecked),
		metrics.PromGaugeFamily("hc_queue_open_tasks",
			"Tasks still collecting answers.", float64(st.Queue.Open)),
		metrics.PromGaugeFamily("hc_inflight_leases",
			"Outstanding leases.", float64(st.Queue.InFlight)),
		metrics.PromCounterFamily("hc_leases_expired_total",
			"Leases reclaimed after their deadline.", st.Queue.ExpiredLeases),
		metrics.PromCounterFamily("hc_queue_lease_pops_total",
			"Tasks popped from the queue heap by lease scans: one a grant, plus the worker's own skips.", st.Queue.LeasePops),
		metrics.PromGaugeFamily("hc_store_tasks",
			"Tasks held in the store, any status.", float64(sys.Store().Len())),
	}
	if !opts.Start.IsZero() {
		fams = append(fams, metrics.PromGaugeFamily("hc_uptime_seconds",
			"Seconds since the process started serving.", time.Since(opts.Start).Seconds()))
	}
	fams = append(fams, memoryFamilies()...)
	fams = append(fams, processFamilies()...)

	qLocks, sLocks := sys.LockCounts()
	fams = append(fams,
		metrics.PromCounterFamily("hc_queue_lock_acquisitions_total",
			"Queue mutex acquisitions on the dispatch write path.", qLocks),
		metrics.PromCounterFamily("hc_store_lock_acquisitions_total",
			"Store write-lock acquisitions.", sLocks),
	)

	if rec := sys.Trace(); rec != nil {
		inQueue, leaseToAnswer, toCompletion := rec.Latencies()
		fams = append(fams,
			metrics.PromGaugeFamily("hc_trace_events_retained",
				"Lifecycle trace events currently held in the ring.", float64(rec.Len())),
			metrics.PromGaugeFamily("hc_trace_ring_capacity",
				"Lifecycle trace ring capacity in events.", float64(rec.Capacity())),
			metrics.PromHistogramFamily("hc_task_time_in_queue_seconds",
				"Enqueue to first lease.", inQueue),
			metrics.PromHistogramFamily("hc_task_lease_to_answer_seconds",
				"Lease grant to that worker's answer.", leaseToAnswer),
			metrics.PromHistogramFamily("hc_task_answers_to_completion_seconds",
				"First answer to task completion.", toCompletion),
		)
	}

	if p := sys.Spans(); p != nil {
		started, retained, discarded := p.Stats()
		fams = append(fams,
			metrics.PromCounterFamily("hc_spans_started_total",
				"Request span trees opened.", int64(started)),
			metrics.PromCounterFamily("hc_spans_retained_total",
				"Span trees kept by the tail sampler (slow, errored, or 1-in-N).", int64(retained)),
			metrics.PromCounterFamily("hc_spans_discarded_total",
				"Span trees recycled without retention.", int64(discarded)),
			metrics.PromGaugeFamily("hc_spans_retained",
				"Span trees currently held in the debug ring.", float64(p.Retained())),
		)
	}

	if q := st.Quality; q.Enabled {
		fams = append(fams,
			metrics.PromCounterFamily("hc_quality_early_completed_total",
				"Choice tasks finished by posterior confidence before redundancy.", q.EarlyCompleted),
			metrics.PromCounterFamily("hc_redundancy_saved_total",
				"Answers not collected thanks to confidence-based early completion.", q.RedundancySaved),
			metrics.PromGaugeFamily("hc_quality_tracked_tasks",
				"Choice tasks the online estimator currently tracks.", float64(q.TrackedTasks)),
			metrics.PromGaugeFamily("hc_quality_tracked_workers",
				"Workers with a confusion matrix in the online estimator.", float64(q.TrackedWorkers)),
			metrics.PromBucketFamily("hc_quality_posterior_confidence",
				"Max-posterior confidence observed at each recorded choice answer.",
				sys.ConfidenceHistogram()),
		)
		// The divergence gauge runs a bounded batch EM over a sample of
		// recently tracked tasks — outside the estimator's lock, so a
		// scrape never stalls the answer path.
		if meanL1, n := sys.QualityDivergence(128); n > 0 {
			fams = append(fams,
				metrics.PromGaugeFamily("hc_quality_online_batch_divergence",
					"Mean L1 distance between online and batch Dawid-Skene posteriors over a bounded sample.", meanL1),
				metrics.PromGaugeFamily("hc_quality_divergence_sample_tasks",
					"Tasks compared by the last divergence computation.", float64(n)),
			)
		}
	}

	if opts.Sessions != nil {
		ss, gwap := opts.Sessions.Stats(), opts.Sessions.GWAP()
		fams = append(fams,
			metrics.PromGaugeFamily("hc_sessions_open",
				"Live-session rounds currently running.", float64(ss.Open)),
			metrics.PromGaugeFamily("hc_sessions_resident",
				"Sessions held in memory, lingering finished ones included.", float64(ss.Resident)),
			metrics.PromGaugeFamily("hc_sessions_waiting_players",
				"Players pooled in the matchmaker right now.", float64(ss.Waiting)),
			metrics.PromGaugeFamily("hc_sessions_oldest_wait_seconds",
				"Age of the longest-waiting pooled player.", float64(ss.OldestWaitMs)/1000),
			metrics.PromCounterFamily("hc_sessions_live_total",
				"Sessions started with two live players.", ss.Live),
			metrics.PromCounterFamily("hc_sessions_replay_total",
				"Sessions started against a replayed transcript.", ss.Replay),
			metrics.PromGaugeFamily("hc_sessions_replay_ratio",
				"Fraction of all sessions served in replay mode.", ss.ReplayRatio),
			metrics.PromCounterFamily("hc_sessions_agreements_total",
				"Rounds that ended in output agreement.", ss.Agreements),
			metrics.PromCounterFamily("hc_sessions_timeouts_total",
				"Rounds ended by the round clock.", ss.Timeouts),
			metrics.PromCounterFamily("hc_sessions_abandons_total",
				"Rounds ended by a player leaving.", ss.Abandons),
			metrics.PromCounterFamily("hc_sessions_no_partner_total",
				"Joins refused: no partner and no replay transcript.", ss.NoPartner),
			metrics.PromCounterFamily("hc_sessions_taboo_promotions_total",
				"Words promoted to taboo by session agreements.", ss.TabooPromotions),
			metrics.PromGaugeFamily("hc_sessions_replay_stored",
				"Transcripts held by the replay store.", float64(ss.ReplayStored)),
			metrics.PromHistogramFamily("hc_sessions_match_wait_seconds",
				"Time from join to session start (matchmaking latency).",
				opts.Sessions.MatchWaitHist()),
			metrics.PromGaugeFamily("hc_gwap_players",
				"Distinct players who joined a session.", float64(gwap.Players)),
			metrics.PromCounterFamily("hc_gwap_sessions_total",
				"Visits: joins, each from the join to the end of the round it led to.", gwap.Sessions),
			metrics.PromCounterFamily("hc_gwap_outputs_total",
				"Session agreements.", gwap.Outputs),
			metrics.PromGaugeFamily("hc_gwap_throughput_per_hour",
				"Agreements per human-hour of play.", gwap.ThroughputPerHour),
			metrics.PromGaugeFamily("hc_gwap_alp_minutes",
				"Average lifetime play per player, minutes.", gwap.ALPMinutes),
			metrics.PromGaugeFamily("hc_gwap_expected_contribution",
				"Expected agreements per player: throughput x ALP.", gwap.ExpectedContribution),
		)
	}
	if opts.SessionBridge != nil {
		placed, dropped := opts.SessionBridge.Stats()
		fams = append(fams,
			metrics.PromCounterFamily("hc_sessions_answers_placed_total",
				"Session answers recorded, one per agreeing live seat.", placed),
			metrics.PromCounterFamily("hc_sessions_answers_dropped_total",
				"Session answers the bridge could not record, one per agreeing live seat.", dropped),
		)
	}

	if opts.WAL != nil {
		healthy := 0.0
		if opts.WAL.Healthy() {
			healthy = 1.0
		}
		fams = append(fams,
			metrics.PromCounterFamily("hc_wal_events_total",
				"Events appended to the write-ahead log since open.", opts.WAL.Len()),
			metrics.PromCounterFamily("hc_wal_bytes_total",
				"Bytes appended to the write-ahead log since open.", opts.WAL.Size()),
			metrics.PromCounterFamily("hc_wal_append_failures_total",
				"WAL appends or fsyncs that returned an error.", opts.WAL.Failures()),
			metrics.PromGaugeFamily("hc_wal_healthy",
				"1 while the WAL write path works, 0 after a failure.", healthy),
			metrics.PromGaugeFamily("hc_wal_last_seq",
				"Sequence number of the newest acknowledged WAL record.", float64(opts.WAL.Len())),
		)
	}

	if opts.Repl != nil {
		rs := opts.Repl()
		fams = append(fams, metrics.PromGaugeFamily("hc_repl_term",
			"Replication epoch; bumped and persisted at each promotion.", float64(rs.Term)))
		if rs.Follower {
			fams = append(fams,
				metrics.PromGaugeFamily("hc_repl_follower_lag_seq",
					"Sequences the follower is behind its leader.", float64(rs.LagSeq)),
				metrics.PromGaugeFamily("hc_repl_follower_lag_seconds",
					"Wall-clock staleness of the follower's replica.", rs.LagSeconds),
			)
		}
	}

	if opts.WALRecovery != nil {
		fams = append(fams,
			metrics.PromCounterFamily("hc_wal_recovered_events",
				"Events replayed from the write-ahead log at boot.", int64(opts.WALRecovery.Applied)),
			metrics.PromCounterFamily("hc_wal_truncated_bytes",
				"Torn or corrupt WAL tail bytes cut off at boot recovery.", opts.WALRecovery.TruncatedBytes),
		)
	}

	if api != nil {
		fams = append(fams, metrics.PromGaugeFamily("hc_idempotency_cached_responses",
			"Completed responses retained for Idempotency-Key replay.", float64(api.idem.len())))
		fams = append(fams, routeFamilies(api.stats.snapshot())...)
	}
	return fams
}

// routeFamilies renders per-route HTTP stats as two families labelled
// with the route pattern — the string the request log and a span tree's
// root op carry — and, on the counter, the status class.
func routeFamilies(snap []*routeStats) []metrics.PromFamily {
	requests := metrics.PromFamily{Name: "hc_http_requests_total",
		Help: "Responses sent, by route and status class.", Kind: metrics.PromCounter}
	duration := metrics.PromFamily{Name: "hc_http_request_duration_seconds",
		Help: "Request latency, by route.", Kind: metrics.PromHistogram}
	for _, rs := range snap {
		label := metrics.PromLabel{Name: "route", Value: rs.route}
		for i, class := range codeClasses {
			requests.Samples = append(requests.Samples, metrics.PromSample{
				Labels: []metrics.PromLabel{label, {Name: "code_class", Value: class}},
				Value:  float64(rs.byClass[i].Value()),
			})
		}
		duration.Samples = append(duration.Samples,
			metrics.PromHistogramSamples(&rs.latency, label)...)
	}
	return []metrics.PromFamily{requests, duration}
}

// memoryFamilies are the process's own memory signals: the bytes its heap
// objects occupy and the objects and bytes it has allocated since it
// started, from runtime/metrics, and the peak of its resident set, VmHWM
// in /proc/self/status, which is left out where there is no such file.
func memoryFamilies() []metrics.PromFamily {
	sample := []rtmetrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	rtmetrics.Read(sample)
	fams := []metrics.PromFamily{
		metrics.PromGaugeFamily("go_memory_classes_heap_objects_bytes",
			"Memory occupied by live heap objects and dead ones not yet swept.", float64(sample[0].Value.Uint64())),
		metrics.PromCounterFamily("go_gc_heap_allocs_objects_total",
			"Heap objects allocated since the process started.", int64(sample[1].Value.Uint64())),
		metrics.PromCounterFamily("go_gc_heap_allocs_bytes_total",
			"Bytes of heap objects allocated since the process started.", int64(sample[2].Value.Uint64())),
	}
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return fams
	}
	_, rest, _ := strings.Cut(string(status), "\nVmHWM:")
	line, _, _ := strings.Cut(rest, "\n") // "\t   11076 kB"
	if kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(line), " kB"), 10, 64); err == nil {
		fams = append(fams, metrics.PromGaugeFamily("process_resident_memory_max_bytes",
			"Peak resident set size in bytes.", float64(kb<<10)))
	}
	return fams
}

// processFamilies are the process's CPU time, utime + stime from
// /proc/self/stat, and its read and write system calls, syscr and syscw
// from /proc/self/io, read at each scrape; a family whose file is missing
// or unreadable is left out.
func processFamilies() []metrics.PromFamily {
	var fams []metrics.PromFamily
	if stat, err := os.ReadFile("/proc/self/stat"); err == nil {
		// The fields after the command name, which is in parentheses and
		// may hold anything: the state is the first, utime the 12th and
		// stime the 13th, in ticks of USER_HZ, which Linux fixes at 100 a
		// second for every architecture Go runs on.
		f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
		if len(f) > 12 {
			utime, err1 := strconv.ParseUint(f[11], 10, 64)
			stime, err2 := strconv.ParseUint(f[12], 10, 64)
			if err1 == nil && err2 == nil {
				fams = append(fams, metrics.PromFamily{Name: "process_cpu_seconds_total",
					Help: "User and system CPU time the process has used, in seconds.", Kind: metrics.PromCounter,
					Samples: []metrics.PromSample{{Value: float64(utime+stime) / 100}}})
			}
		}
	}
	if counts, err := os.ReadFile("/proc/self/io"); err == nil {
		calls := metrics.PromFamily{Name: "process_io_syscalls_total",
			Help: "Read and write system calls the process has made, by op.", Kind: metrics.PromCounter}
		for _, op := range [...]struct{ key, name string }{{"\nsyscr:", "read"}, {"\nsyscw:", "write"}} {
			_, rest, _ := strings.Cut(string(counts), op.key)
			line, _, _ := strings.Cut(rest, "\n")
			if n, err := strconv.ParseUint(strings.TrimSpace(line), 10, 64); err == nil {
				calls.Samples = append(calls.Samples, metrics.PromSample{
					Labels: []metrics.PromLabel{{Name: "op", Value: op.name}}, Value: float64(n)})
			}
		}
		if len(calls.Samples) == 2 {
			fams = append(fams, calls)
		}
	}
	return fams
}

// buildInfoFamily is the constant-1 hc_build_info gauge whose labels
// carry the build and runtime shape of the serving process.
func buildInfoFamily(sys *core.System, opts AdminOptions) metrics.PromFamily {
	version := opts.Version
	if version == "" {
		version = "dev"
	}
	return metrics.PromFamily{
		Name: "hc_build_info",
		Help: "Build and runtime identity; value is always 1.",
		Kind: metrics.PromGauge,
		Samples: []metrics.PromSample{{
			Labels: []metrics.PromLabel{
				{Name: "version", Value: version},
				{Name: "goversion", Value: runtime.Version()},
				{Name: "gomaxprocs", Value: strconv.Itoa(runtime.GOMAXPROCS(0))},
			},
			Value: 1,
		}},
	}
}
