package server

import (
	"time"

	"parascope/internal/httpedge"
	"parascope/internal/metrics"
)

// This file is the daemon's observability surface: every pedd_ metric
// family, registered on a metrics.Registry (the HTTP edge's three by
// httpedge.NewMetrics). Armed or not, every record is a handful of
// atomic operations — cheap enough to leave on in the serving hot path.
//
// Conventions (documented in DESIGN.md "Observability"):
//
//   - every metric is prefixed pedd_ (the gateway's are pedgw_);
//   - durations are histograms in seconds with the shared
//     metrics.TimeBuckets schedule;
//   - label cardinality is bounded by construction: routes are mux
//     patterns (not raw URLs), status codes are collapsed to classes
//     ("2xx".."5xx"), and nothing is ever labeled by session ID.

// Metrics is the daemon's metric registry. One instance is shared by
// the Manager, its sessions, the analysis cache, and the HTTP layer;
// render it with WriteProm or serve it via Handler / httpedge.OpsHandler.
type Metrics struct {
	*metrics.Registry

	// HTTP layer: HTTPRequests, HTTPLatency, HTTPInflight.
	httpedge.Metrics

	// Session lifecycle.
	SessionsLive        *metrics.Gauge
	SessionsQuarantined *metrics.Gauge
	SessionsReadOnly    *metrics.Gauge
	SessionsOpened      *metrics.Counter
	SessionsClosed      *metrics.Counter
	SessionsEvicted     *metrics.Counter

	// Actor queues.
	QueueDepth   *metrics.Gauge
	QueueWait    *metrics.Histogram
	ActorService *metrics.Histogram

	// Analysis cache.
	CacheHits        *metrics.Counter
	CacheMisses      *metrics.Counter
	CacheEvictions   *metrics.Counter
	Materializations *metrics.Counter

	// Durability: journal I/O and crash recovery.
	JournalAppend         *metrics.Histogram
	JournalFsync          *metrics.Histogram
	JournalBytes          *metrics.Counter
	JournalSnapshots      *metrics.Counter
	RecoveriesTotal       *metrics.Counter
	RecoveriesTruncated   *metrics.Counter
	RecoveriesQuarantined *metrics.Counter

	// Cluster: session migration between pedd nodes.
	MigrationsOut      *metrics.Counter
	MigrationsOutBytes *metrics.Counter
	MigrationsFailed   *metrics.Counter
	SessionsImported   *metrics.Counter
	ImportsRejected    *metrics.Counter
	SessionsMigrating  *metrics.Gauge

	// Per-phase analysis timings (phase = parse, interproc, dataflow,
	// dependence, perf), fed through core's PhaseObserver hook.
	AnalysisPhase *metrics.HistogramVec // phase

	// Speculative planner: world lifecycle counters, the live-worlds
	// gauge, and search latency. Deliberately unlabeled — plan volume
	// is per-daemon, never per-session (session IDs are unbounded).
	PlannerWorldsForked    *metrics.Counter
	PlannerWorldsScored    *metrics.Counter
	PlannerWorldsDiscarded *metrics.Counter
	PlannerWorldsAccepted  *metrics.Counter
	PlannerWorldsLive      *metrics.Gauge
	PlannerSearch          *metrics.Histogram

	// Governed execution: per-backend run counts and latencies, typed
	// failure counters, governor kills by bounded reason, and the
	// build pipeline behind the compile backend. Fed through
	// execguard.Sink so execguard/codegen/core never import server.
	ExecRuns      *metrics.CounterVec   // backend (interp, compile)
	ExecFailures  *metrics.CounterVec   // backend
	ExecLatency   *metrics.HistogramVec // backend
	ExecTimeouts  *metrics.CounterVec   // backend
	ExecKills     *metrics.CounterVec   // reason (deadline, output, rss, ctx)
	ExecFallbacks *metrics.Counter
	ExecRejected  *metrics.Counter
	ExecInflight  *metrics.Gauge

	BuildsTotal         *metrics.Counter
	BuildFailures       *metrics.Counter
	BuildLatency        *metrics.Histogram
	BuildCacheHits      *metrics.Counter
	BuildDedups         *metrics.Counter
	BuildVerifyFailures *metrics.Counter
	BuildJanitorEvicted *metrics.Counter
}

// NewMetrics builds a registry with every pedd metric registered.
func NewMetrics() *Metrics {
	m := &Metrics{Registry: metrics.NewRegistry()}
	m.Metrics = httpedge.NewMetrics(m.Registry, "pedd")
	timeBuckets := metrics.TimeBuckets()
	m.SessionsLive = m.Gauge("pedd_sessions_live",
		"Sessions currently registered (including quarantined ones).")
	m.SessionsQuarantined = m.Gauge("pedd_sessions_quarantined",
		"Live sessions quarantined after a panic.")
	m.SessionsReadOnly = m.Gauge("pedd_sessions_readonly",
		"Live sessions degraded to read-only after a journal I/O failure.")
	m.SessionsOpened = m.Counter("pedd_sessions_opened_total",
		"Sessions successfully opened since start.")
	m.SessionsClosed = m.Counter("pedd_sessions_closed_total",
		"Sessions closed by request or shutdown since start.")
	m.SessionsEvicted = m.Counter("pedd_sessions_evicted_total",
		"Sessions evicted by the idle-TTL janitor since start.")
	m.QueueDepth = m.Gauge("pedd_session_queue_depth",
		"Commands queued on session actors, summed over sessions.")
	m.QueueWait = m.Histogram("pedd_session_queue_wait_seconds",
		"Time commands spent queued before their session actor ran them.", timeBuckets)
	m.ActorService = m.Histogram("pedd_actor_service_seconds",
		"Time session actors spent executing commands.", timeBuckets)
	m.CacheHits = m.Counter("pedd_cache_hits_total",
		"Analysis cache hits.")
	m.CacheMisses = m.Counter("pedd_cache_misses_total",
		"Analysis cache misses.")
	m.CacheEvictions = m.Counter("pedd_cache_evictions_total",
		"Artifacts evicted from the analysis cache by LRU pressure.")
	m.Materializations = m.Counter("pedd_cache_materializations_total",
		"Artifact-backed sessions materialized into live sessions.")
	m.JournalAppend = m.Histogram("pedd_journal_append_seconds",
		"Time to append one record to a session journal.", timeBuckets)
	m.JournalFsync = m.Histogram("pedd_journal_fsync_seconds",
		"Time to fsync a session journal.", timeBuckets)
	m.JournalBytes = m.Counter("pedd_journal_bytes_total",
		"Bytes appended to session journals.")
	m.JournalSnapshots = m.Counter("pedd_journal_snapshots_total",
		"Snapshot compactions that rewrote a session journal.")
	m.RecoveriesTotal = m.Counter("pedd_recoveries_total",
		"Sessions rebuilt from their journals at startup.")
	m.RecoveriesTruncated = m.Counter("pedd_recoveries_truncated_total",
		"Recoveries that truncated a torn journal tail (expected after kill -9).")
	m.RecoveriesQuarantined = m.Counter("pedd_recoveries_quarantined_total",
		"Recoveries abandoned on mid-stream journal corruption; the session is quarantined.")
	m.MigrationsOut = m.Counter("pedd_migrations_out_total",
		"Sessions migrated away to another node (tombstone left behind).")
	m.MigrationsOutBytes = m.Counter("pedd_migrations_out_bytes_total",
		"Journal bytes shipped to other nodes by outbound migrations.")
	m.MigrationsFailed = m.Counter("pedd_migrations_failed_total",
		"Outbound migrations that failed; the source session stayed authoritative.")
	m.SessionsImported = m.Counter("pedd_sessions_imported_total",
		"Sessions adopted from another node's journal stream.")
	m.ImportsRejected = m.Counter("pedd_imports_rejected_total",
		"Import streams rejected (torn, corrupt, conflicting, or unreplayable).")
	m.SessionsMigrating = m.Gauge("pedd_sessions_migrating",
		"Sessions frozen mid-migration (mutations rejected until it resolves).")
	m.AnalysisPhase = m.HistogramVec("pedd_analysis_phase_seconds",
		"Wall time of analysis phases (parse, interproc, dataflow, dependence, perf).",
		timeBuckets, "phase")
	m.PlannerWorldsForked = m.Counter("pedd_planner_worlds_forked_total",
		"Speculative worlds forked by plan searches.")
	m.PlannerWorldsScored = m.Counter("pedd_planner_worlds_scored_total",
		"Speculative worlds that survived evaluation and were scored.")
	m.PlannerWorldsDiscarded = m.Counter("pedd_planner_worlds_discarded_total",
		"Speculative worlds discarded (rejected step, panic, duplicate, or failed validation).")
	m.PlannerWorldsAccepted = m.Counter("pedd_planner_worlds_accepted_total",
		"Accepted plan worlds: plans replayed through the journaled mutation path.")
	m.PlannerWorldsLive = m.Gauge("pedd_planner_worlds_live",
		"Speculative worlds currently being evaluated.")
	m.PlannerSearch = m.Histogram("pedd_planner_search_seconds",
		"Wall time of speculative plan searches.", timeBuckets)
	m.ExecRuns = m.CounterVec("pedd_exec_runs_total",
		"Program executions by the backend that actually ran.", "backend")
	m.ExecFailures = m.CounterVec("pedd_exec_failures_total",
		"Program executions that failed (program or toolchain error, not a governor kill).", "backend")
	m.ExecLatency = m.HistogramVec("pedd_exec_run_seconds",
		"Wall time of program executions by backend.", timeBuckets, "backend")
	m.ExecTimeouts = m.CounterVec("pedd_exec_timeouts_total",
		"Program executions stopped by a governor limit (deadline, output cap, RSS).", "backend")
	m.ExecKills = m.CounterVec("pedd_exec_kills_total",
		"Governor kills by reason (deadline, output, rss, ctx).", "reason")
	m.ExecFallbacks = m.Counter("pedd_exec_fallbacks_total",
		"Compile runs degraded to the interpreter (decline or build failure, fallback requested).")
	m.ExecRejected = m.Counter("pedd_exec_rejected_total",
		"Runs rejected at admission because every exec slot was busy (HTTP 429).")
	m.ExecInflight = m.Gauge("pedd_exec_inflight",
		"Program executions currently running under the governor.")
	m.BuildsTotal = m.Counter("pedd_build_total",
		"Cold go builds of generated programs.")
	m.BuildFailures = m.Counter("pedd_build_failures_total",
		"Cold go builds that failed (including build timeouts).")
	m.BuildLatency = m.Histogram("pedd_build_seconds",
		"Wall time of cold go builds.", timeBuckets)
	m.BuildCacheHits = m.Counter("pedd_build_cache_hits_total",
		"Compile-cache reuses whose manifest checksum verified.")
	m.BuildDedups = m.Counter("pedd_build_dedup_total",
		"Concurrent build requests that piggybacked on another in-flight build.")
	m.BuildVerifyFailures = m.Counter("pedd_build_verify_failures_total",
		"Cache entries that failed checksum verification and were quarantined.")
	m.BuildJanitorEvicted = m.Counter("pedd_build_janitor_evictions_total",
		"Compile-cache entries evicted by the janitor's LRU bound.")
	return m
}

// ExecEvent, ExecTiming, and ExecInFlight implement execguard.Sink,
// translating the guard's bounded event names into metric families.
// Unknown labels collapse to "other" so cardinality stays bounded even
// if a caller misbehaves.
func (m *Metrics) ExecEvent(name, label string) {
	switch name {
	case "exec_run":
		m.ExecRuns.With(backendLabel(label)).Inc()
	case "exec_fail":
		m.ExecFailures.With(backendLabel(label)).Inc()
	case "exec_timeout":
		m.ExecTimeouts.With(backendLabel(label)).Inc()
	case "exec_kill":
		m.ExecKills.With(killLabel(label)).Inc()
	case "exec_fallback":
		m.ExecFallbacks.Inc()
	case "exec_rejected":
		m.ExecRejected.Inc()
	case "build":
		m.BuildsTotal.Inc()
	case "build_fail":
		m.BuildFailures.Inc()
	case "build_cache_hit":
		m.BuildCacheHits.Inc()
	case "build_dedup":
		m.BuildDedups.Inc()
	case "build_verify_fail":
		m.BuildVerifyFailures.Inc()
	case "build_janitor_evict":
		m.BuildJanitorEvicted.Inc()
	}
}

func (m *Metrics) ExecTiming(name, label string, d time.Duration) {
	switch name {
	case "exec_run":
		m.ExecLatency.With(backendLabel(label)).Observe(d.Seconds())
	case "build":
		m.BuildLatency.Observe(d.Seconds())
	}
}

func (m *Metrics) ExecInFlight(delta int) {
	if delta >= 0 {
		for ; delta > 0; delta-- {
			m.ExecInflight.Inc()
		}
		return
	}
	for ; delta < 0; delta++ {
		m.ExecInflight.Dec()
	}
}

func backendLabel(s string) string {
	if s == "interp" || s == "compile" {
		return s
	}
	return "other"
}

func killLabel(s string) string {
	switch s {
	case "deadline", "output", "rss", "ctx":
		return s
	}
	return "other"
}

// ObservePhase implements core.PhaseObserver over the phase-timing
// histogram family.
func (m *Metrics) ObservePhase(phase string, d time.Duration) {
	m.AnalysisPhase.With(phase).Observe(d.Seconds())
}
