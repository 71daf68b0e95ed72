package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"parascope/internal/server"
)

// counters is a reading of the daemon's and gateway's registries; the
// difference of two readings is what the work between them cost.
type counters struct {
	queueWait, actorService, fsync, proxy, analysis float64 // seconds
	journalBytes, hits, misses, materialized, rejct float64
}

func readCounters(e *env) counters {
	m := e.metrics
	c := counters{
		queueWait:    m.QueueWait.Sum(),
		actorService: m.ActorService.Sum(),
		fsync:        m.JournalFsync.Sum(),
		journalBytes: float64(m.JournalBytes.Value()),
		hits:         float64(m.CacheHits.Value()),
		misses:       float64(m.CacheMisses.Value()),
		materialized: float64(m.Materializations.Value()),
		rejct:        float64(m.ExecRejected.Value()),
	}
	for _, phase := range []string{"parse", "interproc", "dataflow", "dependence", "perf", "patch"} {
		c.analysis += m.AnalysisPhase.With(phase).Sum()
	}
	if e.gwm != nil {
		c.proxy = e.gwm.ProxyLatency.With(e.direct).Sum()
	}
	return c
}

// tracePass is the traced pass that yields the per-layer metrics. It
// drives the same sessions as the untraced pass, in three stretches:
//
//  1. a fixed pass of one cycle of sessions on one client, bracketed
//     by registry readings — the same work whatever the host's speed,
//     so its counts repeat exactly and its time sums compare;
//  2. a window (three quarters of the time) whose slices are by turns
//     untraced and traced: the traced ones' spans give each layer's
//     self time, the untraced ones are the baseline for the tracing
//     overhead;
//  3. for browse_reads, a one-client and then a two-client window (an
//     eighth of the time each): sessions/s at two clients over one.
//
// Then the layer probes run on the workload's programs.
func tracePass(w *workload, seed int64, dur time.Duration) (result, error) {
	tr := newTracer()
	e, err := startEnv(w, seed, tr)
	if err != nil {
		return result{}, err
	}
	defer e.close()
	d := newDriver(e, w)
	vals := map[string]float64{}
	pc, err := newPacer()
	if err != nil {
		return result{}, err
	}
	defer pc.close()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := readCounters(e)
	pass := d.pass()
	c1 := readCounters(e)
	runtime.ReadMemStats(&m1)
	vals["server.queue_wait_ms_sum"] = 1e3 * (c1.queueWait - c0.queueWait)
	vals["server.actor_service_ms_sum"] = 1e3 * (c1.actorService - c0.actorService)
	vals["server.analysis_ms_sum"] = 1e3 * (c1.analysis - c0.analysis)
	vals["server.journal_fsync_ms_sum"] = 1e3 * (c1.fsync - c0.fsync)
	vals["server.journal_bytes"] = c1.journalBytes - c0.journalBytes
	vals["server.cache_hits"] = c1.hits - c0.hits
	vals["server.cache_misses"] = c1.misses - c0.misses
	if opens := vals["server.cache_hits"] + vals["server.cache_misses"]; opens > 0 {
		vals["server.cache_hit_share"] = vals["server.cache_hits"] / opens
	}
	vals["server.materializations"] = c1.materialized - c0.materialized
	vals["execguard.rejected"] = c1.rejct - c0.rejct
	vals["cluster.proxy_ms_sum"] = 1e3 * (c1.proxy - c0.proxy)
	vals["runtime.alloc_mb_per_session"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(w.cycle)
	vals["runtime.gc_pause_ms_sum"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	// Traced and untraced slices alternate, so whatever the host does to
	// one it does to the other. The first is traced: a window too short
	// for two slices still records its spans.
	var base, traced window
	base.rec, traced.rec = newRecorder(), newRecorder()
	both := d.run(1, 3*dur/4, func(i int) {
		tr.enable(i%2 == 0)
		pc.breathe()
	})
	if vals["bench.pace_ms"], err = pc.take(); err != nil {
		return result{}, err
	}
	for i, sl := range both.slices {
		half := &traced
		if i%2 == 1 {
			half = &base
		}
		half.slices = append(half.slices, sl)
		half.rec.merge(sl.rec)
	}
	tr.enable(false)
	if p50 := base.latencyP50(""); p50 > 0 {
		vals["bench.trace_overhead_pct"] = 100 * (traced.latencyP50("") - p50) / p50
	}
	rec := newRecorder()
	rec.tally(e.primed)
	rec.merge(pass.rec)
	rec.merge(base.rec)
	rec.merge(traced.rec)
	if w == browseReads {
		one, two := d.run(1, dur/8, nil), d.run(2, dur/8, nil)
		rec.merge(one.rec)
		rec.merge(two.rec)
		if one.sessionsPerS() > 0 {
			vals["server.scale_c2_over_c1"] = two.sessionsPerS() / one.sessionsPerS()
		}
	}

	lt := tr.link()
	if err := tr.write(spanFile(w.name)); err != nil {
		return result{}, err
	}
	vals["bench.client_self_ms"] = median(lt.clientSelf)
	vals["cluster.gateway_hop_us"] = median(lt.gatewaySelf)
	if traced.rec.sessions > 0 {
		vals["server.handler_ms_sum"] = lt.handlerMs / float64(traced.rec.sessions)
	}
	if w.gateway {
		if err := crossCheckHop(e, vals["cluster.gateway_hop_us"]); err != nil {
			return result{}, err
		}
	}

	// Latencies by action kind pool all stretches: tracing adds
	// microseconds to actions that take milliseconds.
	vals["user.action_p99_ms"] = quantile(rec.all(), 0.99)
	vals["user.edit_p50_ms"] = quantile(rec.samples[kEdit], 0.50)
	vals["user.edit_p99_ms"] = quantile(rec.samples[kEdit], 0.99)
	vals["user.transform_p50_ms"] = median(rec.samples[kTransform])
	vals["user.plan_p50_ms"] = median(rec.samples[kPlan])
	vals["user.run_cold_p50_ms"] = median(rec.samples[kRunCold])
	vals["user.run_warm_p50_ms"] = median(rec.samples[kRunWarm])
	vals["user.run_interp_p50_ms"] = median(rec.samples[kRunInterp])
	vals["bench.failed_share"] = float64(rec.failed) / float64(max(rec.attempted, 1))

	if err := probeLayers(e, w, vals); err != nil {
		return result{}, fmt.Errorf("layer probes: %w", err)
	}
	return result{attempted: rec.attempted, failed: rec.failed, errs: rec.errs, metrics: vals, kinds: kindStats(rec), paceMs: vals["bench.pace_ms"]}, nil
}

// crossCheckHop measures the gateway hop a second way — a session
// status fetched through the gateway minus the same fetched directly —
// and prints both next to the span-derived number.
func crossCheckHop(e *env, spanUs float64) error {
	ctx := context.Background()
	via := &server.Client{Base: e.base}
	direct := &server.Client{Base: e.direct}
	p := e.suite[0]
	open, err := via.Open(ctx, server.OpenRequest{Path: p.path, Source: p.source})
	if err != nil {
		return err
	}
	status := func(c *server.Client) float64 {
		return 1e3 * timed(200, func() { _, err = c.Status(ctx, open.ID) })
	}
	viaUs, directUs := status(via), status(direct)
	if cerr := via.CloseSession(ctx, open.ID); err == nil {
		err = cerr
	}
	fmt.Fprintf(os.Stderr, "gateway hop: %.0f us by span self time, %.0f us by status via gateway (%.0f) minus direct (%.0f)\n",
		spanUs, viaUs-directUs, viaUs, directUs)
	return err
}

// spanFile is where the traced pass of a workload leaves its spans.
func spanFile(name string) string { return filepath.Join("out", "trace-"+name+".json") }
