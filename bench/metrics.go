package main

import (
	"math"
	"sort"
)

// metricDef names one reported number. BENCHMARK.json lists the same
// names, units and bounds; TestManifestMatchesCode keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them, so only metrics every workload produces are here;
// latencies of action kinds only some workloads perform (edit, plan,
// run…) are the user.* per-layer metrics. Every bound is the largest
// the manifest allows: on the shared two-core reference host two sets
// of ten runs of the same tree spread up to 24% and their medians
// differ by up to 12% (README.md, "Steadiness"), and a tighter bound
// would reject the tree against itself.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sessions_per_s", "1/s", "higher", 0.25},
	{"action_p50_ms", "ms", "lower", 0.25},
	{"open_p50_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer comes from the traced pass only. A metric a workload's
// layers never produce reads 0 there (the gateway hop off t2_sessions,
// planner numbers off plan_run, …).
var perLayer = []metricDef{
	// User-visible latencies, every stretch of the pass pooled.
	{Name: "user.action_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "user.edit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "user.edit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "user.transform_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "user.plan_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "user.run_cold_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "user.run_warm_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "user.run_interp_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "fortran.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "fortran.parse_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "fortran.print_ms", Unit: "ms", Better: "lower"},

	{Name: "dataflow.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "dep.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "dep.deps_found", Unit: "count", Better: "lower"},
	{Name: "interproc.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "interproc.update_ms", Unit: "ms", Better: "lower"},
	{Name: "perf.estimate_ms", Unit: "ms", Better: "lower"},

	{Name: "core.open_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase_parse_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase_interproc_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase_dataflow_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase_dependence_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase_perf_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase_patch_ms", Unit: "ms", Better: "lower"},
	{Name: "core.edit_patch_ms", Unit: "ms", Better: "lower"},
	{Name: "core.edit_unit_ms", Unit: "ms", Better: "lower"},
	{Name: "core.edit_program_ms", Unit: "ms", Better: "lower"},
	{Name: "core.edit_patch_share", Unit: "ratio", Better: "higher"},
	{Name: "core.undo_ms", Unit: "ms", Better: "lower"},

	{Name: "xform.check_ms", Unit: "ms", Better: "lower"},
	{Name: "xform.apply_ms", Unit: "ms", Better: "lower"},

	{Name: "planner.search_ms", Unit: "ms", Better: "lower"},
	{Name: "planner.worlds_forked", Unit: "count", Better: "lower"},
	{Name: "planner.worlds_scored", Unit: "count", Better: "higher"},
	{Name: "planner.worlds_discarded", Unit: "count", Better: "lower"},
	{Name: "planner.plans_per_world", Unit: "ratio", Better: "higher"},
	{Name: "planner.fork_proxy_ms", Unit: "ms", Better: "lower"},

	{Name: "interp.run_ms", Unit: "ms", Better: "lower"},
	{Name: "interp.stmts_per_s", Unit: "1/s", Better: "higher"},

	{Name: "codegen.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "codegen.generated_bytes", Unit: "B", Better: "lower"},
	{Name: "codegen.build_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "codegen.build_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "codegen.run_ms", Unit: "ms", Better: "lower"},

	{Name: "execguard.spawn_ms", Unit: "ms", Better: "lower"},
	{Name: "execguard.rejected", Unit: "count", Better: "lower"},

	{Name: "server.http_edge_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_ms_sum", Unit: "ms", Better: "lower"},
	{Name: "server.open_warm_us", Unit: "us", Better: "lower"},
	{Name: "server.open_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "server.actor_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "server.queue_wait_ms_sum", Unit: "ms", Better: "lower"},
	{Name: "server.actor_service_ms_sum", Unit: "ms", Better: "lower"},
	{Name: "server.analysis_ms_sum", Unit: "ms", Better: "lower"},
	{Name: "server.journal_append_us_always", Unit: "us", Better: "lower"},
	{Name: "server.journal_append_us_interval", Unit: "us", Better: "lower"},
	{Name: "server.journal_append_us_never", Unit: "us", Better: "lower"},
	{Name: "server.journal_fsync_ms_sum", Unit: "ms", Better: "lower"},
	{Name: "server.journal_bytes", Unit: "B", Better: "lower"},
	{Name: "server.cache_hits", Unit: "count", Better: "higher"},
	{Name: "server.cache_misses", Unit: "count", Better: "lower"},
	{Name: "server.cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "server.materializations", Unit: "count", Better: "lower"},
	{Name: "server.scale_c2_over_c1", Unit: "ratio", Better: "higher"},

	{Name: "cluster.gateway_hop_us", Unit: "us", Better: "lower"},
	{Name: "cluster.proxy_ms_sum", Unit: "ms", Better: "lower"},

	{Name: "view.window_ms", Unit: "ms", Better: "lower"},

	{Name: "bench.client_self_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.pace_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.failed_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.alloc_mb_per_session", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_pause_ms_sum", Unit: "ms", Better: "lower"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill renders vals under defs: every def appears exactly once, and a
// def nothing measured reads 0.
func fill(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for no samples. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
