package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"parascope/bench/gen"
	"parascope/internal/codegen"
	"parascope/internal/core"
	"parascope/internal/dataflow"
	"parascope/internal/dep"
	"parascope/internal/execguard"
	"parascope/internal/expr"
	"parascope/internal/fortran"
	"parascope/internal/interp"
	"parascope/internal/interproc"
	"parascope/internal/perf"
	"parascope/internal/planner"
	"parascope/internal/repl"
	"parascope/internal/server"
	"parascope/internal/view"
	"parascope/internal/workloads"
	"parascope/internal/xform"
)

// Layer probes: direct, timed calls into each layer's public API on the
// workload's own programs, from outside the layer. A probe runs only
// for workloads whose sessions reach that layer; elsewhere its metrics
// read 0. Times are totals over the workload's probe programs unless
// the metric says otherwise, each the median of probeReps repeats.

const probeReps = 5

// probeProg is one program of a workload's fixed pass.
type probeProg struct {
	path   string
	source string
	input  []float64
}

// probePrograms lists the distinct programs the workload's fixed pass
// opens, unsalted.
func (e *env) probePrograms(w *workload) []probeProg {
	var ps []probeProg
	switch w {
	case bigEdit:
		ps = append(ps, probeProg{path: "big.f", source: e.big.prog.Source})
	case planRun:
		for _, m := range e.mid {
			ps = append(ps, probeProg{path: "mid.f", source: gen.Generate(m.seed, gen.Mid()).Source})
		}
		p := e.suite[0]
		ps = append(ps, probeProg{p.path, p.source, p.input})
	default:
		for _, p := range e.suite {
			ps = append(ps, probeProg{p.path, p.source, p.input})
		}
	}
	return ps
}

// timed returns the median wall time of reps calls of fn, in ms.
func timed(reps int, fn func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		start := time.Now()
		fn()
		xs[i] = ms(time.Since(start))
	}
	return median(xs)
}

// phaseSums is a core.PhaseObserver that adds up time per phase.
type phaseSums struct {
	mu sync.Mutex
	ms map[string]float64
}

func (p *phaseSums) ObservePhase(phase string, d time.Duration) {
	p.mu.Lock()
	p.ms[phase] += ms(d)
	p.mu.Unlock()
}

// worldCounts is a planner.Observer that counts world events.
type worldCounts struct {
	mu                        sync.Mutex
	forked, scored, discarded int
}

func (c *worldCounts) WorldForked()    { c.mu.Lock(); c.forked++; c.mu.Unlock() }
func (c *worldCounts) WorldScored()    { c.mu.Lock(); c.scored++; c.mu.Unlock() }
func (c *worldCounts) WorldDiscarded() { c.mu.Lock(); c.discarded++; c.mu.Unlock() }
func (c *worldCounts) WorldsLive(int)  {}

// probeLayers runs every probe that applies to w and stores its
// metrics in vals.
func probeLayers(e *env, w *workload, vals map[string]float64) error {
	progs := e.probePrograms(w)
	if err := probeAnalyses(progs, vals); err != nil {
		return err
	}
	if err := probeServer(e, progs[0], vals); err != nil {
		return err
	}
	edits := w == t2Sessions || w == bigEdit
	transforms := w != browseReads
	runs := w != browseReads
	compiled := w == t2Sessions || w == planRun
	if edits {
		if err := probeEdits(e, w, vals); err != nil {
			return err
		}
	}
	if transforms {
		if err := probeTransforms(progs, vals); err != nil {
			return err
		}
	}
	if w == planRun {
		if err := probePlanner(progs, vals); err != nil {
			return err
		}
	}
	if runs {
		if err := probeInterp(progs, vals); err != nil {
			return err
		}
	}
	if compiled {
		if err := probeCodegen(e, progs, vals); err != nil {
			return err
		}
	}
	return nil
}

// probeAnalyses times the front end and each analysis the way core
// calls them on a cold open, and core.OpenObserved itself with its
// per-phase split.
func probeAnalyses(progs []probeProg, vals map[string]float64) error {
	files := make([]*fortran.File, len(progs))
	var bytes int
	for i, p := range progs {
		f, err := fortran.Parse(p.path, p.source)
		if err != nil {
			return err
		}
		files[i] = f
		bytes += len(p.source)
	}
	parseMs := timed(probeReps, func() {
		for _, p := range progs {
			_, _ = fortran.Parse(p.path, p.source) // parsed without error just above
		}
	})
	vals["fortran.parse_ms"] = parseMs
	vals["fortran.parse_mb_per_s"] = float64(bytes) / 1e6 / (parseMs / 1e3)
	vals["fortran.print_ms"] = timed(probeReps, func() {
		for _, f := range files {
			_ = fortran.Print(f)
		}
	})

	progsIP := make([]*interproc.Program, len(files))
	vals["interproc.analyze_ms"] = timed(probeReps, func() {
		for i, f := range files {
			f.RenumberStmts()
			progsIP[i] = interproc.AnalyzeProgram(f)
		}
	})
	vals["interproc.update_ms"] = timed(probeReps, func() {
		for i, f := range files {
			_ = interproc.UpdateProgram(progsIP[i], map[*fortran.Unit]bool{f.Main(): true})
		}
	})

	// Per unit, with the interprocedural facts core hands each analysis.
	type unitIn struct {
		u    *fortran.Unit
		eff  dataflow.SideEffects
		summ dep.Summaries
		env  *expr.Env
		est  *perf.Estimator
	}
	var units []unitIn
	for i, f := range files {
		est := perf.New(f, perf.DefaultParams())
		for _, u := range f.Units {
			in := unitIn{u: u, eff: &interproc.Effects{Prog: progsIP[i]},
				summ: &interproc.SectionProvider{Prog: progsIP[i]}, est: est}
			if ce := progsIP[i].ConstEnv(u); ce != nil {
				in.env = expr.NewEnv()
				for _, sym := range ce.Symbols() {
					in.env.SetRange(sym, ce.RangeOf(sym))
				}
			}
			units = append(units, in)
		}
	}
	dfs := make([]*dataflow.Analysis, len(units))
	vals["dataflow.analyze_ms"] = timed(probeReps, func() {
		for i, in := range units {
			dfs[i] = dataflow.Analyze(in.u, in.eff)
		}
	})
	var found int
	vals["dep.analyze_ms"] = timed(probeReps, func() {
		found = 0
		for i, in := range units {
			found += len(dep.Analyze(dfs[i], in.env, in.summ, dep.DefaultOptions()).Deps)
		}
	})
	vals["dep.deps_found"] = float64(found)
	vals["perf.estimate_ms"] = timed(probeReps, func() {
		for i, in := range units {
			_ = in.est.EstimateUnit(dfs[i])
		}
	})

	var phases []map[string]float64
	var openErr error
	vals["core.open_ms"] = timed(probeReps, func() {
		obs := &phaseSums{ms: map[string]float64{}}
		for _, p := range progs {
			if _, err := core.OpenObserved(p.path, p.source, 0, obs); err != nil {
				openErr = err
			}
		}
		phases = append(phases, obs.ms)
	})
	if openErr != nil {
		return openErr
	}
	for _, ph := range []string{"parse", "interproc", "dataflow", "dependence", "perf"} {
		xs := make([]float64, len(phases))
		for i, m := range phases {
			xs[i] = m[ph]
		}
		vals["core.phase_"+ph+"_ms"] = median(xs)
	}

	var panes []*core.Session
	for _, p := range progs {
		s, err := core.Open(p.path, p.source)
		if err != nil {
			return err
		}
		if err := s.SelectLoop(1); err != nil {
			return err
		}
		panes = append(panes, s)
	}
	vals["view.window_ms"] = timed(probeReps, func() {
		for _, s := range panes {
			_ = view.Window(s, nil, core.DepFilter{})
		}
	})
	return nil
}

// probeEdits replays the workload's own edits on a bare core.Session:
// big_edit's edit stream, or each suite program's re-typed
// statement and undo after its t2 steps. Means are per edit, by the
// reanalysis rung core reports.
func probeEdits(e *env, w *workload, vals map[string]float64) error {
	byMode := map[string][]float64{}
	var undo []float64
	obs := &phaseSums{ms: map[string]float64{}}
	edit := func(s *core.Session, id int, text string) error {
		start := time.Now()
		if err := s.EditStmt(id, text); err != nil {
			return err
		}
		byMode[s.LastReanalysis.Mode] = append(byMode[s.LastReanalysis.Mode], ms(time.Since(start)))
		return nil
	}
	undoIt := func(s *core.Session) error {
		start := time.Now()
		err := s.Undo()
		undo = append(undo, ms(time.Since(start)))
		return err
	}
	if w == bigEdit {
		s, err := core.OpenObserved("big.f", e.big.prog.Source, 0, obs)
		if err != nil {
			return err
		}
		for _, op := range e.big.ops {
			if err := s.SelectUnit(op.site.unit); err != nil {
				return err
			}
			if err := edit(s, op.site.id, op.text); err != nil {
				return err
			}
			if op.undo {
				if err := undoIt(s); err != nil {
					return err
				}
			}
		}
	} else {
		for _, p := range e.suite {
			s, err := core.OpenObserved(p.path, p.source, 0, obs)
			if err != nil {
				return err
			}
			if err := replayT2(repl.New(s, io.Discard), p.name); err != nil {
				return err
			}
			if err := edit(s, p.editID, p.editText); err != nil {
				return err
			}
			if err := undoIt(s); err != nil {
				return err
			}
		}
	}
	edits := 0
	for _, xs := range byMode {
		edits += len(xs)
	}
	vals["core.edit_patch_ms"] = mean(byMode["patch"])
	vals["core.edit_unit_ms"] = mean(byMode["unit"])
	vals["core.edit_program_ms"] = mean(byMode["program"])
	vals["core.edit_patch_share"] = float64(len(byMode["patch"])) / float64(edits)
	vals["core.undo_ms"] = mean(undo)
	vals["core.phase_patch_ms"] = obs.ms["patch"]
	return nil
}

// probeTransforms times power steering on each program's main unit:
// the mean parallelize check over its loops, and the mean apply over
// the loops AutoParallelize then parallelizes.
func probeTransforms(progs []probeProg, vals map[string]float64) error {
	var checks, applies []float64
	for _, p := range progs {
		s, err := core.Open(p.path, p.source)
		if err != nil {
			return err
		}
		for _, l := range s.Loops() {
			start := time.Now()
			_ = s.Check(xform.Parallelize{Do: l.Do})
			checks = append(checks, ms(time.Since(start)))
		}
		start := time.Now()
		if n := s.AutoParallelize(); n > 0 {
			applies = append(applies, ms(time.Since(start))/float64(n))
		}
	}
	vals["xform.check_ms"] = mean(checks)
	vals["xform.apply_ms"] = mean(applies)
	return nil
}

// probePlanner searches each program with plan_run's pinned budget and
// times the reparse fork on its own: printing a session's program and
// opening the print is what the planner pays for every world.
func probePlanner(progs []probeProg, vals map[string]float64) error {
	counts := &worldCounts{}
	var plans int
	var searchMs, forkMs float64
	for _, p := range progs {
		opts := planner.Options{BeamWidth: planBudget.BeamWidth, MaxDepth: planBudget.MaxDepth,
			MaxWorlds: planBudget.MaxWorlds, Timeout: time.Minute, Interp: true, Input: p.input}
		start := time.Now()
		res, err := planner.Search(context.Background(), p.path, p.source, "", opts, counts)
		if err != nil {
			return err
		}
		searchMs += ms(time.Since(start))
		plans += len(res.Plans)
		s, err := core.Open(p.path, p.source)
		if err != nil {
			return err
		}
		forkMs += timed(probeReps, func() { _, _ = core.Open(p.path, fortran.Print(s.File)) })
	}
	vals["planner.search_ms"] = searchMs
	vals["planner.worlds_forked"] = float64(counts.forked)
	vals["planner.worlds_scored"] = float64(counts.scored)
	vals["planner.worlds_discarded"] = float64(counts.discarded)
	vals["planner.plans_per_world"] = float64(plans) / float64(counts.forked)
	vals["planner.fork_proxy_ms"] = forkMs
	return nil
}

// probeInterp runs each program sequentially under the interpreter.
func probeInterp(progs []probeProg, vals map[string]float64) error {
	files := make([]*fortran.File, len(progs))
	for i, p := range progs {
		f, err := fortran.Parse(p.path, p.source)
		if err != nil {
			return err
		}
		files[i] = f
	}
	var stmts int64
	var runErr error
	total := timed(probeReps, func() {
		stmts = 0
		for i, p := range progs {
			m := interp.New(files[i])
			m.Workers, m.Input, m.StmtLimit = 1, p.input, 500_000_000
			if err := m.Run(); err != nil {
				runErr = err
			}
			stmts += m.StmtsExecuted()
		}
	})
	vals["interp.run_ms"] = total
	vals["interp.stmts_per_s"] = float64(stmts) / (total / 1e3)
	return runErr
}

// probeCodegen lowers, builds and runs each program through the
// compile backend in a cache of its own. Times are means per program.
func probeCodegen(e *env, progs []probeProg, vals map[string]float64) error {
	cache := filepath.Join(e.dir, "probecache")
	ctx := context.Background()
	var genMs, coldMs, hitMs, runMs []float64
	var genBytes int
	for _, p := range progs {
		f, err := fortran.Parse(p.path, p.source)
		if err != nil {
			return err
		}
		var src string
		genMs = append(genMs, timed(probeReps, func() { src, err = codegen.Generate(f) }))
		if err != nil {
			return err
		}
		genBytes += len(src)
		start := time.Now()
		art, err := codegen.Build(ctx, f, cache, nil)
		if err != nil {
			return err
		}
		coldMs = append(coldMs, ms(time.Since(start)))
		hitMs = append(hitMs, timed(probeReps, func() { _, err = codegen.Build(ctx, f, cache, nil) }))
		if err != nil {
			return err
		}
		runMs = append(runMs, timed(probeReps, func() { _, err = codegen.Run(ctx, art, 1, p.input, nil) }))
		if err != nil {
			return err
		}
	}
	vals["codegen.generate_ms"] = mean(genMs)
	vals["codegen.generated_bytes"] = float64(genBytes)
	vals["codegen.build_cold_ms"] = mean(coldMs)
	vals["codegen.build_hit_ms"] = mean(hitMs)
	vals["codegen.run_ms"] = mean(runMs)

	// Spawn alone, against which codegen.run_ms is spawn plus the run.
	var spawnErr error
	vals["execguard.spawn_ms"] = timed(20, func() {
		if _, err := execguard.Supervise(ctx, nil, exec.Command("/bin/true")); err != nil {
			spawnErr = err
		}
	})
	return spawnErr
}

// probeServer times the serving layers without HTTP (Manager.Open,
// one actor round trip) and HTTP without the serving layers (/readyz),
// on the env's own daemon, and a statement edit under each fsync policy
// on three small daemons of their own.
func probeServer(e *env, p probeProg, vals map[string]float64) error {
	ctx := context.Background()
	c := &server.Client{Base: e.direct, MaxRetries: -1}
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	vals["server.http_edge_us"] = 1e3 * timed(200, func() { note(c.Ready(ctx)) })

	open := func(m *server.Manager, src string) *server.Session {
		ss, _, err := m.Open(ctx, server.OpenRequest{Path: p.path, Source: src})
		note(err)
		return ss
	}
	if ss := open(e.mgr, p.source); ss != nil { // make sure the cache holds it
		e.mgr.Close(ss.ID)
	}
	vals["server.open_warm_us"] = 1e3 * timed(50, func() {
		if ss := open(e.mgr, p.source); ss != nil {
			e.mgr.Close(ss.ID)
		}
	})
	n := 0
	vals["server.open_cold_ms"] = timed(probeReps, func() {
		n++
		// A leading comment is new text to the analysis cache.
		if ss := open(e.mgr, fmt.Sprintf("c probe %d\n", n)+p.source); ss != nil {
			e.mgr.Close(ss.ID)
		}
	})
	if ss := open(e.mgr, p.source); ss != nil {
		loop := 0
		vals["server.actor_roundtrip_us"] = 1e3 * timed(200, func() {
			loop = loop%2 + 1 // alternate between loops 1 and 2; every probe program has two
			_, err := ss.Select(ctx, server.SelectRequest{Loop: loop})
			note(err)
		})
		e.mgr.Close(ss.ID)
	}

	// A tiny program, so the edit itself is cheap next to its journal
	// record: slab2d, re-typing the first statement of its first loop.
	slab := workloads.ByName("slab2d")
	local, err := core.Open(slab.Name+".f", slab.Source)
	if err != nil {
		return err
	}
	st := firstLoopAssign(local.CurrentUnit().Body)
	req := server.EditRequest{Stmt: st.ID(), Text: fortran.StmtText(st)}
	for _, pol := range []server.FsyncPolicy{server.FsyncAlways, server.FsyncInterval, server.FsyncNever} {
		dir := filepath.Join(e.dir, "fsync-"+pol.String())
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		m := server.NewManager(server.Config{DataDir: dir, Fsync: pol})
		ss, _, err := m.Open(ctx, server.OpenRequest{Path: slab.Name + ".f", Source: slab.Source})
		note(err)
		if err == nil {
			note(ss.Edit(ctx, req)) // the first edit materialises the session; not timed
			vals["server.journal_append_us_"+pol.String()] = 1e3 * timed(50, func() { note(ss.Edit(ctx, req)) })
		}
		m.Shutdown()
	}
	return firstErr
}
