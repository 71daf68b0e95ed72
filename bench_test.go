// Package parascope's root benchmark harness: one benchmark per
// regenerated table and figure of the evaluation (see DESIGN.md's
// experiment index and EXPERIMENTS.md for recorded results).
package parascope

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"parascope/internal/codegen"
	"parascope/internal/core"
	"parascope/internal/dataflow"
	"parascope/internal/dep"
	"parascope/internal/experiments"
	"parascope/internal/fortran"
	"parascope/internal/interp"
	"parascope/internal/planner"
	"parascope/internal/server"
	"parascope/internal/workloads"
)

// BenchmarkT1Suite measures parsing and measuring the whole program
// suite (Table 1).
func BenchmarkT1Suite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range workloads.All() {
			if _, err := w.Measure(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkT2Sessions replays every scripted user session (Table 2):
// full analysis plus the interactive actions per workload.
func BenchmarkT2Sessions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSessions(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT3Ablation runs the analysis-capability matrix (Table 3):
// every workload under every analysis configuration.
func BenchmarkT3Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF1Render renders the Ped window (Figure 1).
func BenchmarkF1Render(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF2PowerSteering runs the worked transformation transcript.
func BenchmarkF2PowerSteering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PowerSteering(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5DepTests measures the hierarchical dependence test suite
// over all workloads (the per-test effectiveness experiment).
func BenchmarkE5DepTests(b *testing.B) {
	// Pre-parse and pre-analyze data-flow once; the benchmark times
	// dependence testing itself.
	type unitDF struct{ df *dataflow.Analysis }
	var dfs []unitDF
	for _, w := range workloads.All() {
		f := w.MustParse()
		for _, u := range f.Units {
			dfs = append(dfs, unitDF{dataflow.Analyze(u, nil)})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range dfs {
			dep.Analyze(x.df, nil, nil, dep.DefaultOptions())
		}
	}
}

// BenchmarkE6Speedup executes every parallelized workload at several
// worker counts; b.Run sub-benchmarks give per-configuration timings,
// and the reported simulated cycles give machine-independent speedup.
func BenchmarkE6Speedup(b *testing.B) {
	prepared := map[string]*core.Session{}
	for _, w := range workloads.All() {
		s, err := w.Session()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Script(s); err != nil {
			b.Fatal(err)
		}
		prepared[w.Name] = s
	}
	for _, w := range workloads.All() {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/w%d", w.Name, workers), func(b *testing.B) {
				s := prepared[w.Name]
				var cycles int64
				for i := 0; i < b.N; i++ {
					_, c, err := interp.RunCaptureSim(s.File, workers, w.Input)
					if err != nil {
						b.Fatal(err)
					}
					cycles = c
				}
				b.ReportMetric(float64(cycles), "simcycles")
			})
		}
	}
}

// BenchmarkE7Incremental compares whole-program reanalysis against
// the incremental per-unit path on a spec77-scale program.
func BenchmarkE7Incremental(b *testing.B) {
	src := experiments.BigProgram(40)
	s, err := core.Open("big.f", src)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.AnalyzeAll()
		}
	})
	b.Run("one-unit", func(b *testing.B) {
		u := s.File.Unit("unit0")
		for i := 0; i < b.N; i++ {
			s.ReanalyzeUnit(u)
		}
	})
	b.Run("edit", func(b *testing.B) {
		if err := s.SelectUnit("unit0"); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			target := s.Loops()[0].Do.Body[0]
			if err := s.EditStmt(target.ID(), "t = x(i)*0.5 + x(i-1)*0.25"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// editBenchSource builds one large program unit — loops copies of a
// four-statement loop over shared arrays — so whole-unit reanalysis
// has a realistic quadratic pair-testing bill for the patch path to
// beat.
func editBenchSource(loops int) string {
	var b strings.Builder
	n := loops*1000 + 1000
	fmt.Fprintf(&b, "      program main\n      integer i\n      real a(%d), b(%d), c(%d), t\n", n, n, n)
	b.WriteString("      t = 0.0\n")
	// Each loop works a disjoint 1000-element window of the shared
	// arrays: the pairs across loops must all be *tested* (same
	// symbols everywhere) but are all disproven, so the whole-unit
	// bill is quadratic pair testing over a sparse dependence graph.
	sub := func(k int) string {
		switch {
		case k == 0:
			return "i"
		case k < 0:
			return fmt.Sprintf("i-%d", -k)
		default:
			return fmt.Sprintf("i+%d", k)
		}
	}
	for l := 0; l < loops; l++ {
		k := l * 1000
		b.WriteString("      do i = 2, 999\n")
		fmt.Fprintf(&b, "         a(%s) = a(%s)*0.5 + b(%s)\n", sub(k), sub(k-1), sub(k))
		fmt.Fprintf(&b, "         b(%s) = b(%s) + c(%s)\n", sub(k), sub(k-1), sub(k))
		fmt.Fprintf(&b, "         c(%s) = c(%s) + a(%s)\n", sub(k), sub(k-1), sub(k))
		fmt.Fprintf(&b, "         t = t + a(%s)\n", sub(k))
		b.WriteString("      enddo\n")
	}
	b.WriteString("      print *, t\n      end\n")
	return b.String()
}

// BenchmarkEditReanalyze measures what a single-statement edit costs
// the editor: the whole-unit reanalysis baseline (WholeUnitOnly)
// against the statement-granular patch path, for the same 1:1 edit of
// one assignment deep inside a large unit. The "stmt" sub-benchmark
// must come in well under the "whole-unit" one — bench/ measures the
// pair as core.edit_patch_ms and core.edit_unit_ms on big_edit.
// "program-call" swaps two actuals of one CALL in a main of 200 calls,
// to and fro: the program rung, with main itself patched
// (core.edit_program_ms on big_edit).
func BenchmarkEditReanalyze(b *testing.B) {
	assign := func(s *core.Session) (int, [2]string) {
		target := s.Loops()[14].Do.Body[3]
		text := fortran.StmtText(target)
		return target.ID(), [2]string{text, text}
	}
	call := func(s *core.Session) (int, [2]string) {
		var calls []fortran.Stmt
		fortran.WalkStmts(s.CurrentUnit().Body, func(st fortran.Stmt) bool {
			if fortran.StmtText(st) == "call add(a, b, n)" {
				calls = append(calls, st)
			}
			return true
		})
		return calls[len(calls)/2].ID(), [2]string{"call add(b, a, n)", "call add(a, b, n)"}
	}
	for _, mode := range []struct {
		name      string
		src       string
		site      func(*core.Session) (int, [2]string)
		wholeUnit bool
		wantMode  string
	}{
		{"whole-unit", editBenchSource(30), assign, true, "unit"},
		{"stmt", editBenchSource(30), assign, false, "patch"},
		{"program-call", workloads.CallHeavy(200).Source, call, false, "program"},
	} {
		b.Run(mode.name, func(b *testing.B) {
			s, err := core.Open("edit.f", mode.src)
			if err != nil {
				b.Fatal(err)
			}
			s.WholeUnitOnly = mode.wholeUnit
			id, texts := mode.site(s)
			// Warm-up edits: verify the intended path engages before
			// timing it, and leave the statement as it was.
			for _, text := range texts {
				if err := s.EditStmt(id, "      "+text); err != nil {
					b.Fatal(err)
				}
				if s.LastReanalysis.Mode != mode.wantMode {
					b.Fatalf("edit took the %q path, want %q", s.LastReanalysis.Mode, mode.wantMode)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.EditStmt(id, "      "+texts[i%2]); err != nil {
					b.Fatal(err)
				}
				s.SetUndoStack(nil)
			}
		})
	}
}

// BenchmarkE5NoRanges is the design-choice ablation bench: the
// dependence suite with the range-based (Banerjee/bounds) tier
// disabled — cheaper per pair but conservative (see
// TestRangeTestsAblation for the precision difference).
func BenchmarkE5NoRanges(b *testing.B) {
	var dfs []*dataflow.Analysis
	for _, w := range workloads.All() {
		f := w.MustParse()
		for _, u := range f.Units {
			dfs = append(dfs, dataflow.Analyze(u, nil))
		}
	}
	opts := dep.DefaultOptions()
	opts.UseRanges = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, df := range dfs {
			dep.Analyze(df, nil, nil, opts)
		}
	}
}

// BenchmarkParser measures front-end throughput on the biggest
// synthetic program.
func BenchmarkParser(b *testing.B) {
	src := experiments.BigProgram(40)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := fortran.Parse("big.f", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalysisCache compares a cold session open (parse + full
// analysis + artifact build every time) against a warm open served
// from the content-hash cache. The warm path must be measurably
// faster: it hashes the source and hands back prebuilt artifacts.
func BenchmarkAnalysisCache(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		m := server.NewManager(server.Config{}) // cache disabled
		defer m.Shutdown()
		for i := 0; i < b.N; i++ {
			_, resp, err := m.Open(context.Background(), server.OpenRequest{Workload: "spec77"})
			if err != nil {
				b.Fatal(err)
			}
			if resp.Cached {
				b.Fatal("cold open reported a cache hit")
			}
			m.Close(resp.ID)
		}
	})
	b.Run("warm", func(b *testing.B) {
		m := server.NewManager(server.Config{CacheSize: 8})
		defer m.Shutdown()
		_, prime, err := m.Open(context.Background(), server.OpenRequest{Workload: "spec77"})
		if err != nil {
			b.Fatal(err)
		}
		m.Close(prime.ID)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, resp, err := m.Open(context.Background(), server.OpenRequest{Workload: "spec77"})
			if err != nil {
				b.Fatal(err)
			}
			if !resp.Cached {
				b.Fatal("warm open missed the cache")
			}
			m.Close(resp.ID)
		}
	})
}

// BenchmarkServerThroughput measures complete pedd session round-trips
// per second — open, select a loop, fetch dependences, close — over
// real HTTP at 1, 4, and 16 concurrent clients. "durable" is c1 as pedd
// is deployed (-datadir, -fsync interval): the session only browses, so
// it should cost what c1 costs — the journal is born by a mutation.
func BenchmarkServerThroughput(b *testing.B) {
	for _, run := range []struct {
		name    string
		clients int
		durable bool
	}{{"c1", 1, false}, {"durable", 1, true}, {"c4", 4, false}, {"c16", 16, false}} {
		clients := run.clients
		b.Run(run.name, func(b *testing.B) {
			cfg := server.Config{CacheSize: 16}
			if run.durable {
				cfg.DataDir, cfg.Fsync = b.TempDir(), server.FsyncInterval
			}
			m := server.NewManager(cfg)
			defer m.Shutdown()
			ts := httptest.NewServer(server.New(m))
			defer ts.Close()
			b.ResetTimer()
			var wg sync.WaitGroup
			errCh := make(chan error, clients)
			per := b.N / clients
			extra := b.N % clients
			for g := 0; g < clients; g++ {
				n := per
				if g < extra {
					n++
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					ctx := context.Background()
					c := server.NewClient(ts.URL)
					for i := 0; i < n; i++ {
						open, err := c.Open(ctx, server.OpenRequest{Workload: "direct"})
						if err != nil {
							errCh <- err
							return
						}
						if _, err := c.Select(ctx, open.ID, server.SelectRequest{Loop: 1}); err != nil {
							errCh <- err
							return
						}
						if _, err := c.Deps(ctx, open.ID, server.DepQuery{}); err != nil {
							errCh <- err
							return
						}
						if err := c.CloseSession(ctx, open.ID); err != nil {
							errCh <- err
							return
						}
					}
				}(n)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sessions/s")
		})
	}
}

// BenchmarkPlannerSearch measures one full speculative-search round:
// fork candidate worlds from a workload session, beam-search the
// transformation space, score and rank the surviving plans. Static
// scoring only (the interp validation pass is benchmarked separately
// by BenchmarkE6Speedup); worlds/s reports exploration throughput.
func BenchmarkPlannerSearch(b *testing.B) {
	for _, name := range []string{"direct", "spec77"} {
		b.Run(name, func(b *testing.B) {
			w := workloads.ByName(name)
			var worlds int
			for i := 0; i < b.N; i++ {
				res, err := planner.Search(context.Background(), w.Name+".f", w.Source, "",
					planner.Options{Interp: false}, nil)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Plans) == 0 {
					b.Fatal("search found no plans")
				}
				worlds += res.WorldsForked
			}
			b.ReportMetric(float64(worlds)/b.Elapsed().Seconds(), "worlds/s")
		})
	}
}

// BenchmarkInterp measures interpreter throughput (statements/sec).
func BenchmarkInterp(b *testing.B) {
	w := workloads.ByName("direct")
	f := w.MustParse()
	m := interp.New(f)
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
	stmts := m.StmtsExecuted()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := interp.RunCapture(f, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stmts)*float64(b.N)/b.Elapsed().Seconds(), "stmts/s")
}

// BenchmarkCompiledVsInterp races the two execution backends on the
// largest program the harness runs — the spec77-scale edit-bench
// source (30 loop nests, ~120k interpreted statements). The compiled
// binary is built once outside the timed region — the cache makes
// rebuilds free — and its per-run number includes process spawn, the
// honest per-execution cost of the exec API. bench/ measures the pair
// as interp.run_ms and codegen.run_ms on plan_run.
func BenchmarkCompiledVsInterp(b *testing.B) {
	f, err := fortran.Parse("bench.f", editBenchSource(30))
	if err != nil {
		b.Fatal(err)
	}
	art, err := codegen.Build(context.Background(), f, b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	want, _, err := interp.RunCaptureSim(f, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("interp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, _, err := interp.RunCaptureSim(f, 1, nil)
			if err != nil {
				b.Fatal(err)
			}
			if out != want {
				b.Fatal("interp output changed between runs")
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := codegen.Run(context.Background(), art, 1, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			if res.Output != want {
				b.Fatal("compiled output diverged from the interpreter")
			}
		}
	})
}

// BenchmarkBuildCold measures the first compiled run's dominant cost:
// codegen.Build of a program no cache has seen — the edit-bench source
// with a constant that changes per iteration.
//
// listed-root builds on a cache root that already holds the runtime
// module and its listing, so what is timed is staging, the compile of
// the generated unit and the link; bench/ measures the same as
// codegen.build_cold_ms on plan_run. first-on-root builds each program
// on an empty root: staging the runtime module, listing it (which
// compiles its three packages for that directory) and the build — what
// plan_run's set-up and its first session pay.
func BenchmarkBuildCold(b *testing.B) {
	build := func(cache string, salt int) {
		src := strings.Replace(editBenchSource(10), "t = 0.0", fmt.Sprintf("t = 0.%04d", salt), 1)
		f, err := fortran.Parse("bench.f", src)
		if err != nil {
			b.Fatal(err)
		}
		art, err := codegen.Build(context.Background(), f, cache, nil)
		if err != nil {
			b.Fatal(err)
		}
		if art.Cached {
			b.Fatal("salted program hit the cache")
		}
	}
	b.Run("listed-root", func(b *testing.B) {
		cache := b.TempDir()
		build(cache, 0) // stages and lists the runtime module
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			build(cache, i+1)
		}
	})
	b.Run("first-on-root", func(b *testing.B) {
		caches := b.TempDir()
		build(filepath.Join(caches, "warm"), 0) // fills the Go build cache with the standard library
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			build(filepath.Join(caches, strconv.Itoa(i)), i+1)
		}
	})
}

// BenchmarkBuildHit measures what every warm compiled run pays before
// the spawn: lowering, the cache key and the entry check
// (codegen.build_hit_ms in bench/).
func BenchmarkBuildHit(b *testing.B) {
	f, err := fortran.Parse("bench.f", editBenchSource(10))
	if err != nil {
		b.Fatal(err)
	}
	cache := b.TempDir()
	if _, err := codegen.Build(context.Background(), f, cache, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		art, err := codegen.Build(context.Background(), f, cache, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !art.Cached {
			b.Fatal("rebuilt a cached program")
		}
	}
}

// BenchmarkOpenSpec77 measures a cold core.Open — parse plus
// whole-program analysis — of the suite's largest program, with its
// allocation count: the small-program end of what bench/ measures as
// core.open_ms on big_edit.
func BenchmarkOpenSpec77(b *testing.B) {
	w := workloads.Spec77()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Open(w.Name+".f", w.Source); err != nil {
			b.Fatal(err)
		}
	}
}

// openSpec77AllocsAtPR13 is testing.AllocsPerRun of core.Open(spec77)
// at commit 23777e9 (PR 13), before analysis facts moved onto
// statement, loop and reference tables.
const openSpec77AllocsAtPR13 = 5094

// TestOpenAllocs guards the allocation work of that change: a cold
// open must stay at or below 0.7 × the count it replaced, so a
// per-pair allocation put back into the dependence tester, or a
// map-of-maps back into data-flow, fails here instead of waiting for a
// benchmark run.
func TestOpenAllocs(t *testing.T) {
	w := workloads.Spec77()
	got := testing.AllocsPerRun(20, func() {
		if _, err := core.Open(w.Name+".f", w.Source); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 0.7 * openSpec77AllocsAtPR13; got > limit {
		t.Errorf("core.Open(spec77) makes %.0f allocations, limit %.0f (0.7 × %d at PR 13)", got, limit, openSpec77AllocsAtPR13)
	}
	t.Logf("core.Open(spec77): %.0f allocations", got)
}

// undoSpec77 opens spec77 and returns a function that re-types the
// first assignment of its main program with another constant — an edit
// confined to that unit — leaving the undo to the caller.
func undoSpec77(tb testing.TB) (*core.Session, func()) {
	w := workloads.Spec77()
	s, err := core.Open(w.Name+".f", w.Source)
	if err != nil {
		tb.Fatal(err)
	}
	var target fortran.Stmt
	fortran.WalkStmts(s.CurrentUnit().Body, func(st fortran.Stmt) bool {
		if _, ok := st.(*fortran.AssignStmt); ok && target == nil {
			target = st
		}
		return true
	})
	id, text := target.ID(), fortran.StmtText(target)
	edit := func() {
		if err := s.EditStmt(id, "      "+text+" + 0.5"); err != nil {
			tb.Fatal(err)
		}
	}
	edit()
	if mode := s.LastReanalysis.Mode; mode == "full" || mode == "program" {
		tb.Fatalf("the edit took the %s rung, want one confined to the unit", mode)
	}
	if err := s.Undo(); err != nil {
		tb.Fatal(err)
	}
	if mode := s.LastReanalysis.Mode; mode == "full" || mode == "program" {
		tb.Fatalf("the undo took the %s rung, want the edit's", mode)
	}
	return s, edit
}

// BenchmarkUndoSpec77 measures Session.Undo of a one-statement edit in
// one unit of the suite's largest program (the edit itself runs with
// the timer stopped): the small-program end of what bench/ measures as
// core.undo_ms on big_edit.
func BenchmarkUndoSpec77(b *testing.B) {
	s, edit := undoSpec77(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		edit()
		b.StartTimer()
		if err := s.Undo(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestUndoAllocs guards what made undo cheap: undoing a one-unit edit
// parses and reanalyzes that unit, so it must allocate under a quarter
// of what opening the program does. An undo that reparsed the program
// or analyzed every unit would allocate as much as the open.
func TestUndoAllocs(t *testing.T) {
	w := workloads.Spec77()
	open := testing.AllocsPerRun(10, func() {
		if _, err := core.Open(w.Name+".f", w.Source); err != nil {
			t.Fatal(err)
		}
	})
	s, edit := undoSpec77(t)
	pair := testing.AllocsPerRun(10, func() {
		edit()
		if err := s.Undo(); err != nil {
			t.Fatal(err)
		}
	})
	undo := pair - testing.AllocsPerRun(10, func() {
		edit()
		s.SetUndoStack(nil)
	})
	if limit := 0.25 * open; undo > limit {
		t.Errorf("undoing a one-unit edit of spec77 makes %.0f allocations, limit %.0f (0.25 × %.0f for core.Open)", undo, limit, open)
	}
	t.Logf("core.Open(spec77): %.0f allocations; undo of a one-unit edit: %.0f", open, undo)
}
