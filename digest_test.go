// Pinned analysis results. TestIncrementalMatchesScratch compares two
// runs of the same tree, so it cannot see a change that moves both of
// its sides; this test hashes a canonical dump of everything the
// analyses produce and compares it with constants recorded from the
// tree before the analysis code was last restructured.
package parascope

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"testing"

	"parascope/internal/cfg"
	"parascope/internal/core"
	"parascope/internal/dep"
	"parascope/internal/fortran"
	"parascope/internal/workloads"
)

// dumpAnalysis writes every analysis result of the session in a
// canonical form: per unit, every dependence a loop can ask for in
// graph order with all of its fields, and the performance estimate with
// floats printed exactly (%b). A data dependence whose endpoints share
// no loop is left out — no loop's pane, safety check or planner step
// reads it — and each kept edge is printed with its rank among the kept
// ones, so the dump does not depend on whether such edges are built.
// The test statistics count the pairs a run tested and are pinned apart
// (TestAnalysisStatsDigest).
func dumpAnalysis(w io.Writer, s *core.Session) {
	for _, u := range s.File.Units {
		st := s.StateOf(u)
		fmt.Fprintf(w, "unit %s\n", u.Name)
		rank := 0
		for _, d := range st.Deps.Deps {
			if d.Class != dep.ClassControl && !shareLoop(st.DF.Tree.Innermost(d.Src), d.Dst) {
				continue
			}
			rank++
			fmt.Fprintf(w, "%d %s %s #%d->#%d l%d %v %v %v %s %s %q %q\n",
				rank, d.Class, d.Sym.Name, d.Src.ID(), d.Dst.ID(), d.Level,
				d.Dirs, d.Dist, d.Known, d.Mark, d.Test, d.Reason, d.Blockers)
		}
		fmt.Fprintf(w, "total %b\n", st.Est.Total)
		for _, le := range st.Est.Loops {
			fmt.Fprintf(w, "loop #%d %b %b %b %b %b %b\n", le.Loop.Do.ID(),
				le.Trip, le.BodyCost, le.SeqTime, le.ParTime, le.Speedup, le.Fraction)
		}
	}
}

// shareLoop reports whether l, the innermost loop of one statement, or
// one of its ancestors contains statement s.
func shareLoop(l *cfg.Loop, s fortran.Stmt) bool {
	for ; l != nil; l = l.Parent {
		if l.Contains(s) {
			return true
		}
	}
	return false
}

// constPropProgram is one program beyond the suite: no suite program's
// dependences move when UseConstants is switched off, so without it the
// constants table of the dependence tester would be pinned by nothing.
// The first loop is independent only when n's propagated value bounds
// i; the second has a constant-valued lower bound and a non-unit step.
var constPropProgram = &workloads.Workload{Name: "constprop", Source: `      program cst
      integer i, n, m
      real a(200)
      n = 100
      m = n + 1
      do i = 1, n
         a(i + n) = a(i) + 1.0
      enddo
      do i = m, 200, 2
         a(i) = a(i - 1) + a(i - n)
      enddo
      print *, a(m)
      end
`}

// digestPrograms is what the digests cover: the workload suite,
// constPropProgram, and the two programs beyond the suite whose shapes
// it lacks — a main of calls outside every loop, and a constant
// assigned under a conditional.
func digestPrograms() []*workloads.Workload {
	return append(workloads.All(), constPropProgram, workloads.CallHeavy(24), workloads.CondConst())
}

// TestAnalysisDigest pins the analysis results of digestPrograms under
// the default options, the conservative (no interprocedural analysis)
// mode and each single-option ablation of dep.Options.
//
// The constants were recorded from commit cf66c0f, the parent of the
// change that stopped pairing references with no common loop, before
// any analysis code changed. A failure prints the per-workload digests
// so the moved program can be found by running the same test on a tree
// known to be good.
func TestAnalysisDigest(t *testing.T) {
	configs := []struct {
		name         string
		conservative bool
		scripted     bool // replay the workload's user session (assertions, marks, transformations) first
		opts         dep.Options
		want         string
	}{
		{"default", false, false, dep.DefaultOptions(), "d570a1d161f8fe1fd87677fb9b2fbf93efda326e518c5babd89f914e8608a044"},
		{"conservative", true, false, dep.DefaultOptions(), "96117527f7edd7db80ca4fcae86869dce1364d259080e16b007679932378ec4f"},
		{"no-constants", false, false, dep.Options{UseRanges: true, UseSections: true}, "dea4649efb7ad2c7076b7be319bc76019e60cbcbb997f6dc18fbe539f3a09cc3"},
		{"no-ranges", false, false, dep.Options{UseConstants: true, UseSections: true}, "1ac7b15a01125c58aeb5b341323e0661e9fbb4ff0c3e2eac9c56bb1a5bd8d8f6"},
		{"no-sections", false, false, dep.Options{UseConstants: true, UseRanges: true}, "9faf901842ee7faf385bf002ed55ad4f0f64d179aae6fe43331dd4df6f116776"},
		{"input-deps", false, false, dep.Options{UseConstants: true, UseRanges: true, UseSections: true, InputDeps: true}, "b5896dd07bb37530a31221d80c595886e30966675a7067e612cc6b09e917da1b"},
		{"scripted", false, true, dep.DefaultOptions(), "9ca18a9cf99cae54031d840537f7a1b37c05477969c09a2b0a59a1ece7698b2a"},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			all := sha256.New()
			var perWorkload []string
			for _, w := range digestPrograms() {
				s, err := w.Session()
				if err != nil {
					t.Fatalf("%s: %v", w.Name, err)
				}
				if c.conservative || c.opts != dep.DefaultOptions() {
					s.Conservative = c.conservative
					s.Opts = c.opts
					s.AnalyzeAll()
				}
				if c.scripted && w.Script != nil {
					if _, err := w.Script(s); err != nil {
						t.Fatalf("%s: script: %v", w.Name, err)
					}
				}
				h := sha256.New()
				dumpAnalysis(io.MultiWriter(h, all), s)
				perWorkload = append(perWorkload, fmt.Sprintf("%s %x", w.Name, h.Sum(nil)[:8]))
			}
			if got := hex.EncodeToString(all.Sum(nil)); got != c.want {
				t.Errorf("analysis results moved: digest %s, want %s\nper workload: %v", got, c.want, perWorkload)
			}
		})
	}
}

// dumpStats writes the test statistics of every unit of the session:
// the reference pairs tested, and per test the pairs it was applied to,
// disproved and proved dependent.
func dumpStats(w io.Writer, s *core.Session) {
	for _, u := range s.File.Units {
		stats := s.StateOf(u).Deps.Stats
		fmt.Fprintf(w, "unit %s\npairs %d\n", u.Name, stats.PairsTested)
		for _, m := range []struct {
			name   string
			counts map[string]int
		}{{"applied", stats.Applied}, {"disproved", stats.Disproved}, {"proven", stats.Proven}} {
			keys := make([]string, 0, len(m.counts))
			for k := range m.counts {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(w, "%s %s %d\n", m.name, k, m.counts[k])
			}
		}
	}
}

// TestAnalysisStatsDigest pins what TestAnalysisDigest leaves out: the
// test statistics of every unit of digestPrograms, under the same
// configurations. They count the pairs a run tests, so they move
// whenever the analysis tests other pairs with the same results; the
// constants were recorded when the graph stopped pairing references
// with no common loop.
func TestAnalysisStatsDigest(t *testing.T) {
	configs := []struct {
		name         string
		conservative bool
		scripted     bool
		opts         dep.Options
		want         string
	}{
		{"default", false, false, dep.DefaultOptions(), "ca74ee2f0c75cfdfe91104bdbe12f16e172de24639935a34a0a7b07fb8ea8cce"},
		{"conservative", true, false, dep.DefaultOptions(), "c377d7ee2855d90402cc4f28a925f529e53b2107defb912f003e4c829447bd05"},
		{"no-constants", false, false, dep.Options{UseRanges: true, UseSections: true}, "62fc28c4953c0ed619aa7637f343c891491fc160104c817371d87489233b1df0"},
		{"no-ranges", false, false, dep.Options{UseConstants: true, UseSections: true}, "ade0e639e995eb59f5888d0d71bebd0722b3febb98b6914dadd1a7e0f7069f22"},
		{"no-sections", false, false, dep.Options{UseConstants: true, UseRanges: true}, "a52e798e756c292bd23db73e11b2ce3f089c30b6095124e688388fb97c86e94b"},
		{"input-deps", false, false, dep.Options{UseConstants: true, UseRanges: true, UseSections: true, InputDeps: true}, "9e378e41f5d1d85bc57e1a139a9cf7c9faf16a07977ad85c0e43252759871433"},
		{"scripted", false, true, dep.DefaultOptions(), "f0a2c76766fcacc60253a2c62cdddb19e1cc6de10eec3ef04541324a74cebfb6"},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			all := sha256.New()
			var perWorkload []string
			for _, w := range digestPrograms() {
				s, err := w.Session()
				if err != nil {
					t.Fatalf("%s: %v", w.Name, err)
				}
				if c.conservative || c.opts != dep.DefaultOptions() {
					s.Conservative = c.conservative
					s.Opts = c.opts
					s.AnalyzeAll()
				}
				if c.scripted && w.Script != nil {
					if _, err := w.Script(s); err != nil {
						t.Fatalf("%s: script: %v", w.Name, err)
					}
				}
				h := sha256.New()
				dumpStats(io.MultiWriter(h, all), s)
				perWorkload = append(perWorkload, fmt.Sprintf("%s %x", w.Name, h.Sum(nil)[:8]))
			}
			if got := hex.EncodeToString(all.Sum(nil)); got != c.want {
				t.Errorf("test statistics moved: digest %s, want %s\nper workload: %v", got, c.want, perWorkload)
			}
		})
	}
}

// dumpSummaries writes what the interprocedural pass and each unit's
// data-flow solve leave on a session: per unit, its summary and constant
// formals from s.Prog, then from the unit's analysis every statement's
// accesses, which symbols it assigns, what is upward exposed, and per
// loop and scalar whether the scalar is live out of the loop and
// privatizable in it.
func dumpSummaries(w io.Writer, s *core.Session) {
	names := func(m map[*fortran.Symbol]bool) []string {
		var out []string
		for sym := range m {
			out = append(out, sym.Name)
		}
		sort.Strings(out)
		return out
	}
	for _, u := range s.File.Units {
		sm := s.Prog.Summaries[u]
		fmt.Fprintf(w, "unit %s conservative %t\n", u.Name, sm.Conservative)
		fmt.Fprintf(w, "mod %v\nref %v\nupref %v\nkill %v\nkillarrays %v\n",
			names(sm.Mod), names(sm.Ref), names(sm.UpRef), names(sm.Kill), names(sm.KillArrays))
		arrays := map[*fortran.Symbol]bool{}
		for sym := range sm.Sections {
			arrays[sym] = true
		}
		for _, name := range names(arrays) {
			for sym, secs := range sm.Sections {
				if sym.Name != name {
					continue
				}
				for _, sec := range secs {
					fmt.Fprintf(w, "section %s write %t", name, sec.Write)
					for _, d := range sec.Dims {
						fmt.Fprintf(w, " [%t %s:%s]", d.Known, d.Lo, d.Hi)
					}
					fmt.Fprintln(w)
				}
			}
		}
		for _, sym := range u.SymbolsSorted() {
			if v, ok := s.Prog.ConstFormals[u][sym]; ok {
				fmt.Fprintf(w, "constformal %s %d\n", sym.Name, v)
			}
		}
		df := s.StateOf(u).DF
		fortran.WalkStmts(u.Body, func(st fortran.Stmt) bool {
			fmt.Fprintf(w, "#%d", st.ID())
			for _, ac := range df.Accesses(st) {
				fmt.Fprintf(w, " %s:%t:%t:%v", ac.Sym.Name, ac.Write, ac.Partial, ac.Ref)
			}
			fmt.Fprintln(w)
			return true
		})
		for _, sym := range u.SymbolsSorted() {
			fmt.Fprintf(w, "assigned %s %t\n", sym.Name, df.Assigned(sym))
		}
		fmt.Fprintf(w, "upward %v\n", names(df.UpwardExposed()))
		for _, l := range df.Tree.All {
			for _, sym := range u.SymbolsSorted() {
				if sym.Kind == fortran.SymScalar {
					fmt.Fprintf(w, "loop #%d %s live %t %+v\n", l.Do.ID(), sym.Name, df.LiveOutOfLoop(l, sym), df.Privatizable(l, sym))
				}
			}
		}
	}
}

// TestSummaryDigest pins the interprocedural summaries and the per-unit
// data-flow facts of digestPrograms after an open, under the default and
// the conservative configuration. The per-unit solve may come from the
// summary pass or be run again; either way these facts must not move.
// The constants were recorded from commit 58fa5ad, where every unit's
// data flow was solved again after the summary pass.
func TestSummaryDigest(t *testing.T) {
	configs := []struct {
		name         string
		conservative bool
		want         string
	}{
		{"default", false, "eddc8c82f0dcfea9df70cd62c341921d02475b5232fc83e7a64c259aaf33f35d"},
		{"conservative", true, "d7daaf9de6efff0d0f9164975dd708aae74d4db1e0ad4283e55236bdb5119d69"},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			all := sha256.New()
			var perWorkload []string
			for _, w := range digestPrograms() {
				s, err := w.Session()
				if err != nil {
					t.Fatalf("%s: %v", w.Name, err)
				}
				if c.conservative {
					s.Conservative = true
					s.AnalyzeAll()
				}
				h := sha256.New()
				dumpSummaries(io.MultiWriter(h, all), s)
				perWorkload = append(perWorkload, fmt.Sprintf("%s %x", w.Name, h.Sum(nil)[:8]))
			}
			if got := hex.EncodeToString(all.Sum(nil)); got != c.want {
				t.Errorf("summaries or data-flow facts moved: digest %s, want %s\nper workload: %v", got, c.want, perWorkload)
			}
		})
	}
}
