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

	"parascope/internal/core"
	"parascope/internal/dep"
	"parascope/internal/workloads"
)

// dumpAnalysis writes every analysis result of the session in a
// canonical form: per unit, every dependence in graph order with all
// of its fields, the test statistics, and the performance estimate
// with floats printed exactly (%b).
func dumpAnalysis(w io.Writer, s *core.Session) {
	for _, u := range s.File.Units {
		st := s.StateOf(u)
		fmt.Fprintf(w, "unit %s\n", u.Name)
		for _, d := range st.Deps.Deps {
			fmt.Fprintf(w, "%d %s %s #%d->#%d l%d %v %v %v %s %s %q %q\n",
				d.ID, d.Class, d.Sym.Name, d.Src.ID(), d.Dst.ID(), d.Level,
				d.Dirs, d.Dist, d.Known, d.Mark, d.Test, d.Reason, d.Blockers)
		}
		stats := st.Deps.Stats
		fmt.Fprintf(w, "pairs %d\n", stats.PairsTested)
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
		fmt.Fprintf(w, "total %b\n", st.Est.Total)
		for _, le := range st.Est.Loops {
			fmt.Fprintf(w, "loop #%d %b %b %b %b %b %b\n", le.Loop.Do.ID(),
				le.Trip, le.BodyCost, le.SeqTime, le.ParTime, le.Speedup, le.Fraction)
		}
	}
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

// TestAnalysisDigest pins the analysis results of the whole workload
// suite (plus constPropProgram) under the default options, the conservative (no interprocedural
// analysis) mode and each single-option ablation of dep.Options.
//
// The constants were recorded from commit 23777e9 (PR 13), the parent
// of the PR that moved per-pair analysis facts onto statement, loop and
// reference tables, before any analysis code changed. A failure prints
// the per-workload digests so the moved program can be found by running
// the same test on a tree known to be good.
func TestAnalysisDigest(t *testing.T) {
	configs := []struct {
		name         string
		conservative bool
		scripted     bool // replay the workload's user session (assertions, marks, transformations) first
		opts         dep.Options
		want         string
	}{
		{"default", false, false, dep.DefaultOptions(), "543a5b5336d430d80d0b3f5715ac6e44801870bc521cc83ab07c6743581b8887"},
		{"conservative", true, false, dep.DefaultOptions(), "f6603a41c41fef6c92a967652a1c3f023fa4cf5a574f882e78ba2a17c049ed9d"},
		{"no-constants", false, false, dep.Options{UseRanges: true, UseSections: true}, "e28011065af40b3a87abdffbc85643ef1ed6d4d8c37d3119e223dfa723fbed37"},
		{"no-ranges", false, false, dep.Options{UseConstants: true, UseSections: true}, "dd76ea1620ce22c0d4d769b9e4257461faf0ccde23da1f91bb398592d753535f"},
		{"no-sections", false, false, dep.Options{UseConstants: true, UseRanges: true}, "ef8cb3e212bdefaff6a261c14d5733c6931909358c9bb7000a07afe9050d181e"},
		{"input-deps", false, false, dep.Options{UseConstants: true, UseRanges: true, UseSections: true, InputDeps: true}, "60251e7c70e95f57ea21e0afc9970fa85e1fd3c8184a2a74d24075b9174a33a8"},
		{"scripted", false, true, dep.DefaultOptions(), "3880cb4f785f17228774c2873a2a540969f7553804bedbfba06647542a803961"},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			all := sha256.New()
			var perWorkload []string
			for _, w := range append(workloads.All(), constPropProgram) {
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
