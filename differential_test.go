// Differential test for incremental reanalysis: after any sequence
// of edits, a session's incrementally maintained analysis must be
// indistinguishable from throwing everything away and reanalyzing the
// saved source from scratch. Runs randomized (seeded) edit sequences
// over the whole workload suite, once with the statement-granular
// patch path enabled and once forced to whole-unit reanalysis.
package parascope

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"parascope/internal/core"
	"parascope/internal/fortran"
	"parascope/internal/workloads"
)

// sessionDepSignature renders every dependence of every unit in a
// sorted, order-insensitive form. Edge IDs and test statistics are
// excluded: the patch path renumbers edges and accumulates stats
// across edits by design.
func sessionDepSignature(s *core.Session) []string {
	var out []string
	for _, u := range s.File.Units {
		st := s.StateOf(u)
		if st == nil || st.Deps == nil {
			continue
		}
		for _, d := range st.Deps.Deps {
			out = append(out, fmt.Sprintf("%s %s %s l%d %s %s #%d->#%d %s",
				u.Name, d.Sym.Name, d.Class, d.Level, d.DirString(), d.Test,
				d.Src.ID(), d.Dst.ID(), d.Mark))
		}
	}
	sort.Strings(out)
	return out
}

// sessionPerfClose compares per-unit perf estimates with a relative
// tolerance; loop lists are compared as sorted time multisets because
// the estimator orders loops by estimated time, which can tie.
func sessionPerfClose(a, b *core.Session) error {
	near := func(x, y float64) bool {
		return math.Abs(x-y) <= 1e-9*(1+math.Abs(x)+math.Abs(y))
	}
	for _, u := range a.File.Units {
		ea := a.EstimateOf(u)
		eb := b.EstimateOf(b.File.Unit(u.Name))
		if !near(ea.Total, eb.Total) {
			return fmt.Errorf("unit %s: total %g vs %g", u.Name, ea.Total, eb.Total)
		}
		if len(ea.Loops) != len(eb.Loops) {
			return fmt.Errorf("unit %s: %d vs %d loop estimates", u.Name, len(ea.Loops), len(eb.Loops))
		}
		ta := make([]float64, len(ea.Loops))
		tb := make([]float64, len(eb.Loops))
		for i := range ea.Loops {
			ta[i], tb[i] = ea.Loops[i].SeqTime, eb.Loops[i].SeqTime
		}
		sort.Float64s(ta)
		sort.Float64s(tb)
		for i := range ta {
			if !near(ta[i], tb[i]) {
				return fmt.Errorf("unit %s: loop time %g vs %g", u.Name, ta[i], tb[i])
			}
		}
	}
	return nil
}

func expectMatchesScratch(t *testing.T, s *core.Session, context string) {
	t.Helper()
	if err := s.CheckSourceImage(); err != nil {
		t.Fatalf("%s: %v", context, err)
	}
	fresh, err := core.Open(s.File.Path, s.Save())
	if err != nil {
		t.Fatalf("%s: saved source does not reopen: %v", context, err)
	}
	got, want := sessionDepSignature(s), sessionDepSignature(fresh)
	if len(got) != len(want) {
		t.Fatalf("%s: dependence count diverged: incremental %d, scratch %d\nincremental: %v\nscratch: %v",
			context, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: dependence diverged:\nincremental: %s\nscratch:     %s", context, got[i], want[i])
		}
	}
	if err := sessionPerfClose(s, fresh); err != nil {
		t.Fatalf("%s: perf estimate diverged: %v", context, err)
	}
}

// randomAssignEdit applies one randomized 1:1 edit to an assignment
// statement of the current unit: rewrite it unchanged, replace the
// right-hand side with the left-hand side, or grow the right-hand
// side by adding the left-hand side to it. All three keep the program
// well formed; growth is bounded so printed lines stay within the
// fixed-form width.
func randomAssignEdit(t *testing.T, r *rand.Rand, s *core.Session) string {
	t.Helper()
	var cands []fortran.Stmt
	fortran.WalkStmts(s.CurrentUnit().Body, func(st fortran.Stmt) bool {
		if _, ok := st.(*fortran.AssignStmt); ok {
			cands = append(cands, st)
		}
		return true
	})
	if len(cands) == 0 {
		return ""
	}
	st := cands[r.Intn(len(cands))]
	text := fortran.StmtText(st)
	i := strings.Index(text, " = ")
	if i < 0 {
		return ""
	}
	lhs, rhs := text[:i], text[i+3:]
	var newText string
	switch r.Intn(3) {
	case 0:
		newText = text
	case 1:
		newText = lhs + " = " + lhs
	default:
		if len(text) > 50 {
			newText = text
		} else {
			newText = lhs + " = " + rhs + " + " + lhs
		}
	}
	if err := s.EditStmt(st.ID(), "      "+newText); err != nil {
		t.Fatalf("edit %q: %v", newText, err)
	}
	return newText
}

// randomCallEdit re-types one CALL statement of a random unit that has
// one, with two like actuals swapped or, failing that, an integer
// literal actual changed: the call surface moves, so the program rung,
// and with the patch path enabled the calling unit is patched on it.
func randomCallEdit(t *testing.T, r *rand.Rand, s *core.Session) string {
	t.Helper()
	type site struct {
		unit *fortran.Unit
		call *fortran.CallStmt
	}
	var sites []site
	for _, u := range s.File.Units {
		fortran.WalkStmts(u.Body, func(st fortran.Stmt) bool {
			if c, ok := st.(*fortran.CallStmt); ok && c.Callee != nil {
				sites = append(sites, site{u, c})
			}
			return true
		})
	}
	if len(sites) == 0 {
		return ""
	}
	at := sites[r.Intn(len(sites))]
	args := make([]string, len(at.call.Args))
	for i, a := range at.call.Args {
		args[i] = a.String()
	}
	like := func(a, b fortran.Expr) bool {
		x, okx := a.(*fortran.VarRef)
		y, oky := b.(*fortran.VarRef)
		return okx && oky && len(x.Subs) == 0 && len(y.Subs) == 0 && x.Sym != y.Sym &&
			x.Sym.Kind == y.Sym.Kind && x.Sym.Type == y.Sym.Type && len(x.Sym.Dims) == len(y.Sym.Dims)
	}
	edited := false
swap:
	for i := range args {
		for j := i + 1; j < len(args); j++ {
			if like(at.call.Args[i], at.call.Args[j]) {
				args[i], args[j], edited = args[j], args[i], true
				break swap
			}
		}
	}
	for i, a := range at.call.Args {
		if lit, ok := a.(*fortran.IntLit); ok && !edited {
			args[i], edited = fmt.Sprint(lit.Val+1), true
		}
	}
	if !edited {
		return ""
	}
	text := "call " + at.call.Name + "(" + strings.Join(args, ", ") + ")"
	if err := s.SelectUnit(at.unit.Name); err != nil {
		t.Fatal(err)
	}
	if err := s.EditStmt(at.call.ID(), "      "+text); err != nil {
		t.Fatalf("edit %q: %v", text, err)
	}
	return text
}

// annotateLoops applies to the current unit every transformation that
// only annotates a loop and that its check lets through: reductions
// recognized, each scalar and array privatized, loops parallelized
// outermost first, and the first parallel loop serialized again. It
// returns how many were applied.
func annotateLoops(s *core.Session) int {
	n := 0
	apply := func(args ...string) {
		if tr, err := core.ParseTransformation(s, args); err == nil && s.Check(tr).OK() {
			if _, err := s.Transform(tr); err == nil {
				n++
			}
		}
	}
	for i := range s.Loops() {
		loop := fmt.Sprint(i + 1)
		apply("reductions", loop)
		for _, sym := range s.CurrentUnit().SymbolsSorted() {
			switch sym.Kind {
			case fortran.SymScalar:
				apply("privatize", loop, sym.Name)
			case fortran.SymArray:
				apply("privatize-array", loop, sym.Name)
			}
		}
	}
	n += s.AutoParallelize()
	for i, l := range s.Loops() {
		if l.Do.Parallel {
			apply("serialize", fmt.Sprint(i+1))
			break
		}
	}
	return n
}

// TestIncrementalMatchesScratch is the differential gate on the
// incremental reanalysis path: for every workload, a call-heavy main
// and a main whose subscript constant is assigned under a conditional, run a seeded random sequence of assignment and CALL edits and
// after every single edit require the session to match a from-scratch
// analysis of its saved source; then annotate every loop every way the
// checks allow (a transformation that only annotates a loop is followed
// by no reanalysis, so the scratch session — which parses the
// annotations — shows whether any analysis reads them). All of it with the
// statement-granular step enabled, and again forced to whole-unit
// reanalysis.
func TestIncrementalMatchesScratch(t *testing.T) {
	const editsPerWorkload = 10
	for _, mode := range []struct {
		name      string
		wholeUnit bool
	}{
		{"patch", false},
		{"whole-unit", true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			patchRung, patchedOnProgramRung := 0, 0
			for _, w := range append(workloads.All(), workloads.CallHeavy(24), workloads.CondConst()) {
				r := rand.New(rand.NewSource(int64(len(w.Name)) * 7919))
				s, err := w.Session()
				if err != nil {
					t.Fatalf("%s: %v", w.Name, err)
				}
				s.WholeUnitOnly = mode.wholeUnit
				patches := func() (n int) {
					for _, u := range s.File.Units {
						n += s.StateOf(u).Deps.Patches
					}
					return n
				}
				for e := 0; e < editsPerWorkload; e++ {
					before, text := patches(), ""
					if e%3 == 2 {
						text = randomCallEdit(t, r, s)
					}
					if text == "" {
						text = randomAssignEdit(t, r, s)
					}
					if text == "" {
						break
					}
					switch patched := patches() > before; {
					case patched && mode.wholeUnit:
						t.Errorf("%s edit %d (%s): a WholeUnitOnly session patched a unit", w.Name, e, text)
					case s.LastReanalysis.Mode == "patch":
						patchRung++
					case patched && s.LastReanalysis.Mode == "program":
						patchedOnProgramRung++
					}
					expectMatchesScratch(t, s, fmt.Sprintf("%s edit %d (%s)", w.Name, e, text))
				}
				// The program as edited, and as it was: the edits cost
				// some loops the checks of some annotations.
				pristine, err := w.Session()
				if err != nil {
					t.Fatal(err)
				}
				pristine.WholeUnitOnly = mode.wholeUnit
				for _, s := range []*core.Session{s, pristine} {
					for _, u := range s.File.Units {
						if err := s.SelectUnit(u.Name); err != nil {
							t.Fatal(err)
						}
						if n := annotateLoops(s); n > 0 {
							expectMatchesScratch(t, s, fmt.Sprintf("%s: %d annotations of %s's loops", w.Name, n, u.Name))
						}
					}
				}
			}
			if !mode.wholeUnit && (patchRung == 0 || patchedOnProgramRung == 0) {
				t.Errorf("the statement-granular step ran on the patch rung %d times, on the program rung %d times; want both exercised",
					patchRung, patchedOnProgramRung)
			}
		})
	}
}
