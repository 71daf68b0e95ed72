package dataflow_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"parascope/internal/dataflow"
	"parascope/internal/fortran"
	"parascope/internal/interproc"
	"parascope/internal/workloads"
)

// callsOut is a program whose calls kill constants under conservative
// effects that the interprocedural ones keep: a scalar passed to a unit
// that only reads it bounds a loop after the call, a COMMON scalar bounds
// one after a call that writes it, a function is invoked in
// expressions, and two units form a recursion cycle.
const callsOut = `
      program main
      integer n, m, i
      real a(100), s
      common /blk/ m
      n = 10
      m = 20
      call show(n)
      do i = 1, n
         a(i) = 1.0
      enddo
      call up(n)
      do i = 1, n
         a(i) = f(a, i)
      enddo
      s = f(a, n)
      do i = 1, m
         a(i) = 0.5
      enddo
      print *, s, a(1)
      end
      subroutine up(k)
      integer k, m, j
      real b(10)
      common /blk/ m
      m = 5
      do j = 1, m
         b(j) = 1.0
      enddo
      if (k .gt. 0) call down(k)
      end
      subroutine down(k)
      integer k
      k = k - 1
      call up(k)
      end
      subroutine show(k)
      integer k
      print *, k
      end
      real function f(x, i)
      integer i, c
      real x(100)
      c = 4
      f = x(i) * c
      end
`

// constants renders what a constants-only analysis answers about its
// unit: per statement the accesses and the constants at its entry, and
// the trip count of every loop.
func constants(a *dataflow.Analysis) string {
	var b strings.Builder
	syms := a.Unit.SymbolsSorted()
	fortran.WalkStmts(a.Unit.Body, func(s fortran.Stmt) bool {
		fmt.Fprintf(&b, "#%d %s |", s.ID(), fortran.StmtText(s))
		for _, ac := range a.Accesses(s) {
			fmt.Fprintf(&b, " %s/%v/%v", ac.Sym.Name, ac.Write, ac.Partial)
		}
		consts := a.ConstsAt(s)
		n := 0
		for _, sym := range syms {
			if v, ok := consts.Value(sym); ok {
				fmt.Fprintf(&b, " %s=%d", sym.Name, v)
				n++
			}
		}
		if n != len(consts) {
			fmt.Fprintf(&b, " (%d entries)", len(consts))
		}
		if do, ok := s.(*fortran.DoStmt); ok {
			trip, known := a.TripCount(a.Tree.LoopOf(do))
			fmt.Fprintf(&b, " trip %d/%v", trip, known)
		}
		b.WriteByte('\n')
		return true
	})
	return b.String()
}

// TestConservativeConstantsMatchSolve: the conservative constants a unit
// is priced from, read off an analysis under interprocedural effects or
// under conservative ones, must be what a constants-only solve under
// conservative effects answers — on every unit of the suite, of a
// call-heavy main, of a program with a conditional constant and of one
// with a COMMON bound, a function and a recursion cycle; and again after
// PatchStmt has swapped a CALL in for another statement, and after it
// has swapped the CALL back out.
func TestConservativeConstantsMatchSolve(t *testing.T) {
	ws := append(workloads.All(), workloads.CallHeavy(24), workloads.CondConst(),
		&workloads.Workload{Name: "callsout", Source: callsOut})
	shared, viewed, differ, swappedIn, swappedOut := 0, 0, 0, 0, 0
	for _, w := range ws {
		f := w.MustParse()
		f.RenumberStmts()
		eff := &interproc.Effects{Prog: interproc.AnalyzeProgram(f)}
		r := rand.New(rand.NewSource(int64(len(w.Source))))
		check := func(a *dataflow.Analysis, context string) {
			t.Helper()
			if got, want := constants(a.ConservativeConstants()), constants(dataflow.AnalyzeConstants(a.Unit, nil)); got != want {
				t.Fatalf("%s: conservative constants\n%s\nsolved\n%s", context, got, want)
			}
		}
		for _, u := range f.Units {
			context := w.Name + "/" + u.Name
			a := dataflow.Analyze(u, eff)
			if v := a.ConservativeConstants(); v == a {
				shared++
			} else {
				viewed++
				if constants(v) != constants(a) {
					differ++
				}
			}
			check(a, context)
			if c := dataflow.Analyze(u, nil); c.ConservativeConstants() != c {
				t.Errorf("%s: an analysis under conservative effects is not its own conservative constants", context)
			}

			var calls, others []fortran.Stmt
			fortran.WalkStmts(u.Body, func(s fortran.Stmt) bool {
				switch {
				case !dataflow.SimpleStmt(s) || fortran.StmtLabel(s) != 0:
				case dataflow.CallsUser(s):
					calls = append(calls, s)
				default:
					others = append(others, s)
				}
				return true
			})
			if len(calls) == 0 || len(others) == 0 {
				continue
			}
			for trial := 0; trial < 8; trial++ {
				old, donor := others[r.Intn(len(others))], calls[r.Intn(len(calls))]
				call, err := fortran.ParseStmtIn(f, u, "      "+fortran.StmtText(donor))
				if err != nil {
					t.Fatalf("%s: %q does not parse back: %v", context, fortran.StmtText(donor), err)
				}
				a := dataflow.Analyze(u, eff)
				replaceStmt(u.Body, old, call)
				f.RenumberStmts()
				swap := fmt.Sprintf("%s: %q replaced by %q", context, fortran.StmtText(old), fortran.StmtText(call))
				in := a.PatchStmt(old, call, eff, nil)
				if in {
					swappedIn++
					check(a, swap)
				}
				replaceStmt(u.Body, call, old)
				f.RenumberStmts()
				if in && a.PatchStmt(call, old, eff, nil) {
					swappedOut++
					check(a, swap+" and back")
				}
			}
		}
	}
	report := fmt.Sprintf("%d units answered by their own analysis, %d by a view (%d knowing less than their analysis), %d calls swapped in and %d out",
		shared, viewed, differ, swappedIn, swappedOut)
	if shared == 0 || differ == 0 || swappedIn < 20 || swappedOut < 20 {
		t.Errorf("%s; want some of each, and plenty of swaps", report)
	}
	t.Log(report)
}
