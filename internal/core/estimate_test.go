package core_test

import (
	"fmt"
	"strings"
	"testing"

	"parascope/internal/core"
	"parascope/internal/fortran"
	"parascope/internal/perf"
	"parascope/internal/workloads"
)

// estimateBits renders an estimate with every float exact (%b).
func estimateBits(e *perf.UnitEstimate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %b\n", e.Report(), e.Total)
	for _, l := range e.Loops {
		fmt.Fprintf(&b, "%d %b %b %b %b %b %b\n", l.Loop.Do.ID(), l.Trip, l.BodyCost, l.SeqTime, l.ParTime, l.Speedup, l.Fraction)
	}
	return b.String()
}

// expectFreshEstimates compares the session's cost memo and estimates
// with those of a fresh estimator, which solves each unit's constants
// from its text, warmed in file order as the session's memo is.
func expectFreshEstimates(t *testing.T, s *core.Session, when string) {
	t.Helper()
	fresh := perf.New(s.File, perf.DefaultParams())
	for _, u := range s.File.Units {
		if got, want := s.MemoizedCost(u), fresh.UnitCost(u); got != want {
			t.Errorf("%s: unit %s: memoized cost %b, fresh estimator %b", when, u.Name, got, want)
		}
	}
	for _, u := range s.File.Units {
		st := s.StateOf(u)
		if got, want := estimateBits(st.Est), estimateBits(fresh.EstimateUnit(st.DF)); got != want {
			t.Errorf("%s: unit %s: estimate\n%s\nfresh estimator\n%s", when, u.Name, got, want)
		}
	}
}

// differingUnits counts the units whose text differs between the live
// program and src.
func differingUnits(t *testing.T, s *core.Session, src string) int {
	t.Helper()
	f, err := fortran.Parse("then.f", src)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i, u := range s.File.Units {
		var live, then strings.Builder
		fortran.PrintUnit(&live, u)
		fortran.PrintUnit(&then, f.Units[i])
		if live.String() != then.String() {
			n++
		}
	}
	return n
}

// TestEstimatesMatchFreshEstimator: a session prices each unit from the
// analysis it holds, so a price or an estimate taken before a unit's
// analysis caught up with its text would be stale. After the open and
// after every step of a script — an edit on each rung, an apply, and an
// undo that restores two units — every unit's memoized per-call cost and
// its estimate must be a fresh estimator's, bit for bit. The programs
// call leaves from a main, run through a recursion cycle, and call
// through a unit that forwards to another.
func TestEstimatesMatchFreshEstimator(t *testing.T) {
	type step struct {
		name string
		do   func(s *core.Session) error
		mode string
	}
	edit := func(unit, find, text string) func(*core.Session) error {
		return func(s *core.Session) error {
			if err := s.SelectUnit(unit); err != nil {
				return err
			}
			var id int
			fortran.WalkStmts(s.CurrentUnit().Body, func(st fortran.Stmt) bool {
				if id == 0 && strings.HasPrefix(fortran.StmtText(st), find) {
					id = st.ID()
				}
				return id == 0
			})
			if id == 0 {
				return fmt.Errorf("no statement %q in %s", find, unit)
			}
			return s.EditStmt(id, "      "+text)
		}
	}
	apply := func(unit string, args ...string) func(*core.Session) error {
		return func(s *core.Session) error {
			if err := s.SelectUnit(unit); err != nil {
				return err
			}
			tr, err := core.ParseTransformation(s, args)
			if err != nil {
				return err
			}
			_, err = s.Transform(tr)
			return err
		}
	}
	for _, c := range []struct {
		name, src string
		steps     []step
	}{
		{"callheavy", workloads.CallHeavy(24).Source, []step{
			{"edit, patch rung", edit("main", "s = 0.5", "s = 0.75"), "patch"},
			{"edit, unit rung", edit("add", "x(j) = ", "x(j) = x(j) + y(j)*0.25"), "unit"},
			{"edit, unit rung, whole unit", edit("add", "x(j) = ", "do i = 1, 4\n         x(j) = x(j) + y(j)*0.25\n      enddo"), "unit"},
			{"edit, program rung", edit("main", "call add(a, b, n)", "call scale(a, b, n)"), "program"},
			{"apply", apply("main", "reverse", "1"), "unit"},
		}},
		// The cycle has no loop to transform.
		{"cycle", twoUnitCycle, []step{
			{"edit, patch rung", edit("main", "print *, n", "print *, n, n"), "patch"},
			{"edit, unit rung", edit("down", "k = k - 1", "k = k - 2"), "unit"},
			{"edit, unit rung, whole unit", edit("down", "call up(k)", "do j = 1, 4\n         call up(k)\n      enddo"), "unit"},
			{"edit, program rung", edit("main", "call up(n)", "call down(n)"), "program"},
		}},
		{"image", core.ImageSrc, []step{
			{"edit, patch rung", edit("main", "t = b(i)", "t = b(i)*3.0"), "patch"},
			{"edit, unit rung", edit("h", "x(k) = ", "x(k) = y(k) + 2.0"), "unit"},
			{"edit, unit rung, whole unit", edit("h", "x(k) = ", "do j = 1, 4\n         x(k) = y(k) + 2.0\n      enddo"), "unit"},
			{"edit, program rung", edit("main", "call f(a, b, i)", "call g(a, b, i)"), "program"},
			{"apply", apply("main", "parallelize", "1"), "unit"},
		}},
	} {
		s, err := core.Open(c.name+".f", c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		pristine := s.Save()
		expectFreshEstimates(t, s, c.name+": open")
		for _, st := range c.steps {
			if err := st.do(s); err != nil {
				t.Fatalf("%s: %s: %v", c.name, st.name, err)
			}
			if got := s.LastReanalysis.Mode; got != st.mode {
				t.Errorf("%s: %s took the %q rung, want %q", c.name, st.name, got, st.mode)
			}
			expectFreshEstimates(t, s, c.name+": "+st.name)
		}
		if n := differingUnits(t, s, pristine); n != 2 {
			t.Fatalf("%s: the script changed %d units, want 2 for the undo to restore", c.name, n)
		}
		s.SetUndoStack([]string{pristine})
		if err := s.Undo(); err != nil {
			t.Fatalf("%s: undo: %v", c.name, err)
		}
		if s.Save() != pristine {
			t.Errorf("%s: the undo did not restore the program", c.name)
		}
		expectFreshEstimates(t, s, c.name+": undo of two units")
	}
}
