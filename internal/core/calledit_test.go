package core_test

// The statement-granular step on the unit and program rungs: a CALL
// edited in a main of two hundred calls re-tests the pairs it touched
// and no others, and every reason the step has to decline ends in the
// whole-unit analysis — both indistinguishable from a fresh Open.

import (
	"strings"
	"testing"

	"parascope/internal/core"
	"parascope/internal/fortran"
	"parascope/internal/workloads"
)

// stmtByText returns the current unit's first statement printing as
// text.
func stmtByText(t *testing.T, s *core.Session, text string) fortran.Stmt {
	t.Helper()
	var found fortran.Stmt
	fortran.WalkStmts(s.CurrentUnit().Body, func(st fortran.Stmt) bool {
		if found == nil && fortran.StmtText(st) == text {
			found = st
		}
		return found == nil
	})
	if found == nil {
		t.Fatalf("no statement %q in %s", text, s.CurrentUnit().Name)
	}
	return found
}

// TestCallEditRetestsIncidentPairsOnly: on a main of 200 calls in one
// loop a CALL edit lands on the program rung and costs the pairs of that CALL; and
// the step's envelope is what it says — edits inside it are patched on
// whichever rung they take, edits outside it are analyzed whole.
func TestCallEditRetestsIncidentPairsOnly(t *testing.T) {
	t.Run("main of 200 calls", callHeavyEdits)
	t.Run("envelope", patchEnvelope)
}

// callHeavyInLoop is workloads.CallHeavy with main's calls wrapped in
// one outer DO loop: the analysis pairs only references that share a
// loop, so outside it the calls would pair with nothing.
func callHeavyInLoop(t *testing.T, calls int) *workloads.Workload {
	w := workloads.CallHeavy(calls)
	src := w.Source
	first, last := strings.Index(src, "      call "), strings.Index(src, "      print *")
	if first < 0 || last < first {
		t.Fatalf("CallHeavy(%d) has no calls before its print", calls)
	}
	w.Source = strings.Replace(src[:first], "integer i, n", "integer i, n, k", 1) +
		"      do k = 1, 2\n" + src[first:last] + "      enddo\n" + src[last:]
	return w
}

func callHeavyEdits(t *testing.T) {
	s, err := callHeavyInLoop(t, 200).Session()
	if err != nil {
		t.Fatal(err)
	}
	main := s.CurrentUnit()
	full := s.StateOf(main).Deps.Stats.PairsTested
	edges := len(s.StateOf(main).Deps.Deps)
	if full < 10000 {
		t.Fatalf("main tests only %d pairs; the program is not call-heavy", full)
	}
	// A call in the middle, its two arrays swapped, and back.
	call := stmtByText(t, s, "call add(a, b, n)")
	n := 0
	fortran.WalkStmts(main.Body, func(st fortran.Stmt) bool {
		if fortran.StmtText(st) == "call add(a, b, n)" {
			if n++; n == 33 {
				call = st
			}
		}
		return true
	})
	for i, text := range []string{"call add(b, a, n)", "call add(a, b, n)"} {
		before := s.StateOf(main).Deps.Stats.PairsTested
		if err := s.EditStmt(call.ID(), "      "+text); err != nil {
			t.Fatal(err)
		}
		st := s.StateOf(main)
		if s.LastReanalysis.Mode != "program" {
			t.Fatalf("%s took the %q rung, want program", text, s.LastReanalysis.Mode)
		}
		if st.Deps.Patches != i+1 {
			t.Fatalf("%s: main's graph has seen %d patches, want %d: the edit analyzed the unit whole", text, st.Deps.Patches, i+1)
		}
		if grew := st.Deps.Stats.PairsTested - before; grew == 0 || grew*50 > full {
			t.Errorf("%s tested %d pairs; a full run of main tests %d, and the edit may cost at most 2%% of that", text, grew, full)
		}
		core.ExpectFresh(t, s, text)
		call = stmtByText(t, s, text)
	}
	if got := len(s.StateOf(main).Deps.Deps); got != edges {
		t.Errorf("main has %d edges after the swap and its reverse, %d before", got, edges)
	}
	// Retargeting a call and changing a constant actual move other
	// units' inputs; main itself is still patched.
	for _, e := range [][2]string{
		{"call add(a, b, n)", "call scale(a, b, n)"},
		{"call scale(b, c, n)", "call scale(b, c, 32)"},
	} {
		patches := s.StateOf(main).Deps.Patches
		if err := s.EditStmt(stmtByText(t, s, e[0]).ID(), "      "+e[1]); err != nil {
			t.Fatal(err)
		}
		if s.LastReanalysis.Mode != "program" || s.StateOf(main).Deps.Patches != patches+1 {
			t.Errorf("%s: rung %s, %d patches of main, want program and %d",
				e[1], s.LastReanalysis.Mode, s.StateOf(main).Deps.Patches, patches+1)
		}
		core.ExpectFresh(t, s, e[1])
		if err := s.Undo(); err != nil {
			t.Fatal(err)
		}
		core.ExpectFresh(t, s, "undo of "+e[1])
	}
}

// declineSrc has, for each reason the statement-granular step has to
// decline, a statement whose edit moves what a reference pair elsewhere
// reads — a patch that went ahead would keep that pair's stale verdict —
// and some statements whose edits move nothing of the kind.
const declineSrc = `
      program main
      integer i, k, m, n
      real a(200), b(200), s
      common /blk/ g
      real g
      n = 50
      m = 0
      s = 0.0
      do i = 1, n
         a(i) = a(i + 60)*0.5
         m = m + 2
         s = s + 1.0
         b(i + k) = b(i + k) + s
      enddo
      call bump(a, m)
      g = 1.0
      a(k) = 2.0
      if (s .gt. 1.0) goto 10
      b(1) = a(k)
   10 b(2) = 1.0
      call put(b, 3)
      print *, a(1), b(2), m
      end
      subroutine bump(x, j)
      integer j
      real x(200)
      common /blk/ g
      real g
      j = j + 1
      x(j) = g
      end
      subroutine put(x, j)
      integer j
      real x(200)
      x(j) = 2.0
      end
`

func patchEnvelope(t *testing.T) {
	for _, c := range []struct {
		name, unit, old, text string
		patched               bool
		rung                  string
	}{
		// Patched: nothing another pair reads moves.
		{"integer scalar, not a constant", "main", "m = m + 2", "m = m + 3", true, "patch"},
		{"integer scalar, same constant", "main", "n = 50", "n = 25*2", true, "patch"},
		{"call writing an integer scalar", "main", "call bump(a, m)", "call bump(b, m)", true, "program"},
		{"caller-visible scalar", "bump", "x(j) = g", "x(j) = g*2.0", true, "unit"},
		{"caller-visible write", "put", "x(j) = 2.0", "x(j + 1) = 2.0", true, "program"},
		// Declined, each for its own reason.
		// n bounds the loop: at 70 a(i) and a(i + 60) overlap.
		{"constants at another statement", "main", "n = 50", "n = 70", false, "unit"},
		// With k assigned somewhere, a(k) = … and … = a(k) outside any
		// loop need not name one element.
		{"integer scalars defined in the unit", "main", "g = 1.0", "k = m", false, "unit"},
		// With k assigned in the loop, b(i + k) moves between iterations.
		{"scalars written in an enclosing loop", "main", "s = s + 1.0", "k = i", false, "unit"},
		// The goto loses its target.
		{"a label", "main", "b(2) = 1.0", "b(2) = 1.0", false, "unit"},
		{"the loop structure", "main", "b(1) = a(k)", "do k = 1, 2\n         b(k) = a(m)\n      enddo", false, "unit"},
		{"a branch", "main", "b(1) = a(k)", "if (s .lt. 0.0) b(1) = a(k)", false, "unit"},
		{"the unit's constant formals", "put", "x(j) = 2.0", "call put(x, 4)", false, "program"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := core.Open("decline.f", declineSrc)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SelectUnit(c.unit); err != nil {
				t.Fatal(err)
			}
			text := "      " + c.text
			if c.name == "a label" {
				text = "   20 " + c.text
			}
			if err := s.EditStmt(stmtByText(t, s, c.old).ID(), text); err != nil {
				t.Fatal(err)
			}
			if got := s.StateOf(s.CurrentUnit()).Deps.Patches == 1; got != c.patched {
				t.Errorf("patched = %v, want %v", got, c.patched)
			}
			if s.LastReanalysis.Mode != c.rung {
				t.Errorf("took the %q rung, want %s", s.LastReanalysis.Mode, c.rung)
			}
			if !c.patched {
				// A declined step is the whole-unit path and says so: the
				// rung is the one a session that never patches reports.
				whole, err := core.Open("decline.f", declineSrc)
				if err != nil {
					t.Fatal(err)
				}
				whole.WholeUnitOnly = true
				if err := whole.SelectUnit(c.unit); err != nil {
					t.Fatal(err)
				}
				if err := whole.EditStmt(stmtByText(t, whole, c.old).ID(), text); err != nil {
					t.Fatal(err)
				}
				if whole.LastReanalysis.Mode != s.LastReanalysis.Mode {
					t.Errorf("took the %q rung, a WholeUnitOnly session %q", s.LastReanalysis.Mode, whole.LastReanalysis.Mode)
				}
			}
			core.ExpectFresh(t, s, c.name)
			if err := s.Undo(); err != nil {
				t.Fatal(err)
			}
			core.ExpectFresh(t, s, "undo of "+c.name)
			if strings.TrimSpace(s.Save()) != strings.TrimSpace(fortran.Print(mustParse(t, declineSrc))) {
				t.Error("the undo did not land on the program's text")
			}
		})
	}
}

func mustParse(t *testing.T, src string) *fortran.File {
	t.Helper()
	f, err := fortran.Parse("decline.f", src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
