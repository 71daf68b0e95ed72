// Regression tests for the incremental reanalysis path: edit-stable
// dependence marking (marks must survive edits that shift line
// numbers, and stale marks must never attach to a different
// dependence), and escalation after edits that change a unit's call
// surface or caller-visible summary (the incremental result must
// match a from-scratch analysis).
package core

import (
	"strings"
	"testing"

	"parascope/internal/dep"
	"parascope/internal/fortran"
	"parascope/internal/xform"
)

// findAssign returns the first assignment statement in the current
// unit whose printed text contains substr.
func findAssign(t *testing.T, s *Session, substr string) fortran.Stmt {
	t.Helper()
	var found fortran.Stmt
	fortran.WalkStmts(s.CurrentUnit().Body, func(st fortran.Stmt) bool {
		if found == nil {
			if _, ok := st.(*fortran.AssignStmt); ok && strings.Contains(fortran.StmtText(st), substr) {
				found = st
			}
		}
		return true
	})
	if found == nil {
		t.Fatalf("no assignment containing %q in %s", substr, s.CurrentUnit().Name)
	}
	return found
}

// carriedDep returns the single carried dependence on sym in loop n.
func carriedDep(t *testing.T, s *Session, n int, sym string) *dep.Dependence {
	t.Helper()
	if err := s.SelectLoop(n); err != nil {
		t.Fatal(err)
	}
	deps := s.SelectionDeps(DepFilter{CarriedOnly: true, Sym: sym})
	if len(deps) == 0 {
		t.Fatalf("no carried deps on %s in loop %d", sym, n)
	}
	return deps[0]
}

// TestMarkSurvivesEditAboveMarkedLoop pins the first half of the
// stale-marking bug: dependence marks were keyed by line number, so
// editing or deleting a statement *above* the marked loop — which
// renumbers everything below — silently dropped the mark.
func TestMarkSurvivesEditAboveMarkedLoop(t *testing.T) {
	s := open(t, `
      program main
      integer i, m
      real t, x(100)
      read(*,*) m
      t = 1.0
      t = t + 1.0
      do i = 1, 100
         x(i) = x(i+m)
      enddo
      print *, t
      end
`)
	d := carriedDep(t, s, 1, "x")
	if err := s.MarkDep(d.ID, dep.MarkRejected); err != nil {
		t.Fatal(err)
	}

	// Edit a statement above the loop (1:1, takes the patch path).
	if err := s.EditStmt(findAssign(t, s, "t = 1.0").ID(), "t = 2.0"); err != nil {
		t.Fatal(err)
	}
	if d := carriedDep(t, s, 1, "x"); d.Mark != dep.MarkRejected {
		t.Errorf("mark lost after edit above the loop: %v", d.Mark)
	}

	// Delete a statement above the loop (whole-unit reanalysis; every
	// statement below shifts position).
	if err := s.DeleteStmt(findAssign(t, s, "t + 1.0").ID()); err != nil {
		t.Fatal(err)
	}
	if d := carriedDep(t, s, 1, "x"); d.Mark != dep.MarkRejected {
		t.Errorf("mark lost after delete above the loop: %v", d.Mark)
	}
}

// TestStaleMarkCannotMisattach pins the second, worse half of the
// bug: statements produced by an edit all carry the parser's local
// line numbers, so under line-number keys two edited statements in
// *different* loops collide and a mark made on one loop's dependence
// silently bled onto the other's.
func TestStaleMarkCannotMisattach(t *testing.T) {
	s := open(t, `
      program main
      integer i
      real x(200)
      do i = 2, 100
         x(i) = x(i-1)
      enddo
      do i = 102, 200
         x(i) = x(i-1)
      enddo
      end
`)
	// Replace both loops' bodies with textually identical edits: the
	// two new statements get identical (parser-local) line numbers.
	if err := s.SelectLoop(1); err != nil {
		t.Fatal(err)
	}
	if err := s.EditStmt(s.SelectedLoop().Do.Body[0].ID(), "x(i) = x(i-1)"); err != nil {
		t.Fatal(err)
	}
	d1 := carriedDep(t, s, 1, "x")
	if err := s.MarkDep(d1.ID, dep.MarkAccepted); err != nil {
		t.Fatal(err)
	}
	if err := s.SelectLoop(2); err != nil {
		t.Fatal(err)
	}
	if err := s.EditStmt(s.SelectedLoop().Do.Body[0].ID(), "x(i) = x(i-1)"); err != nil {
		t.Fatal(err)
	}
	// Loop 2's dependence has the same symbol, class, level and (old
	// scheme) line numbers as the marked one — it must NOT inherit the
	// mark.
	if d2 := carriedDep(t, s, 2, "x"); d2.Mark == dep.MarkAccepted {
		t.Error("mark made on loop 1's dependence bled onto loop 2's")
	}
	if d1 := carriedDep(t, s, 1, "x"); d1.Mark != dep.MarkAccepted {
		t.Errorf("loop 1's own mark lost: %v", d1.Mark)
	}
}

const callSrc = `
      program main
      integer i
      real a(300), b(300)
      do i = 1, 100
         call f(a, b, i)
      enddo
      end
      subroutine f(x, y, k)
      integer k
      real x(300), y(300)
      x(k) = y(k) + 1.0
      end
      subroutine g(x, y, k)
      integer k
      real x(300), y(300)
      x(k) = x(k+100) + y(k)
      end
`

// TestCalleeSummaryEditEscalates pins the second stale-analysis bug:
// ReanalyzeUnit used to reuse the old interprocedural facts after
// *every* edit, so an edit inside a callee that changed its side
// effects left callers' dependence graphs and performance estimates
// stale. An edit that changes the callee's visible summary must
// escalate to a program-level update and leave the session equal to a
// from-scratch analysis.
func TestCalleeSummaryEditEscalates(t *testing.T) {
	s := open(t, callSrc)
	if err := s.SelectUnit("f"); err != nil {
		t.Fatal(err)
	}
	// Before the edit the call loop is parallel: f writes only x(k).
	if err := s.SelectUnit("main"); err != nil {
		t.Fatal(err)
	}
	if v := s.Check(xform.Parallelize{Do: s.Loops()[0].Do}); !v.Safe {
		t.Fatalf("call loop should start parallel: %s", v)
	}
	if err := s.SelectUnit("f"); err != nil {
		t.Fatal(err)
	}
	// f now also reads x(k-1): iteration k of the caller's loop reads
	// what iteration k-1 wrote — a carried dependence the caller's
	// graph must learn about.
	if err := s.EditStmt(findAssign(t, s, "y(k)").ID(), "x(k) = x(k-1) + 1.0"); err != nil {
		t.Fatal(err)
	}
	if s.LastReanalysis.Mode != "program" {
		t.Errorf("summary-changing edit took the %q path, want program", s.LastReanalysis.Mode)
	}
	if err := s.SelectUnit("main"); err != nil {
		t.Fatal(err)
	}
	if v := s.Check(xform.Parallelize{Do: s.Loops()[0].Do}); v.Safe {
		t.Error("caller's loop still parallel after the callee grew a cross-iteration read")
	}
	ExpectFresh(t, s, t.Name())
}

// TestCalleeNeutralEditStaysUnitLevel: an edit inside a callee that
// leaves its visible summary unchanged must NOT pay for a program
// rebuild.
func TestCalleeNeutralEditStaysUnitLevel(t *testing.T) {
	s := open(t, callSrc)
	if err := s.SelectUnit("f"); err != nil {
		t.Fatal(err)
	}
	if err := s.EditStmt(findAssign(t, s, "y(k)").ID(), "x(k) = y(k) + 2.0"); err != nil {
		t.Fatal(err)
	}
	if s.LastReanalysis.Mode != "unit" {
		t.Errorf("summary-neutral edit took the %q path, want unit", s.LastReanalysis.Mode)
	}
	ExpectFresh(t, s, t.Name())
}

// TestUncalledUnitSummaryIsRecomputedBeforeItIsCalled: nobody reads the
// summary of a unit nobody calls, so an edit of g — which callSrc's main
// never calls — stays on the unit rung without recomputing it, however
// often it is edited and undone. The interprocedural update that first
// adds a call of g must not carry that summary over as if g's text had
// not moved: it recomputes the summary of every unit that had no caller.
func TestUncalledUnitSummaryIsRecomputedBeforeItIsCalled(t *testing.T) {
	s := open(t, callSrc)
	selectUnit(t, s, "g")
	// g comes to read x(k-1): called from main's loop, iteration k would
	// read what iteration k-1 of a caller passing the same array wrote.
	// Twice edited and once undone, g's text is the first edit's.
	for _, step := range []struct{ find, text string }{
		{"x(k + 100)", "x(k) = x(k-1) + y(k)"},
		{"x(k - 1)", "x(k) = x(k+200) + y(k)"},
		{"", "undo"},
	} {
		if step.text == "undo" {
			if err := s.Undo(); err != nil {
				t.Fatal(err)
			}
		} else if err := s.EditStmt(findAssign(t, s, step.find).ID(), step.text); err != nil {
			t.Fatal(err)
		}
		if s.LastReanalysis.Mode == "program" {
			t.Fatalf("%s: a change of an uncalled unit took the program rung", step.text)
		}
		ExpectFresh(t, s, step.text)
	}
	if got := fortran.StmtText(findAssign(t, s, "x(k - 1)")); got != "x(k) = x(k - 1) + y(k)" {
		t.Fatalf("after the undo g assigns %q", got)
	}
	selectUnit(t, s, "main")
	call := s.Loops()[0].Do.Body[0]
	if err := s.EditStmt(call.ID(), "      call g(a, b, i)"); err != nil {
		t.Fatal(err)
	}
	if v := s.Check(xform.Parallelize{Do: s.Loops()[0].Do}); v.Safe {
		t.Error("main's loop parallel over calls of g as it was before its edits")
	}
	ExpectFresh(t, s, t.Name())
}

// TestStatementCountChangeAboveLeavesLaterUnitsAnswering: statement IDs
// are positions in the file, so deleting a statement of main renumbers
// every statement of the units after it. Their analyses, which nothing
// rebuilt, must still find their statements.
func TestStatementCountChangeAboveLeavesLaterUnitsAnswering(t *testing.T) {
	s := open(t, `
      program main
      real a(100), t
      t = 1.0
      t = t + 1.0
      call f(a)
      end
      subroutine f(x)
      integer i
      real x(100), s
      do i = 1, 100
         s = x(i)*2.0
         x(i) = s + 1.0
      enddo
      end
`)
	if err := s.DeleteStmt(findAssign(t, s, "t + 1.0").ID()); err != nil {
		t.Fatal(err)
	}
	selectUnit(t, s, "f")
	st := s.State()
	loop := st.DF.Tree.All[0]
	if res := st.DF.Privatizable(loop, s.CurrentUnit().Lookup("s")); !res.Privatizable {
		t.Errorf("s is assigned before use in every iteration, yet: %+v", res)
	}
	for _, x := range loop.Stmts() {
		if len(st.DF.Accesses(x)) == 0 {
			t.Errorf("no accesses found for %q", fortran.StmtText(x))
		}
	}
	if v := s.Check(xform.Parallelize{Do: loop.Do}); !v.Safe {
		t.Errorf("f's loop is parallel with s private: %s", v)
	}
}

// TestCallRetargetEscalates: retargeting a CALL changes the caller's
// call surface; the old code reused the stale call graph and the
// caller kept analysis results for the *previous* callee.
func TestCallRetargetEscalates(t *testing.T) {
	s := open(t, callSrc)
	var call fortran.Stmt
	fortran.WalkStmts(s.CurrentUnit().Body, func(st fortran.Stmt) bool {
		if _, ok := st.(*fortran.CallStmt); ok && call == nil {
			call = st
		}
		return true
	})
	if call == nil {
		t.Fatal("no call statement in main")
	}
	if err := s.EditStmt(call.ID(), "      call g(a, b, i)"); err != nil {
		t.Fatal(err)
	}
	if s.LastReanalysis.Mode != "program" {
		t.Errorf("call retarget took the %q path, want program", s.LastReanalysis.Mode)
	}
	ExpectFresh(t, s, t.Name())
}

// TestColumnOneCallEdit: interactive edit text arrives at column 1,
// where fixed-form lexing would read "call ..." as a comment line.
// The parser must still accept it (the REPL's edit verb joins its
// arguments with single spaces, so it can never supply the six-space
// indent itself).
func TestColumnOneCallEdit(t *testing.T) {
	s := open(t, callSrc)
	var call fortran.Stmt
	fortran.WalkStmts(s.CurrentUnit().Body, func(st fortran.Stmt) bool {
		if _, ok := st.(*fortran.CallStmt); ok && call == nil {
			call = st
		}
		return true
	})
	if call == nil {
		t.Fatal("no call statement in main")
	}
	if err := s.EditStmt(call.ID(), "call g(a, b, i)"); err != nil {
		t.Fatalf("column-1 call edit rejected: %v", err)
	}
	if s.LastReanalysis.Mode != "program" {
		t.Errorf("call retarget took the %q path, want program", s.LastReanalysis.Mode)
	}
	ExpectFresh(t, s, t.Name())
}

// TestConstArgEditEscalates: changing a constant actual changes the
// constant formals propagated into the callee — the callee's own
// dependence graph must be recomputed even though its text never
// changed.
func TestConstArgEditEscalates(t *testing.T) {
	s := open(t, `
      program main
      real a(300)
      call f(a, 200)
      end
      subroutine f(x, n)
      integer n, i
      real x(300)
      do i = 1, 100
         x(i) = x(i+n)
      enddo
      end
`)
	if err := s.SelectUnit("f"); err != nil {
		t.Fatal(err)
	}
	// With n = 200 the read x(i+200) never overlaps the writes.
	if v := s.Check(xform.Parallelize{Do: s.Loops()[0].Do}); !v.Safe {
		t.Fatalf("with n = 200 the loop should be parallel: %s", v)
	}
	if err := s.SelectUnit("main"); err != nil {
		t.Fatal(err)
	}
	var call fortran.Stmt
	fortran.WalkStmts(s.CurrentUnit().Body, func(st fortran.Stmt) bool {
		if _, ok := st.(*fortran.CallStmt); ok && call == nil {
			call = st
		}
		return true
	})
	if err := s.EditStmt(call.ID(), "      call f(a, 1)"); err != nil {
		t.Fatal(err)
	}
	if s.LastReanalysis.Mode != "program" {
		t.Errorf("constant-actual edit took the %q path, want program", s.LastReanalysis.Mode)
	}
	if err := s.SelectUnit("f"); err != nil {
		t.Fatal(err)
	}
	if v := s.Check(xform.Parallelize{Do: s.Loops()[0].Do}); v.Safe {
		t.Error("with n = 1 the loop carries a dependence; callee analysis is stale")
	}
	ExpectFresh(t, s, t.Name())
}

// TestPatchPathMatchesScratch drives the statement-granular fast path
// directly and checks full equivalence after every patch.
func TestPatchPathMatchesScratch(t *testing.T) {
	s := open(t, sessionSrc)
	edits := []struct{ find, text string }{
		{"t = a(i)*2.0", "t = a(i)*3.0 + 1.0"},
		{"s = s + t", "s = s + t*2.0"},
		{"b(i) = t + 1.0", "b(i) = t"},
		{"t = a(i)*3.0", "t = a(i)*2.0"},
	}
	for _, e := range edits {
		if err := s.EditStmt(findAssign(t, s, e.find).ID(), e.text); err != nil {
			t.Fatalf("edit %q: %v", e.text, err)
		}
		if s.LastReanalysis.Mode != "patch" {
			t.Fatalf("edit %q took the %q path, want patch", e.text, s.LastReanalysis.Mode)
		}
		ExpectFresh(t, s, e.text)
	}
}

// TestWholeUnitOnlyDisablesPatch: the benchmark-baseline knob must
// force the whole-unit path for the same edits.
func TestWholeUnitOnlyDisablesPatch(t *testing.T) {
	s := open(t, sessionSrc)
	s.WholeUnitOnly = true
	if err := s.EditStmt(findAssign(t, s, "t = a(i)*2.0").ID(), "t = a(i)*3.0"); err != nil {
		t.Fatal(err)
	}
	if s.LastReanalysis.Mode == "patch" {
		t.Error("WholeUnitOnly session still took the patch path")
	}
	ExpectFresh(t, s, t.Name())
}

// TestCheapRungsOnRecursiveProgram: an edit inside a call cycle, on the
// patch and on the unit rung, leaves every unit's estimate — its total
// and each loop's sequential and parallel time — equal to a fresh open
// of the edited text. Here x and y call each other, so a call within the
// cycle costs its overhead alone; main reaches the cycle directly and
// through p. The edit of x drops the memoised prices of x and its
// transitive callers, which take in y, p and main, and each is priced
// again from the call graph's components as a fresh estimator prices it.
func TestCheapRungsOnRecursiveProgram(t *testing.T) {
	const src = `
      program main
      real a(10)
      call x(a)
      call p(a)
      end
      subroutine p(v)
      real v(10)
      call y(v)
      end
      subroutine x(v)
      real v(10), loc
      integer i
      loc = 1.0
      do i = 1, 10
         v(i) = v(i) + 1.0
      enddo
      call y(v)
      end
      subroutine y(v)
      real v(10)
      v(1) = 1.0
      call x(v)
      end
`
	for _, c := range []struct {
		rung, old, text string
	}{
		{"patch", "loc = 1.0", "      loc = 1.0 + 2.0*3.0"},
		{"unit", "v(i) = v(i) + 1.0", "         v(i) = v(i) + 1.0 + 2.0*3.0"},
	} {
		t.Run(c.rung, func(t *testing.T) {
			s := open(t, src)
			selectUnit(t, s, "x")
			id := 0
			fortran.WalkStmts(s.CurrentUnit().Body, func(st fortran.Stmt) bool {
				if fortran.StmtText(st) == c.old {
					id = st.ID()
				}
				return true
			})
			if id == 0 {
				t.Fatalf("no statement %q in x", c.old)
			}
			if err := s.EditStmt(id, c.text); err != nil {
				t.Fatal(err)
			}
			if s.LastReanalysis.Mode != c.rung {
				t.Fatalf("edit took the %q rung, want %s", s.LastReanalysis.Mode, c.rung)
			}
			fresh, err := Open(s.File.Path, s.Save())
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range s.File.Units {
				got, want := s.EstimateOf(u), fresh.EstimateOf(fresh.File.Unit(u.Name))
				if got.Total != want.Total {
					t.Errorf("unit %s: Est.Total %v, scratch %v", u.Name, got.Total, want.Total)
				}
				if len(got.Loops) != len(want.Loops) {
					t.Fatalf("unit %s: %d loop estimates, scratch %d", u.Name, len(got.Loops), len(want.Loops))
				}
				for i := range got.Loops {
					g, w := got.Loops[i], want.Loops[i]
					g.Loop, w.Loop = nil, nil
					if g != w {
						t.Errorf("unit %s loop %d: seq %v par %v, scratch seq %v par %v",
							u.Name, i, g.SeqTime, g.ParTime, w.SeqTime, w.ParTime)
					}
				}
			}
		})
	}
}

// TestKindChangeDeclinesStatementStep: an edit that calls the scalar b
// makes b a function everywhere in the unit, so the accesses of
// "b = a(i)", computed while b was a scalar, no longer hold; its undo
// makes b a scalar again. Both must decline the statement step and
// match a fresh analysis of the saved text.
func TestKindChangeDeclinesStatementStep(t *testing.T) {
	s := open(t, `
      program p
      real a(10)
      integer i, n
      n = 10
      do i = 1, n
         a(i) = 0.0
         b = a(i)
      enddo
      x = 1.0
      end
`)
	if err := s.EditStmt(findAssign(t, s, "x = 1.0").ID(), "x = x(0)*b(0)"); err != nil {
		t.Fatal(err)
	}
	if s.LastReanalysis.Mode == "patch" {
		t.Error("the edit that made b a function was patched in")
	}
	ExpectFresh(t, s, t.Name())
	if err := s.Undo(); err != nil {
		t.Fatal(err)
	}
	if s.LastReanalysis.Mode == "patch" {
		t.Error("the undo that made b a scalar again was patched in")
	}
	ExpectFresh(t, s, t.Name())
}

// TestRejectedEditLeavesKinds: a rejected edit that calls the scalar x
// must leave x a scalar. Were its parse to make x a function, the save
// would drop x's declaration, the next accepted edit would analyze to
// no dependence on x and auto would parallelize the loop with x shared;
// the session must stand where a fresh open of its text stands.
func TestRejectedEditLeavesKinds(t *testing.T) {
	s := open(t, `
      program p
      real b(10)
      integer i
      do i = 1, 10
         x = 1.0
         b(i) = x
      enddo
      end
`)
	if err := s.EditStmt(findAssign(t, s, "b(i) = x").ID(), "      q(1) = x(0)"); err == nil {
		t.Fatal("q(1) = x(0) was accepted")
	}
	if err := s.EditStmt(findAssign(t, s, "b(i) = x").ID(), "      b(i) = x + 1.0"); err != nil {
		t.Fatal(err)
	}
	ExpectFresh(t, s, t.Name())
	if !strings.Contains(s.Save(), "      real b(10), q, x\n") {
		t.Errorf("the save no longer declares x:\n%s", s.Save())
	}
	s.AutoParallelize()
	if !strings.Contains(s.Save(), "c$par doall private(i,x)\n") {
		t.Errorf("auto did not make x private:\n%s", s.Save())
	}
}
