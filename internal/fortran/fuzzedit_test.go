// Fuzz target for the incremental reanalysis path, alongside
// FuzzParse. CI runs it briefly on every push (see the chaos job);
// longer local runs:
//
//	go test ./internal/fortran -fuzz FuzzEditReanalyze -fuzztime 5m
package fortran_test

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"parascope/internal/core"
	"parascope/internal/fortran"
	"parascope/internal/workloads"
)

// depSig renders every dependence of every unit in a sorted,
// order-insensitive form (edge IDs and stats excluded — the patch
// path renumbers and accumulates them by design).
func depSig(s *core.Session) []string {
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

// editSite is one statement the fuzzer may re-type.
type editSite struct {
	unit *fortran.Unit
	stmt fortran.Stmt
}

// editSites lists the assignments and CALL statements of every unit,
// the current unit's first: local scalars and arrays, dummy arguments,
// COMMON variables and call surfaces all come up.
func editSites(s *core.Session) []editSite {
	var out []editSite
	collect := func(u *fortran.Unit) {
		fortran.WalkStmts(u.Body, func(st fortran.Stmt) bool {
			switch st.(type) {
			case *fortran.AssignStmt, *fortran.CallStmt:
				out = append(out, editSite{u, st})
			}
			return true
		})
	}
	collect(s.CurrentUnit())
	for _, u := range s.File.Units {
		if u != s.CurrentUnit() {
			collect(u)
		}
	}
	return out
}

// fuzzCalls is the seed program for edits that reach outside their
// unit: calls with array, scalar and constant actuals, a callee that
// writes an integer dummy, COMMON variables on both sides.
const fuzzCalls = `
      program main
      integer i, n, m
      real a(300), b(300)
      common /blk/ total
      real total
      n = 100
      m = 0
      do i = 1, n
         a(i) = 0.5
         b(i) = a(i)*0.25
         m = m + 1
      enddo
      call f(a, b, 100)
      call g(b, a, m)
      call f(b, a, 100)
      total = total + a(1)
      print *, a(1), b(2), m, total
      end
      subroutine f(x, y, k)
      integer k, j
      real x(300), y(300)
      common /blk/ total
      real total
      do j = 1, k
         x(j) = x(j) + y(j)
      enddo
      total = total + x(1)
      end
      subroutine g(x, y, k)
      integer k
      real x(300), y(300)
      k = k + 1
      x(k) = y(k)
      end
`

// FuzzEditReanalyze feeds an arbitrary program plus one arbitrary
// statement edit to a session and checks the invariant the editor
// leans on: whatever reanalysis path the edit takes (statement patch,
// unit, program escalation — the edited unit patched or analyzed
// whole), the resulting dependence graphs must match a from-scratch
// analysis of the saved source, with the statement-granular step
// allowed and with it declined (Session.WholeUnitOnly). Programs the
// front end or the analyses reject are skipped — equivalence, not
// robustness, is the property under test here; an edit it rejects is
// followed by one it accepts.
func FuzzEditReanalyze(f *testing.F) {
	for _, w := range workloads.All() {
		f.Add(w.Source, uint8(0), "x(1) = 0.0")
	}
	f.Add("      program p\n      integer i\n      real x(100)\n"+
		"      do i = 2, 100\n         x(i) = x(i-1)\n      enddo\n      end\n",
		uint8(0), "x(i) = x(i+1)")
	f.Add("      program p\n      real t\n      t = 1.0\n      end\n", uint8(0), "t = t + 1.0")
	// A constant assigned under a conditional: the edit's constant
	// re-propagation meets an empty state at the join.
	f.Add(workloads.CondConst().Source, uint8(3), "a(i + n) = a(i) + 2.0")
	f.Add(workloads.CondConst().Source, uint8(2), "n = 7")
	// An edit that makes the scalar b a function: the statements that
	// name b no longer mean what their accesses say, and the undo makes
	// it a scalar again.
	f.Add("progrAm A\nreAl A(0)00000\nA=0\nm=0\ndo i=0,n\nA(i)=0\nB=A(i)\nenddo \nend\nsuBroutine A\ndo j=0,0\nenddo",
		uint8(2), "X=X(0)*B(0)")
	// An edit that leaves x no call: x, a function while X(0) called it,
	// is a scalar written in the loop again.
	f.Add("progrAm A\ndo A=0,0\nX=X(0)\nenddo", uint8(0), "X=(0)")
	// An assignment to an element of x, a function while A=X(0) calls
	// it: statement functions are not supported, so the edit is
	// rejected (it was accepted, and its save did not parse).
	f.Add("progrAm A\ndo A=0,0\nA=X(0)\nenddo", uint8(0), "X(0)=(0)")
	// A rejected edit that calls the scalar x: the parse fails on q, and
	// x must still be the scalar the loop writes and reads.
	f.Add("      program p\n      real b(10)\n      integer i\n      do i = 1, 10\n"+
		"         x = 1.0\n         b(i) = x\n      enddo\n      end\n", uint8(1), "q(1) = x(0)")
	// Edits of the wider envelope, by the statement they re-type.
	calls, err := core.Open("fuzz.f", fuzzCalls)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][2]string{
		{"call f(a, b, 100)", "call f(b, a, 100)"}, // actuals swapped
		{"call f(a, b, 100)", "call f(a, b, 50)"},  // a constant actual, and f's constant formal with it
		{"call f(a, b, 100)", "call g(a, b, m)"},   // another callee
		{"call g(b, a, m)", "call g(b, a, n)"},     // another integer scalar written
		{"m = m + 1", "m = m + 2"},                 // an integer scalar, not a constant
		{"m = 0", "m = 1"},                         // an integer scalar, a constant: declined
		{"m = 0", "n = 0"},                         // another scalar written: declined
		{"x(j) = x(j) + y(j)", "x(j) = y(j)"},      // dummy arguments, summary moved
		{"x(j) = x(j) + y(j)", "x(j) = x(j) + y(j)*0.5"},
		{"total = total + x(1)", "total = x(1)"}, // a COMMON variable in a callee
		{"total = total + a(1)", "total = 0.0"},  // and in main
		{"x(k) = y(k)", "x(k) = y(k + 1)"},
		{"b(i) = a(i)*0.25", "call g(a, b, m)"}, // an assignment becomes a call
	} {
		pick := -1
		for i, site := range editSites(calls) {
			if fortran.StmtText(site.stmt) == seed[0] && pick < 0 {
				pick = i
			}
		}
		if pick < 0 {
			f.Fatalf("seed statement %q not in the program", seed[0])
		}
		f.Add(fuzzCalls, uint8(pick), seed[1])
	}
	f.Fuzz(func(t *testing.T, src string, pick uint8, text string) {
		editReanalyze(t, src, pick, text, false)
		editReanalyze(t, src, pick, text, true)
	})
}

// editReanalyze is one run of FuzzEditReanalyze's property, with the
// statement-granular step allowed or, wholeUnit, declined on every rung.
// A rejected edit is followed by re-typing the statement with its own
// text, so whatever the rejected parse left behind meets an analysis.
func editReanalyze(t *testing.T, src string, pick uint8, text string, wholeUnit bool) {
	var s *core.Session
	func() {
		defer func() { recover() }()
		if cand, err := core.Open("fuzz.f", src); err == nil {
			s = cand
		}
	}()
	if s == nil || s.CurrentUnit() == nil {
		return
	}
	s.WholeUnitOnly = wholeUnit
	how := ""
	if wholeUnit {
		how = ", whole-unit only"
	}
	sites := editSites(s)
	if len(sites) == 0 || s.SelectUnit(sites[int(pick)%len(sites)].unit.Name) != nil {
		return
	}
	target := sites[int(pick)%len(sites)]
	edit := func(typed string) (err error) {
		defer func() {
			if recover() != nil {
				err = errPanicked
			}
		}()
		return s.EditStmt(target.stmt.ID(), "      "+typed)
	}
	switch err := edit(text); {
	case err == errPanicked:
		return
	case err != nil:
		if edit(fortran.StmtText(target.stmt)) == nil {
			expectScratch(t, s, "re-typing after the rejected edit"+how, text)
		}
		return
	}
	expectScratch(t, s, "edit"+how, text)
	// Undo is an edit too: it restores the unit and re-enters the
	// same ladder.
	undone := false
	func() {
		defer func() { recover() }()
		undone = s.Undo() == nil
	}()
	if !undone {
		return
	}
	expectScratch(t, s, "undo of edit"+how, text)
}

var errPanicked = errors.New("panicked")

func expectScratch(t *testing.T, s *core.Session, op, text string) {
	t.Helper()
	if err := s.CheckSourceImage(); err != nil {
		t.Fatalf("%s %q (%s path): %v", op, text, s.LastReanalysis.Mode, err)
	}
	fresh, err := core.Open("fuzz.f", s.Save())
	if err != nil {
		t.Fatalf("%s %q prints to something unparseable: %v\n--- saved ---\n%s",
			op, text, err, s.Save())
	}
	got, want := depSig(s), depSig(fresh)
	if len(got) != len(want) {
		t.Fatalf("%s %q (%s path): %d deps incrementally, %d from scratch\nincremental: %v\nscratch: %v",
			op, text, s.LastReanalysis.Mode, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s %q (%s path): dependence diverged\nincremental: %s\nscratch:     %s",
				op, text, s.LastReanalysis.Mode, got[i], want[i])
		}
	}
}

// TestRenumberStmtsAllocatesNothing: the statement index keeps its
// backing array across renumbers of a file whose size did not grow.
func TestRenumberStmtsAllocatesNothing(t *testing.T) {
	f := workloads.Spec77().MustParse()
	if n := testing.AllocsPerRun(10, f.RenumberStmts); n != 0 {
		t.Errorf("RenumberStmts allocated %v times per run, want 0", n)
	}
}
