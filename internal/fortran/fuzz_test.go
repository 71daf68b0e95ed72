// Fuzz targets for the Fortran front end. CI runs FuzzParse briefly on
// every push (see the chaos job); longer local runs:
//
//	go test ./internal/fortran -fuzz FuzzParse -fuzztime 5m
package fortran_test

import (
	"slices"
	"testing"

	"parascope/internal/fortran"
	"parascope/internal/workloads"
	"parascope/internal/xform"
)

// FuzzParse feeds arbitrary source to the parser and checks the two
// robustness invariants the rest of the system leans on: the front
// end never panics (it parses or returns an error), and anything it
// accepts round-trips — the printed form reparses, and printing that
// is a fixpoint. Session materialization and the analysis cache both
// assume print→parse→print stability.
func FuzzParse(f *testing.F) {
	for _, src := range fuzzParseSeeds() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := fortran.Parse("fuzz.f", src)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		printed := fortran.Print(file)
		re, err := fortran.Parse("fuzz.f", printed)
		if err != nil {
			t.Fatalf("accepted source prints to something unparseable: %v\n--- input ---\n%q\n--- printed ---\n%s", err, src, printed)
		}
		if again := fortran.Print(re); again != printed {
			t.Fatalf("print is not a fixpoint\n--- first ---\n%s\n--- second ---\n%s", printed, again)
		}
	})
}

// fuzzParseSeeds is FuzzParse's seed corpus: every workload's source,
// then hand-picked corner inputs.
func fuzzParseSeeds() []string {
	var out []string
	for _, w := range workloads.All() {
		out = append(out, w.Source)
	}
	return append(out,
		"",
		"\n",
		"      end\n",
		"      program p\n      end\n",
		"c comment only\n",
		"      program p\n      integer i\n      do i = 1, 10\n      enddo\n      end\n",
		"      program p\n      goto 10\n 10   continue\n      end\n",
		"      program p\n      x = 1.0e\n      end\n",
		"      program p\n      a(1 = 2\n      end\n",
		"      program p\n      if (x .gt. 0) then\n      end\n",
		"      program p\n      print *, 'it''s'\n      end\n",
	)
}

// FuzzEditReanalyze feeds an arbitrary program plus one arbitrary
// statement edit to the front end and checks its share of an edit's
// reanalysis: the statement parsed in its unit's context (or refused,
// and the old text re-typed), spliced in, the kinds re-derived and the
// statements renumbered, the program prints to a text that parses, prints
// back to itself, and gives every name the kind, type, EXTERNAL bit and
// rank the edited program has — what the editor's save and reopen lean
// on. The session's analyses after an edit are FuzzSession's
// (internal/core). Longer local runs:
//
//	go test ./internal/fortran -run '^$' -fuzz '^FuzzEditReanalyze$' -fuzztime 5m
func FuzzEditReanalyze(f *testing.F) {
	for _, w := range workloads.All() {
		f.Add(w.Source, uint8(0), "x(1) = 0.0")
	}
	f.Add("      program p\n      integer i\n      real x(100)\n"+
		"      do i = 2, 100\n         x(i) = x(i-1)\n      enddo\n      end\n", uint8(0), "x(i) = x(i+1)")
	f.Add("      program p\n      real t\n      t = 1.0\n      end\n", uint8(0), "t = t + 1.0")
	f.Add(workloads.CondConst().Source, uint8(3), "a(i + n) = a(i) + 2.0")
	f.Add(workloads.CondConst().Source, uint8(2), "n = 7")
	// Edits that move a name's kind: b becomes a function, x loses its
	// only call, an element of the function x is assigned (refused), and
	// a refused edit calls the scalar x.
	f.Add("progrAm A\nreAl A(0)00000\nA=0\nm=0\ndo i=0,n\nA(i)=0\nB=A(i)\nenddo \nend\nsuBroutine A\ndo j=0,0\nenddo",
		uint8(2), "X=X(0)*B(0)")
	f.Add("progrAm A\ndo A=0,0\nX=X(0)\nenddo", uint8(0), "X=(0)")
	f.Add("progrAm A\ndo A=0,0\nA=X(0)\nenddo", uint8(0), "X(0)=(0)")
	f.Add("      program p\n      real b(10)\n      integer i\n      do i = 1, 10\n"+
		"         x = 1.0\n         b(i) = x\n      enddo\n      end\n", uint8(1), "q(1) = x(0)")
	// Edits across a call surface, by the statement they re-type.
	calls := fortran.MustParse("fuzz.f", fuzzCalls)
	at := editable(calls)
	for _, seed := range [][2]string{
		{"call f(a, b, 100)", "call f(b, a, 100)"},
		{"call f(a, b, 100)", "call f(a, b, 50)"},
		{"call f(a, b, 100)", "call g(a, b, m)"},
		{"call g(b, a, m)", "call g(b, a, n)"},
		{"m = m + 1", "m = m + 2"},
		{"m = 0", "m = 1"},
		{"m = 0", "n = 0"},
		{"x(j) = x(j) + y(j)", "x(j) = y(j)"},
		{"x(j) = x(j) + y(j)", "x(j) = x(j) + y(j)*0.5"},
		{"total = total + x(1)", "total = x(1)"},
		{"total = total + a(1)", "total = 0.0"},
		{"x(k) = y(k)", "x(k) = y(k + 1)"},
		{"b(i) = a(i)*0.25", "call g(a, b, m)"},
	} {
		pick := slices.IndexFunc(at, func(st fortran.Stmt) bool { return fortran.StmtText(st) == seed[0] })
		if pick < 0 {
			f.Fatalf("seed statement %q not in the program", seed[0])
		}
		f.Add(fuzzCalls, uint8(pick), seed[1])
	}
	// A function typed other than its name implies loses its only call,
	// and an EXTERNAL name passed bare meets an edit: the print must make
	// the first a scalar and name the second EXTERNAL.
	f.Add("      program p\n      real k\n      x = k(1.0)\n      y = 2.0\n      print *, x, y\n      end\n", uint8(0), "x = 1.0")
	f.Add("      program p\n      real b(10)\n      external f\n      call s(f, b)\n      y = 1.0\n      end\n"+
		"      subroutine s(g, c)\n      real c(10)\n      c(1) = g(1.0)\n      end\n", uint8(1), "y = 2.0")
	f.Fuzz(func(t *testing.T, src string, pick uint8, text string) {
		file, err := fortran.Parse("fuzz.f", src)
		if err != nil {
			return
		}
		at := editable(file)
		if len(at) == 0 {
			return
		}
		old := at[int(pick)%len(at)]
		u := unitOf(file, old)
		ns, err := fortran.ParseStmtIn(file, u, "      "+text)
		if err != nil {
			if ns, err = fortran.ParseStmtIn(file, u, "      "+fortran.StmtText(old)); err != nil {
				t.Fatalf("re-typing %q after the refused %q: %v", fortran.StmtText(old), text, err)
			}
		}
		xform.ReplaceStmt(u, old, ns)
		u.DeriveKinds()
		file.RenumberStmts()
		printed := fortran.Print(file)
		re, err := fortran.Parse("fuzz.f", printed)
		if err != nil {
			t.Fatalf("edit %q prints to something unparseable: %v\n%s", text, err, printed)
		}
		if again := fortran.Print(re); again != printed {
			t.Fatalf("edit %q: the print does not print back to itself\n--- printed ---\n%s--- reparsed ---\n%s", text, printed, again)
		}
		for i, u := range file.Units {
			ru := re.Units[i]
			for _, sym := range u.SymbolsSorted() {
				switch r := ru.Syms[sym.Name]; {
				case r == nil && sym.Kind != fortran.SymFunc && sym.Kind != fortran.SymIntrinsic:
					t.Fatalf("edit %q: %s's %s %s is gone after a reparse\n%s", text, u.Name, sym.Kind, sym.Name, printed)
				case r != nil && (r.Kind != sym.Kind || r.Type != sym.Type || r.External != sym.External || len(r.Dims) != len(sym.Dims)):
					t.Fatalf("edit %q: %s's %s is a %s %s (external %t), after a reparse a %s %s (external %t)\n%s",
						text, u.Name, sym.Name, sym.Type, sym.Kind, sym.External, r.Type, r.Kind, r.External, printed)
				}
			}
			for name := range ru.Syms {
				if u.Syms[name] == nil {
					t.Fatalf("edit %q: %s's %s appears after a reparse\n%s", text, u.Name, name, printed)
				}
			}
		}
	})
}

// editable lists the assignments and CALL statements of every unit.
func editable(f *fortran.File) (at []fortran.Stmt) {
	for _, u := range f.Units {
		fortran.WalkStmts(u.Body, func(st fortran.Stmt) bool {
			switch st.(type) {
			case *fortran.AssignStmt, *fortran.CallStmt:
				at = append(at, st)
			}
			return true
		})
	}
	return at
}

// unitOf returns the unit whose statements include st.
func unitOf(f *fortran.File, st fortran.Stmt) *fortran.Unit {
	for _, u := range f.Units {
		found := false
		fortran.WalkStmts(u.Body, func(x fortran.Stmt) bool {
			found = found || x == st
			return !found
		})
		if found {
			return u
		}
	}
	return nil
}

// fuzzCalls is a seed program whose edits reach outside their unit:
// calls with array, scalar and constant actuals, a callee that writes an
// integer dummy, COMMON variables on both sides.
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

// TestRenumberStmtsAllocatesNothing: the statement index keeps its
// backing array across renumbers of a file whose size did not grow.
func TestRenumberStmtsAllocatesNothing(t *testing.T) {
	f := workloads.Spec77().MustParse()
	if n := testing.AllocsPerRun(10, f.RenumberStmts); n != 0 {
		t.Errorf("RenumberStmts allocated %v times per run, want 0", n)
	}
}
