package dep

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"parascope/internal/dataflow"
	"parascope/internal/fortran"
)

// patchUnit is a unit of 100 loops × 5 assignments over three shared
// arrays, each loop working its own window, plus the scalar t.
func patchUnit() string {
	var b strings.Builder
	b.WriteString("      program big\n      integer i\n      real a(200000), b(200000), c(200000), t\n      t = 0.0\n")
	for l := 0; l < 100; l++ {
		k := l * 1000
		b.WriteString("      do i = 2, 999\n")
		fmt.Fprintf(&b, "         a(i+%d) = a(i+%d)*0.5 + b(i+%d)\n", k, k-1, k)
		fmt.Fprintf(&b, "         b(i+%d) = b(i+%d) + c(i+%d)\n", k, k-1, k)
		fmt.Fprintf(&b, "         c(i+%d) = c(i+%d) + a(i+%d)\n", k, k-1, k)
		fmt.Fprintf(&b, "         c(i+%d) = c(i+%d)*0.5\n", k, k)
		fmt.Fprintf(&b, "         t = t + a(i+%d)\n", k)
		b.WriteString("      enddo\n")
	}
	b.WriteString("      print *, t\n      end\n")
	return b.String()
}

// edgeKeys renders edges without their IDs (a patch renumbers them),
// sorted.
func edgeKeys(deps []*Dependence) []string {
	var out []string
	for _, d := range deps {
		out = append(out, fmt.Sprintf("%s %s #%d->#%d l%d %v %v %v %s %s %q %q",
			d.Class, d.Sym.Name, d.Src.ID(), d.Dst.ID(), d.Level,
			d.Dirs, d.Dist, d.Known, d.Mark, d.Test, d.Reason, d.Blockers))
	}
	sort.Strings(out)
	return out
}

// TestPatchDoesNotBuildUnitTables holds Patch to its cost contract: an
// Analyzer is built per keystroke, so its per-statement tables must be
// filled only for the statements the retested pairs start from, not for
// the unit. Patching one statement of a 600-statement unit may build
// the environment of at most the statements that start a pair with it:
// those referencing one of its arrays and preceding it in collection
// order. The patched graph must still equal a full run's, per-loop
// index included.
func TestPatchDoesNotBuildUnitTables(t *testing.T) {
	f, err := fortran.Parse("big.f", patchUnit())
	if err != nil {
		t.Fatal(err)
	}
	f.RenumberStmts()
	u := f.Units[0]
	df := dataflow.Analyze(u, nil)
	prev := Analyze(df, nil, nil, DefaultOptions())

	// Re-type the "c = c*0.5" statement of the 3rd loop: it references
	// only c, which 3 of the 5 statements of each loop touch.
	var old fortran.Stmt
	stmts := 0
	fortran.WalkStmts(u.Body, func(s fortran.Stmt) bool {
		stmts++
		if strings.HasPrefix(fortran.StmtText(s), "c(i + 2000) = c(i + 2000)*") {
			old = s
		}
		return true
	})
	if old == nil || stmts < 500 {
		t.Fatalf("edit site not found in a unit of %d statements", stmts)
	}
	ns, err := fortran.ParseStmtIn(f, u, "         c(i+2000) = c(i+2000)*0.25")
	if err != nil {
		t.Fatal(err)
	}
	loop := df.Tree.Innermost(old)
	for i, s := range loop.Do.Body {
		if s == old {
			loop.Do.Body[i] = ns
		}
	}
	f.RenumberStmts()
	if !df.PatchStmt(old, ns, df.Eff, nil) {
		t.Fatal("PatchStmt refused a constant change")
	}

	a := &Analyzer{DF: df, Opts: DefaultOptions()}
	g := a.patch(prev, old, ns, nil)

	built := 0
	for i := range a.stmts {
		if a.stmts[i].env != nil {
			built++
		}
	}
	// Three statements per loop reference c; the ones up to and
	// including the edit in collection order start a retested pair.
	// (The loop variable pairs the edit with every DO statement too, but
	// scalar pairs need no environment.)
	if built == 0 || built > 3*3 {
		t.Errorf("patch built %d statement environments of %d statements; at most the %d statements referencing c before the edit start a retested pair",
			built, stmts, 3*3)
	}

	fresh := Analyze(dataflow.Analyze(u, nil), nil, nil, DefaultOptions())
	got, want := edgeKeys(g.Deps), edgeKeys(fresh.Deps)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("patched graph has %d edges, full run %d, or they differ", len(got), len(want))
	}
	freshTree := fresh.byLoop
	for l, list := range g.byLoop {
		var twin []*Dependence
		for fl, fresh := range freshTree {
			if fl.Do == l.Do {
				twin = fresh
			}
		}
		if strings.Join(edgeKeys(list), "\n") != strings.Join(edgeKeys(twin), "\n") {
			t.Errorf("loop at line %d: patched per-loop index lists %d edges, full run %d, or they differ",
				l.Do.Line(), len(list), len(twin))
		}
	}
}
