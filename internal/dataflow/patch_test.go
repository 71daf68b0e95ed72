package dataflow_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"parascope/internal/dataflow"
	"parascope/internal/fortran"
	"parascope/internal/interproc"
	"parascope/internal/workloads"
)

// solution renders everything an Analysis answers about its unit:
// per statement the accesses, what is live after it and the constants
// at its entry; the symbols the unit assigns; and liveness at unit
// entry.
func solution(a *dataflow.Analysis) string {
	var b strings.Builder
	syms := a.Unit.SymbolsSorted()
	fortran.WalkStmts(a.Unit.Body, func(s fortran.Stmt) bool {
		fmt.Fprintf(&b, "#%d %s |", s.ID(), fortran.StmtText(s))
		for _, ac := range a.Accesses(s) {
			fmt.Fprintf(&b, " %s/%v/%v", ac.Sym.Name, ac.Write, ac.Partial)
		}
		for _, sym := range syms {
			if a.LiveOut(s, sym) {
				fmt.Fprintf(&b, " %s>", sym.Name)
			}
			if v, ok := a.ConstAt(s, sym); ok {
				fmt.Fprintf(&b, " %s=%d", sym.Name, v)
			}
		}
		b.WriteByte('\n')
		return true
	})
	var assigned []string
	for _, sym := range syms {
		if a.Assigned(sym) {
			assigned = append(assigned, sym.Name)
		}
	}
	fmt.Fprintf(&b, "assigned %v\n", assigned)
	var exposed []string
	for sym := range a.UpwardExposed() {
		exposed = append(exposed, sym.Name)
	}
	sort.Strings(exposed)
	fmt.Fprintf(&b, "exposed %v\n", exposed)
	return b.String()
}

// replaceStmt puts repl where old is in the body.
func replaceStmt(body []fortran.Stmt, old, repl fortran.Stmt) bool {
	for i, x := range body {
		if x == old {
			body[i] = repl
			return true
		}
		switch st := x.(type) {
		case *fortran.IfStmt:
			if replaceStmt(st.Then, old, repl) || replaceStmt(st.Else, old, repl) {
				return true
			}
		case *fortran.DoStmt:
			if replaceStmt(st.Body, old, repl) {
				return true
			}
		case *fortran.WhileStmt:
			if replaceStmt(st.Body, old, repl) {
				return true
			}
		}
	}
	return false
}

// TestPatchStmtMatchesFreshAnalyze replaces, in every unit of every
// workload and of a call-heavy main, seeded simple statements by copies
// of other simple statements of the unit — assignments by calls, writes
// of one variable by writes of another, integer scalars included. Where
// PatchStmt accepts, the solution patched in place must be the one a
// fresh Analyze of the edited unit computes — assigned symbols,
// liveness, constants; where it declines, the analysis must still be the
// one of the unit as it was.
func TestPatchStmtMatchesFreshAnalyze(t *testing.T) {
	patched, declined := 0, 0
	for _, w := range append(workloads.All(), workloads.CallHeavy(24)) {
		f := w.MustParse()
		f.RenumberStmts()
		eff := &interproc.Effects{Prog: interproc.AnalyzeProgram(f)}
		r := rand.New(rand.NewSource(int64(len(w.Source))))
		for _, u := range f.Units {
			var simple []fortran.Stmt
			fortran.WalkStmts(u.Body, func(s fortran.Stmt) bool {
				if dataflow.SimpleStmt(s) && fortran.StmtLabel(s) == 0 {
					simple = append(simple, s)
				}
				return true
			})
			if len(simple) < 2 {
				continue
			}
			for trial := 0; trial < 12; trial++ {
				old, donor := simple[r.Intn(len(simple))], simple[r.Intn(len(simple))]
				ns, err := fortran.ParseStmtIn(f, u, "      "+fortran.StmtText(donor))
				if err != nil {
					t.Fatalf("%s/%s: %q does not parse back: %v", w.Name, u.Name, fortran.StmtText(donor), err)
				}
				a := dataflow.Analyze(u, eff)
				before := solution(a)
				if !replaceStmt(u.Body, old, ns) {
					t.Fatalf("%s/%s: statement not in its unit", w.Name, u.Name)
				}
				f.RenumberStmts()
				context := fmt.Sprintf("%s/%s: %q replaced by %q", w.Name, u.Name, fortran.StmtText(old), fortran.StmtText(ns))
				if a.PatchStmt(old, ns, eff, nil) {
					patched++
					if got, want := solution(a), solution(dataflow.Analyze(u, eff)); got != want {
						t.Fatalf("%s: patched in place\n%s\nanalyzed afresh\n%s", context, got, want)
					}
				}
				replaceStmt(u.Body, ns, old)
				f.RenumberStmts()
				if a.G.NodeFor(old) != nil {
					declined++
					if got := solution(a); got != before {
						t.Fatalf("%s: declined, yet the analysis moved from\n%s\nto\n%s", context, before, got)
					}
				}
			}
		}
	}
	if patched < 50 || declined < 50 {
		t.Errorf("%d replacements patched, %d declined; want plenty of both", patched, declined)
	}
}
