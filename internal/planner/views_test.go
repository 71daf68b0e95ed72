package planner_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"parascope/internal/cfg"
	"parascope/internal/core"
	"parascope/internal/fortran"
	"parascope/internal/planner"
	"parascope/internal/repl"
	"parascope/internal/workloads"
	"parascope/internal/xform"
)

// TestViewsAgreeWithVerdict: check parallelize, advise, the variable
// pane, the hideprivate filter and a plan's decisions are views of one
// judgement — xform.Doall — and say the same of every variable: on
// every suite program and every loop, pristine and after each
// privatize, privatize-array and reductions its check allows. (With
// the rule written once per view, `advise` went on proposing to
// privatize arc3d's work array, and `vars` on listing it shared, after
// `apply privatize-array 3 work` had made it private.)
func TestViewsAgreeWithVerdict(t *testing.T) {
	annotated := 0
	for _, w := range workloads.All() {
		s, err := w.Session()
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		r := repl.New(s, &out)
		run := func(line string) (string, error) {
			out.Reset()
			err := r.Execute(line)
			return out.String(), err
		}
		for _, u := range s.File.Units {
			if _, err := run("unit " + u.Name); err != nil {
				t.Fatal(err)
			}
			for i := range s.Loops() {
				at := fmt.Sprintf("%s %s loop %d", w.Name, u.Name, i+1)
				viewsAgree(t, s, run, i+1, at)
				var steps []string
				for _, sym := range u.SymbolsSorted() {
					steps = append(steps, fmt.Sprintf("privatize %d %s", i+1, sym.Name),
						fmt.Sprintf("privatize-array %d %s", i+1, sym.Name))
				}
				for _, step := range append(steps, fmt.Sprintf("reductions %d", i+1)) {
					if _, err := run("apply " + step); err == nil {
						annotated++
						viewsAgree(t, s, run, i+1, at+" after "+step)
					}
				}
			}
		}
	}
	if annotated < 10 {
		t.Errorf("only %d annotations were applied; the annotated half checks too little", annotated)
	}
}

// viewsAgree compares every view of loop n with the loop's verdict,
// then parallelizes the loop if it may and compares the decisions.
func viewsAgree(t *testing.T, s *core.Session, run func(string) (string, error), n int, at string) {
	t.Helper()
	if _, err := run(fmt.Sprintf("loop %d", n)); err != nil {
		t.Fatal(err)
	}
	l := s.SelectedLoop()
	verdict := s.Doall(l)
	blocked := map[*fortran.Symbol]bool{}
	var want []string
	for _, d := range verdict.Blocking {
		blocked[d.Sym] = true
		want = append(want, "blocked by "+d.String())
	}

	// check parallelize prints the verdict's blockers, in its order.
	text, err := run(fmt.Sprintf("check parallelize %d", n))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, note := range strings.Split(strings.TrimSpace(text), "; ") {
		if i := strings.Index(note, "blocked by "); i >= 0 {
			got = append(got, note[i:])
		}
	}
	if !l.Do.Parallel && strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s: check parallelize is blocked by %q, the verdict by %q", at, got, want)
	}

	// advise reasons from the same blockers: it proposes parallelizing
	// exactly when there are none, and a remedy only for a variable
	// that blocks.
	for _, sg := range s.Advise() {
		var sym *fortran.Symbol
		switch tr := sg.Transformation.(type) {
		case xform.Parallelize:
			if len(verdict.Blocking) > 0 {
				t.Errorf("%s: advise says %q over %d blocking dependences", at, sg, len(verdict.Blocking))
			}
		case xform.PrivatizeArray:
			sym = tr.Sym
		case xform.ScalarExpand:
			sym = tr.Sym
		}
		if sym != nil && !blocked[sym] {
			t.Errorf("%s: advise says %q; the verdict calls %s %v and nothing on it blocks", at, sg, sym.Name, verdict.Basis(sym))
		}
	}
	if !l.Do.Parallel && len(verdict.Blocking) == 0 {
		if sgs := s.Advise(); len(sgs) != 1 || sgs[0].Transformation != (xform.Parallelize{Do: l.Do}) {
			t.Errorf("%s: nothing blocks, yet advise says %v", at, sgs)
		}
	}

	// vars shows each variable in the class of its basis; hideprivate
	// keeps the dependences of the shared ones.
	classes := map[xform.Basis]core.VarClass{xform.Shared: core.ClassShared, xform.LastValue: core.ClassShared,
		xform.Private: core.ClassPrivate, xform.Reduction: core.ClassReduction, xform.Induction: core.ClassInduction}
	for _, row := range s.VariablePane() {
		if want := classes[verdict.Basis(row.Sym)]; row.Class != want {
			t.Errorf("%s: vars lists %s as %s; the verdict's basis is %v (%s)", at, row.Sym.Name, row.Class, verdict.Basis(row.Sym), want)
		}
		if blocked[row.Sym] && row.Class != core.ClassShared {
			t.Errorf("%s: vars lists %s as %s, yet its dependences block", at, row.Sym.Name, row.Class)
		}
	}
	shown := map[int]bool{}
	for _, d := range s.SelectionDeps(core.DepFilter{HidePrivate: true}) {
		shown[d.ID] = true
	}
	for _, d := range s.SelectionDeps(core.DepFilter{}) {
		if shared := classes[verdict.Basis(d.Sym)] == core.ClassShared; shown[d.ID] != shared {
			t.Errorf("%s: hideprivate shows dependence %d on %s: %v; the verdict's basis is %v", at, d.ID, d.Sym.Name, shown[d.ID], verdict.Basis(d.Sym))
		}
	}

	// The decisions of the loop once parallelized are the verdict's
	// bases: nothing carried by the loop itself is merely assumed away.
	if l.Do.Parallel || len(verdict.Blocking) > 0 {
		return
	}
	if _, err := run(fmt.Sprintf("apply parallelize %d", n)); err != nil {
		t.Fatalf("%s: nothing blocks, yet: %v", at, err)
	}
	loop := fmt.Sprintf("do %s (line %d)", l.Header().Name, l.Do.Line())
	words := map[xform.Basis]string{xform.Private: "privatized", xform.Reduction: "reduction", xform.Induction: "induction"}
	carried := carriedHere(s, l)
	for _, dec := range planner.Decisions(s) {
		if dec.Loop != loop || !carried[dec.Var] {
			continue
		}
		if want := words[verdict.Basis(s.CurrentUnit().Lookup(dec.Var))]; dec.Basis != want {
			t.Errorf("%s: the plan sets %s aside as %q; the verdict it was parallelized on says %q", at, dec.Var, dec.Basis, want)
		}
	}
	if err := s.Undo(); err != nil {
		t.Fatal(err)
	}
}

// carriedHere names the variables with a dependence carried by l itself.
func carriedHere(s *core.Session, l *cfg.Loop) map[string]bool {
	out := map[string]bool{}
	for _, d := range s.State().Deps.CarriedAt(s.State().DF.Tree.LoopOf(l.Do)) {
		out[d.Sym.Name] = true
	}
	return out
}
