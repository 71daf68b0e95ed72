package core_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"parascope/internal/core"
	"parascope/internal/dep"
	"parascope/internal/fortran"
	"parascope/internal/workloads"
)

// TestRowsAreThePane: on every loop of the suite, of a call-heavy
// program and of one assigning constants under a condition, after a
// rejected mark and a reclassification, the rows the pane's predicate
// shows are the dependences SelectionDeps returns, in its order — and
// both agree with the filter spelled out over the dependence graph and
// the variable pane's classes — under every filter `deps` takes.
func TestRowsAreThePane(t *testing.T) {
	var rejected, classified, hidden int
	for _, w := range append(workloads.All(), workloads.CallHeavy(24), workloads.CondConst()) {
		s, err := w.Session()
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range s.File.Units {
			if err := s.SelectUnit(u.Name); err != nil {
				t.Fatal(err)
			}
			for n := range s.Loops() {
				if err := s.SelectLoop(n + 1); err != nil {
					t.Fatal(err)
				}
				rows := s.DepRows()
				for _, r := range rows {
					if r.Mark == dep.MarkPending.String() {
						if err := s.MarkDep(r.ID, dep.MarkRejected); err != nil {
							t.Fatal(err)
						}
						rejected++
						break
					}
				}
				for _, r := range rows {
					if !r.Private && r.Class != dep.ClassControl.String() {
						if err := s.Classify(r.Sym, core.ClassPrivate); err != nil {
							t.Fatal(err)
						}
						classified++
						break
					}
				}
				filters := []core.DepFilter{{}, {CarriedOnly: true}, {HidePrivate: true}, {HideRejected: true},
					{Classes: []dep.Class{dep.ClassFlow, dep.ClassAnti}}}
				if len(rows) > 0 {
					filters = append(filters, core.DepFilter{Sym: strings.ToUpper(rows[0].Sym)})
				}
				for _, f := range filters {
					var got, want, spelled []int
					for _, r := range f.Filter(s.DepRows()) {
						got = append(got, r.ID)
					}
					for _, d := range s.SelectionDeps(f) {
						want = append(want, d.ID)
					}
					spelled = spelledOut(s, f)
					if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, spelled) {
						t.Fatalf("%s: %s loop %d, filter %+v: rows show %v, SelectionDeps %v, spelled out %v",
							w.Name, u.Name, n+1, f, got, want, spelled)
					}
					if f.HidePrivate || f.HideRejected {
						hidden += len(s.DepRows()) - len(got)
					}
				}
			}
		}
	}
	if rejected == 0 || classified == 0 || hidden == 0 {
		t.Fatalf("%d marks, %d reclassifications, %d rows hidden by them: the test is vacuous", rejected, classified, hidden)
	}
}

// spelledOut is filter f over the selected loop's dependence graph, the
// class of a variable read off the variable pane.
func spelledOut(s *core.Session, f core.DepFilter) []int {
	classes := map[*fortran.Symbol]core.VarClass{}
	for _, v := range s.VariablePane() {
		classes[v.Sym] = v.Class
	}
	var ids []int
	for _, d := range s.State().Deps.LoopDeps(s.SelectedLoop()) {
		inClass := len(f.Classes) == 0
		for _, c := range f.Classes {
			inClass = inClass || d.Class == c
		}
		if !inClass || f.CarriedOnly && !d.Carried() || f.HideRejected && d.Mark == dep.MarkRejected ||
			f.HidePrivate && classes[d.Sym] != core.ClassShared ||
			f.Sym != "" && d.Sym.Name != strings.ToLower(f.Sym) {
			continue
		}
		ids = append(ids, d.ID)
	}
	sort.Ints(ids)
	return ids
}

// TestDepFilterSymIgnoresCase: a symbol filter names a variable in any
// case on every path. The REPL lowercased its argument and the typed
// route lowercased its query, but SelectionDeps compared the name as
// given, so {Sym: "A"} showed nothing.
func TestDepFilterSymIgnoresCase(t *testing.T) {
	s, err := workloads.ByName("direct").Session()
	if err != nil {
		t.Fatal(err)
	}
	for n := range s.Loops() {
		if err := s.SelectLoop(n + 1); err != nil {
			t.Fatal(err)
		}
		all := s.SelectionDeps(core.DepFilter{})
		if len(all) == 0 {
			continue
		}
		sym := all[0].Sym.Name
		lower := s.SelectionDeps(core.DepFilter{Sym: sym})
		upper := s.SelectionDeps(core.DepFilter{Sym: strings.ToUpper(sym)})
		if len(lower) == 0 || !reflect.DeepEqual(upper, lower) {
			t.Fatalf("loop %d: {Sym: %q} shows %d dependences, {Sym: %q} %d — want the same, and some",
				n+1, strings.ToUpper(sym), len(upper), sym, len(lower))
		}
		return
	}
	t.Fatal("no loop of direct has a dependence: the test is vacuous")
}
