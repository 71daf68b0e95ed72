package core_test

import (
	"context"
	"strings"
	"testing"

	"parascope/internal/core"
	"parascope/internal/fortran"
	"parascope/internal/workloads"
)

// TestImagesOnDemand: a unit's printed text is made the first time a
// reader asks for it, never by an open or a read. Over the suite,
// CallHeavy(24) and CondConst(): an open prints no unit; a session that
// only selects, lists loops, dependences and variables, navigates by the
// estimates and runs the interpreter prints none either; the first Save
// or SourceHash prints every unit once, and a second prints nothing; the
// first mutation prints every unit once (its undo entry) and the edited
// unit once more after the edit. An assertion on a never-printed session
// takes the unit rung and a rejected edit declares its name, each
// leaving the hash of the text they leave — a fresh open's of it. The
// image is checked against fortran.Print after each.
func TestImagesOnDemand(t *testing.T) {
	ws := append(workloads.All(), workloads.CallHeavy(24), workloads.CondConst())
	for _, w := range ws {
		open := func() *core.Session {
			t.Helper()
			s, err := core.Open(w.Name+".f", w.Source)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if n := s.Prints(); n != 0 {
				t.Fatalf("%s: the open printed %d units", w.Name, n)
			}
			return s
		}
		check := func(s *core.Session, when string, prints int) {
			t.Helper()
			if n := s.Prints(); n != prints {
				t.Errorf("%s: %s printed %d units, want %d", w.Name, when, n, prints)
			}
			if err := s.CheckSourceImage(); err != nil {
				t.Fatalf("%s: %s: %v", w.Name, when, err)
			}
			// The check prints the units not printed yet, and no unit twice.
			if n, want := s.Prints(), max(prints, len(s.File.Units)); n != want {
				t.Errorf("%s: %s and a check of the image printed %d units, want %d", w.Name, when, n, want)
			}
		}
		s := open()
		units := len(s.File.Units)
		for _, u := range s.File.Units {
			if err := s.SelectUnit(u.Name); err != nil {
				t.Fatal(err)
			}
			s.Estimate()
			for j := range s.Loops() {
				if err := s.SelectLoop(j + 1); err != nil {
					t.Fatal(err)
				}
				s.DepRows()
				s.VariablePane()
			}
			s.NextByPerformance()
		}
		if err := s.SelectUnit(s.File.Units[0].Name); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec(context.Background(), core.ExecRequest{Input: w.Input}); err != nil {
			t.Fatalf("%s: run: %v", w.Name, err)
		}
		if n := s.Prints(); n != 0 {
			t.Errorf("%s: reads and a run printed %d units", w.Name, n)
		}
		s.Save()
		check(s, "the first Save", units)

		s = open()
		s.SourceHash()
		check(s, "the first SourceHash", units)

		s = open()
		u := s.CurrentUnit()
		var as *fortran.AssignStmt
		fortran.WalkStmts(u.Body, func(st fortran.Stmt) bool {
			if a, ok := st.(*fortran.AssignStmt); ok && as == nil && fortran.StmtLabel(a) == 0 {
				as = a
			}
			return as == nil
		})
		if as == nil {
			t.Fatalf("%s: no assignment in %s", w.Name, u.Name)
		}
		if err := s.EditStmt(as.ID(), "      "+fortran.StmtText(as)); err != nil {
			t.Fatalf("%s: retyping %q: %v", w.Name, fortran.StmtText(as), err)
		}
		check(s, "the first edit", units+1)

		s = open()
		var n string
		for _, sym := range s.CurrentUnit().SymbolsSorted() {
			if sym.Kind == fortran.SymScalar && sym.Type == fortran.TypeInteger && n == "" {
				n = sym.Name
			}
		}
		if n == "" {
			t.Fatalf("%s: no integer scalar in %s to assert about", w.Name, s.CurrentUnit().Name)
		}
		if err := s.Assert(n + " .ge. 1"); err != nil {
			t.Fatalf("%s: assert: %v", w.Name, err)
		}
		if s.LastReanalysis.Mode != "unit" {
			t.Errorf("%s: an assertion took the %q rung, want unit", w.Name, s.LastReanalysis.Mode)
		}
		check(s, "an assertion", 1)
		if s.SourceHash() != open().SourceHash() {
			t.Errorf("%s: an assertion moved the source hash", w.Name)
		}

		s = open()
		if err := s.EditStmt(s.CurrentUnit().Body[0].ID(), "      zzq(1) = 1.0"); err == nil {
			t.Fatalf("%s: zzq(1) = 1.0 was accepted", w.Name)
		}
		check(s, "a rejected edit", 1)
		saved := s.Save()
		if !strings.Contains(saved, "zzq") {
			t.Errorf("%s: the rejected edit did not declare zzq", w.Name)
		}
		fresh, err := core.Open(w.Name+".f", saved)
		if err != nil {
			t.Fatal(err)
		}
		if s.SourceHash() != fresh.SourceHash() {
			t.Errorf("%s: after a rejected edit the hash is not its text's", w.Name)
		}
	}
}
