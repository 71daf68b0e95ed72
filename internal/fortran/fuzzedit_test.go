// Fuzz target for the incremental reanalysis path, alongside
// FuzzParse. CI runs it briefly on every push (see the chaos job);
// longer local runs:
//
//	go test ./internal/fortran -fuzz FuzzEditReanalyze -fuzztime 5m
package fortran_test

import (
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

// FuzzEditReanalyze feeds an arbitrary program plus one arbitrary
// statement edit to a session and checks the invariant the editor
// leans on: whatever reanalysis path the edit takes (statement patch,
// unit, program escalation), the resulting dependence graphs must
// match a from-scratch analysis of the saved source. Inputs the
// front end or the analyses reject are skipped — equivalence, not
// robustness, is the property under test here.
func FuzzEditReanalyze(f *testing.F) {
	for _, w := range workloads.All() {
		f.Add(w.Source, uint8(0), "x(1) = 0.0")
	}
	f.Add("      program p\n      integer i\n      real x(100)\n"+
		"      do i = 2, 100\n         x(i) = x(i-1)\n      enddo\n      end\n",
		uint8(0), "x(i) = x(i+1)")
	f.Add("      program p\n      real t\n      t = 1.0\n      end\n", uint8(0), "t = t + 1.0")
	f.Fuzz(func(t *testing.T, src string, pick uint8, text string) {
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
		var assigns []fortran.Stmt
		fortran.WalkStmts(s.CurrentUnit().Body, func(st fortran.Stmt) bool {
			if _, ok := st.(*fortran.AssignStmt); ok {
				assigns = append(assigns, st)
			}
			return true
		})
		if len(assigns) == 0 {
			return
		}
		target := assigns[int(pick)%len(assigns)]
		edited := false
		func() {
			defer func() { recover() }()
			edited = s.EditStmt(target.ID(), "      "+text) == nil
		}()
		if !edited {
			return
		}
		expectScratch(t, s, "edit", text)
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
		expectScratch(t, s, "undo of edit", text)
	})
}

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
