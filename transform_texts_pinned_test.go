// Pinned rewrites. Every restructuring transformation rewrites the AST
// through the front end's expression substitution and statement
// cloning; this test holds what each one prints, and what Check says
// about it, to what the tree before the front end's walkers became one
// printed.
package parascope

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"

	"parascope/internal/fortran"
	"parascope/internal/workloads"
	"parascope/internal/xform"
)

// scalarsOf names every scalar the loop's header and body mention,
// sorted.
func scalarsOf(do *fortran.DoStmt) []string {
	seen := map[string]bool{}
	fortran.WalkStmts([]fortran.Stmt{do}, func(s fortran.Stmt) bool {
		fortran.WalkExprs(s, func(e fortran.Expr) {
			if vr, ok := e.(*fortran.VarRef); ok && vr.Sym != nil && vr.Sym.Kind == fortran.SymScalar {
				seen[vr.Name] = true
			}
		})
		return true
	})
	seen[do.Var.Name] = true
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// callsOf returns the unit's CALL statements that name a unit of the
// file, in walk order.
func callsOf(u *fortran.Unit) []*fortran.CallStmt {
	var calls []*fortran.CallStmt
	fortran.WalkStmts(u.Body, func(s fortran.Stmt) bool {
		if c, ok := s.(*fortran.CallStmt); ok && c.Callee != nil {
			calls = append(calls, c)
		}
		return true
	})
	return calls
}

// transformTexts checks every case on w and, for each the verdict
// allows, applies it, records the saved text's hash and undoes it. A
// case names its unit, catalog row and arguments by position, so it is
// rebuilt against the session as each undo left it.
func transformTexts(t *testing.T, w *workloads.Workload) string {
	s, err := w.Session()
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	h := sha256.New()
	run := func(unit, label string, build func(u *fortran.Unit, loops []*fortran.DoStmt) xform.Transformation) {
		if err := s.SelectUnit(unit); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		var loops []*fortran.DoStmt
		for _, l := range s.Loops() {
			loops = append(loops, l.Do)
		}
		tr := build(s.CurrentUnit(), loops)
		v := s.Check(tr)
		fmt.Fprintf(h, "%s %s\n%s\n", unit, label, v)
		if !v.OK() {
			return
		}
		if _, err := s.Transform(tr); err != nil {
			fmt.Fprintf(h, "! %v\n", err)
			return
		}
		fmt.Fprintf(h, "%x\n", sha256.Sum256([]byte(s.Save())))
		if err := s.Undo(); err != nil {
			t.Fatalf("%s: %s %s: undo: %v", w.Name, unit, label, err)
		}
	}
	for _, u := range s.File.Units {
		name := u.Name
		if err := s.SelectUnit(name); err != nil {
			t.Fatal(err)
		}
		// Transformations rewrite loops in place before an undo restores
		// fresh ones, so everything a case needs is read up front.
		loops := s.Loops()
		scalars := make([][]string, len(loops))
		for n, l := range loops {
			scalars[n] = scalarsOf(l.Do)
		}
		calls := callsOf(u)
		for n := range loops {
			for _, row := range xform.Catalog {
				row := row
				label := func(arg string) string { return fmt.Sprintf("%s %d%s", row.Commands[0], n+1, arg) }
				args := row.Args
				switch {
				case len(args) == 1 && args[0].Kind == xform.ArgLoop:
					run(name, label(""), func(_ *fortran.Unit, ls []*fortran.DoStmt) xform.Transformation {
						return row.New(xform.Args{Loops: ls[n : n+1]})
					})
				case len(args) == 2 && args[0].Kind == xform.ArgLoop && args[1].Kind == xform.ArgInt:
					run(name, label(" 2"), func(_ *fortran.Unit, ls []*fortran.DoStmt) xform.Transformation {
						return row.New(xform.Args{Loops: ls[n : n+1], Int: 2})
					})
				case len(args) == 2 && args[0].Kind == xform.ArgLoop && args[1].Kind == xform.ArgLoop:
					if n+1 < len(loops) {
						run(name, label(fmt.Sprintf(" %d", n+2)), func(_ *fortran.Unit, ls []*fortran.DoStmt) xform.Transformation {
							return row.New(xform.Args{Loops: ls[n : n+2]})
						})
					}
				case len(args) == 2 && args[0].Kind == xform.ArgLoop && args[1].Kind == xform.ArgVar:
					for _, v := range scalars[n] {
						run(name, label(" "+v), func(u *fortran.Unit, ls []*fortran.DoStmt) xform.Transformation {
							return row.New(xform.Args{Loops: ls[n : n+1], Sym: u.Lookup(v)})
						})
					}
				}
			}
		}
		inline := xform.Lookup("inline")
		for k, c := range calls {
			run(name, fmt.Sprintf("inline %d (%s)", k, c.Name), func(u *fortran.Unit, _ []*fortran.DoStmt) xform.Transformation {
				return inline.New(xform.Args{Stmts: []fortran.Stmt{callsOf(u)[k]}})
			})
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestTransformTextsPinned: Check's verdict for every catalog row whose
// arguments are one loop, a loop and the integer 2, two adjacent loops,
// or a loop and a scalar it mentions, on every loop of every unit, and
// inline at every CALL of a unit of the file; and for each verdict that
// allows it, the program text Transform leaves. One digest per
// workload, as the tree at commit ad9f88c made them.
func TestTransformTextsPinned(t *testing.T) {
	want := map[string]string{
		"spec77": "00719166a31f6290", "pneoss": "fb2bfcab13e07d33", "nxsns": "3b3a9c9ce8993386",
		"arc3d": "ec60af53184b1adb", "slab2d": "4d0d6310e3b3c318", "onedim": "d9b173a1e22470fe",
		"shear": "b5d4f7430073a797", "direct": "72151b790ab364ac", "interior": "66c6b021b24d11d2",
		"callheavy": "5849f8ed0188ebc2",
	}
	for _, w := range append(workloads.All(), workloads.CallHeavy(24)) {
		if got := transformTexts(t, w); got != want[w.Name] {
			t.Errorf("%s: transformed texts moved: digest %s, want %s", w.Name, got, want[w.Name])
		}
	}
}
