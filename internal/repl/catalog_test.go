package repl

import (
	"fmt"
	"go/ast"
	"reflect"
	"strings"
	"testing"

	"parascope/internal/core"
	"parascope/internal/fortran"
	"parascope/internal/workloads"
	"parascope/internal/xform"
)

// transformationTypes reads internal/xform's sources for every type
// with Name, Check and Apply methods — the implementations of
// xform.Transformation — and the string its Name returns.
func transformationTypes(t *testing.T) map[string]string {
	t.Helper()
	methods := map[string]map[string]bool{}
	names := map[string]string{}
	for _, f := range parseDir(t, "../xform") {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil {
				continue
			}
			recv, ok := fn.Recv.List[0].Type.(*ast.Ident)
			if !ok {
				continue
			}
			if methods[recv.Name] == nil {
				methods[recv.Name] = map[string]bool{}
			}
			methods[recv.Name][fn.Name.Name] = true
			if fn.Name.Name == "Name" {
				stringLits(t, fn.Body, func(s string) { names[recv.Name] = s })
			}
		}
	}
	out := map[string]string{}
	for typ, m := range methods {
		if m["Name"] && m["Check"] && m["Apply"] {
			out[typ] = names[typ]
		}
	}
	if len(out) < 18 {
		t.Fatalf("the walk over internal/xform found %d transformation types; it checks nothing", len(out))
	}
	return out
}

// TestCatalogIsComplete: a transformation exists for the user exactly
// when the catalog has a row for it. Read off internal/xform's sources,
// every type implementing Transformation has exactly one row, whose
// constructor builds that type and whose Name is the type's; every name
// of every row parses through core.ParseTransformation into it; no name
// selects two rows; and help lists every row by its first name.
// (StmtInterchange had no name in the grammar for fifteen PRs.)
func TestCatalogIsComplete(t *testing.T) {
	types := transformationTypes(t)

	// One of every argument, from a program that has them all.
	s, err := workloads.ByName("arc3d").Session()
	if err != nil {
		t.Fatal(err)
	}
	var call *fortran.CallStmt
	var pair [2]fortran.Stmt
	fortran.WalkStmts(s.CurrentUnit().Body, func(st fortran.Stmt) bool {
		if c, ok := st.(*fortran.CallStmt); ok && call == nil {
			call = c
		}
		return true
	})
	copy(pair[:], s.CurrentUnit().Body)
	if call == nil || pair[1] == nil || len(s.Loops()) < 2 {
		t.Fatal("arc3d's main has no CALL, no two statements or no two loops")
	}
	argText := func(row *xform.Row) []string {
		var out []string
		stmts := 0
		for i, a := range row.Args {
			switch a.Kind {
			case xform.ArgLoop:
				out = append(out, fmt.Sprint(i+1))
			case xform.ArgInt:
				out = append(out, "2")
			case xform.ArgVar:
				out = append(out, s.Loops()[0].Do.Var.Name)
			case xform.ArgStmt:
				out = append(out, fmt.Sprint(pair[stmts].ID()))
				stmts++
			case xform.ArgCall:
				out = append(out, fmt.Sprint(call.ID()))
			}
		}
		return out
	}

	rowsOf := map[string]int{}
	commands := map[string]string{}
	help := HelpText()
	for i := range xform.Catalog {
		row := &xform.Catalog[i]
		if len(row.Commands) == 0 || len(row.Args) == 0 || row.New == nil {
			t.Fatalf("row %d (%s) is missing its names, arguments or constructor", i, row.Name)
		}
		for _, cmd := range row.Commands {
			if other, taken := commands[cmd]; taken {
				t.Errorf("%q names both %s and %s", cmd, other, row.Name)
			}
			commands[cmd] = row.Name
			tr, err := core.ParseTransformation(s, append([]string{cmd}, argText(row)...))
			if err != nil {
				t.Errorf("%s %v: %v", cmd, argText(row), err)
				continue
			}
			typ := reflect.TypeOf(tr).Name()
			if name, ok := types[typ]; !ok || name != row.Name || tr.Name() != row.Name {
				t.Errorf("%q built a %s named %q; its row says %q and the type's source %q", cmd, typ, tr.Name(), row.Name, name)
			}
			if cmd == row.Commands[0] {
				rowsOf[typ]++
			}
			if got := xform.RowOf(tr); got.Name != row.Name || got.AnnotatesOnly != row.AnnotatesOnly {
				t.Errorf("RowOf(%s) is not its row", typ)
			}
		}
		if !strings.Contains(help, " "+row.Usage()) {
			t.Errorf("help does not list %q", row.Usage())
		}
	}
	for typ, name := range types {
		if rowsOf[typ] != 1 {
			t.Errorf("%s (%q) has %d catalog rows, want exactly one", typ, name, rowsOf[typ])
		}
	}
}
