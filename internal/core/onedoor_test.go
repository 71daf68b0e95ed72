package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestOneDoorToTheAnalyses: a mutation brings its unit up to date through
// Session.update and nothing else, and every change to the analysis ends
// in one rule, spread. Read off the package's sources: the whole-unit
// analysis is called only by the pool that fans it out (analyzeUnits,
// which spread goes through); spread by update and by AnalyzeAll — a cold
// open goes through spread too, with nothing kept; reach and the two
// statement-granular splices by update alone; and LastReanalysis is
// written by the whole-program analysis, by update, and by Undo's roll-up
// of the updates it made. The two views made on demand have one door
// each: a unit is priced only by EstimateOf, and printed only by image,
// by refreshImage, by the annotation check of an undo (restores) and by
// Undo's split of a planted entry — the last two print texts that are
// not the live image.
func TestOneDoorToTheAnalyses(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	guarded := map[string][]string{ // callee → the functions that may call it
		"analyzeUnit":  {"analyzeUnits"},
		"spread":       {"update", "AnalyzeAll"},
		"reach":        {"update"},
		"Patch":        {"update"},     // dep.Patch
		"PatchStmt":    {"update"},     // (*dataflow.Analysis).PatchStmt
		"EstimateUnit": {"EstimateOf"}, // (*perf.Estimator).EstimateUnit
		"imageOf":      {"image", "refreshImage", "restores", "Undo"},
	}
	writers := []string{"AnalyzeAll", "Undo", "update"}

	calls := map[string]map[string]bool{} // callee → callers seen
	var assigns []string
	for name, f := range pkgs["core"].Files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					var callee string
					switch f := x.Fun.(type) {
					case *ast.SelectorExpr:
						callee = f.Sel.Name
					case *ast.Ident:
						callee = f.Name
					}
					if guarded[callee] != nil {
						if calls[callee] == nil {
							calls[callee] = map[string]bool{}
						}
						calls[callee][fn.Name.Name] = true
					}
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "LastReanalysis" {
							assigns = append(assigns, fn.Name.Name)
						}
					}
				}
				return true
			})
		}
	}
	for callee, allowed := range guarded {
		if len(calls[callee]) == 0 {
			t.Errorf("nothing calls %s: the walk checks nothing", callee)
		}
		for caller := range calls[callee] {
			if !slices.Contains(allowed, caller) {
				t.Errorf("%s calls %s; only %v may", caller, callee, allowed)
			}
		}
	}
	sort.Strings(assigns)
	if strings.Join(assigns, " ") != strings.Join(writers, " ") {
		t.Errorf("LastReanalysis is assigned in %v, want once each in %v", assigns, writers)
	}
}
