package repl

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"sort"
	"strconv"
	"strings"
	"testing"

	"parascope/internal/core"
	"parascope/internal/workloads"
)

// dispatchedVerbs reads the verbs Execute's `switch cmd` has a case
// for out of repl.go itself, so the table is compared with the
// dispatcher and not with a second hand-kept list.
func dispatchedVerbs(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "repl.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok {
			return true
		}
		if id, ok := sw.Tag.(*ast.Ident); !ok || id.Name != "cmd" {
			return true
		}
		for _, c := range sw.Body.List {
			for _, e := range c.(*ast.CaseClause).List {
				verb, err := strconv.Unquote(e.(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				got[verb] = true
			}
		}
		return false
	})
	if len(got) == 0 {
		t.Fatal("found no `switch cmd` in repl.go")
	}
	return got
}

// TestVerbTableMatchesDispatcher: every verb the dispatcher accepts has
// a class, and every classed verb dispatches.
func TestVerbTableMatchesDispatcher(t *testing.T) {
	dispatched := dispatchedVerbs(t)
	for verb := range dispatched {
		if _, ok := Verbs[verb]; !ok {
			t.Errorf("Execute has a case for %q, which the verb table does not class", verb)
		}
	}
	s, err := workloads.ByName("onedim").Session()
	if err != nil {
		t.Fatal(err)
	}
	r := New(s, io.Discard)
	for verb, class := range Verbs {
		if !dispatched[verb] {
			t.Errorf("the verb table classes %q (%d), which Execute has no case for", verb, class)
		}
		if v, c := Verb("  " + strings.ToUpper(verb) + " x"); v != verb || c != class {
			t.Errorf("Verb(%q) = %q, %d; want %q, %d", verb, v, c, verb, class)
		}
		if verb == "plan" {
			continue // a real search; TestPlanVerbs runs it
		}
		if err := r.Execute(verb); err != nil && strings.Contains(err.Error(), "no dispatcher") {
			t.Errorf("%s: %v", verb, err)
		}
	}
	if err := r.Execute("frobnicate"); err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Errorf("an unclassed verb must be an unknown command, got %v", err)
	}
	if v, c := Verb("frobnicate 1"); v != "frobnicate" || c != Read {
		t.Errorf("Verb of an unknown line = %q, %d; want it classed Read (rejected without touching state)", v, c)
	}
	if v, c := Verb("   "); v != "" || c != Read {
		t.Errorf("Verb of a blank line = %q, %d", v, c)
	}
}

// parseDir parses the non-test Go files of a directory.
func parseDir(t *testing.T, dir string) []*ast.File {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	return files
}

// stringLits calls fn with every string literal under n, unquoted.
func stringLits(t *testing.T, n ast.Node, fn func(string)) {
	t.Helper()
	ast.Inspect(n, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			s, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			fn(s)
		}
		return true
	})
}

// TestHostsHoldNoVerbText: a verb is implemented once. The hosts of the
// editor — the daemon and the remote client — may route a line by its
// verb, but what a verb accepts, rejects and prints is written in the
// REPL, core and view only. Read off the sources: the daemon's artifact
// table is keyed by Read verbs of the table here; neither host carries
// a string the editor formats a usage, an error or a listing with; and
// cmd/ped names no verb but the two that end its own loop.
func TestHostsHoldNoVerbText(t *testing.T) {
	// The editor's texts: every string literal of repl, core and view
	// that reads as text — words apart or a formatting verb — and not as
	// a token.
	editor := map[string]string{}
	for _, dir := range []string{".", "../core", "../view"} {
		for _, f := range parseDir(t, dir) {
			stringLits(t, f, func(s string) {
				if strings.ContainsAny(s, " %") && strings.ContainsAny(s, "abcdefghijklmnopqrstuvwxyz") {
					editor[s] = dir
				}
			})
		}
	}
	for _, want := range []string{"usage: unit <name>", "no unit named %s", "missing %s", "bad %s %q",
		"loop %d out of range (unit has %d)", "unknown class %q", "%s%s %s\n", "no loop selected",
		"[compiled: %s]\n", "  name       class      deps      liveout note\n"} {
		if editor[want] == "" {
			t.Fatalf("the walk over repl, core and view did not collect %q; it checks nothing", want)
		}
	}

	server, ped := parseDir(t, "../server"), parseDir(t, "../../cmd/ped")
	for _, f := range append(append([]*ast.File{}, server...), ped...) {
		stringLits(t, f, func(s string) {
			if from := editor[s]; from != "" {
				t.Errorf("package %s carries the editor's text %q (written in %s)", f.Name.Name, s, from)
			}
		})
	}
	for _, f := range ped {
		stringLits(t, f, func(s string) {
			if _, verb := Verbs[s]; verb && s != "quit" && s != "exit" {
				t.Errorf("cmd/ped names the verb %q; every line but quit and exit goes to the session as it is", s)
			}
		})
	}

	var keys []string
	for _, f := range server {
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.ValueSpec)
			if !ok || len(spec.Names) != 1 || spec.Names[0].Name != "artifactReads" || len(spec.Values) != 1 {
				return true
			}
			for _, el := range spec.Values[0].(*ast.CompositeLit).Elts {
				stringLits(t, el.(*ast.KeyValueExpr).Key, func(s string) { keys = append(keys, s) })
			}
			return false
		})
	}
	if len(keys) == 0 {
		t.Fatal("found no artifactReads table in internal/server")
	}
	for _, verb := range keys {
		if class, ok := Verbs[verb]; !ok || class != Read {
			t.Errorf("the daemon's artifacts answer %q, which is not a Read verb of the table", verb)
		}
	}
}

// fingerprint renders everything a verb could change. global is the
// session-wide state: the program, every unit's dependence marks, the
// analysis options, the undo depth and the interaction counters (which
// count every assertion and reclassification ever made). local is what
// hangs off the cursor: where it stands, and the assertions and
// variable classes visible from there.
func fingerprint(s *core.Session) (global, local string) {
	var g strings.Builder
	fmt.Fprintf(&g, "hash %s undo %d mutated %v opts %+v conservative %v stats %+v\n",
		s.SourceHash(), len(s.UndoStack()), s.Mutated(), s.Opts, s.Conservative, s.Stats)
	for _, u := range s.File.Units {
		for i, d := range s.StateOf(u).Deps.Deps {
			if d.Mark != 0 {
				fmt.Fprintf(&g, "%s dep %d mark %d\n", u.Name, i, d.Mark)
			}
		}
	}
	var l strings.Builder
	fmt.Fprintf(&l, "unit %s", s.CurrentUnit().Name)
	if sel := s.SelectedLoop(); sel != nil {
		fmt.Fprintf(&l, " loop at line %d", sel.Do.Line())
	}
	fmt.Fprintf(&l, "\nassertions %v\n", s.Assertions())
	for _, v := range s.VariablePane() {
		fmt.Fprintf(&l, "%s:%d ", v.Sym.Name, v.Class)
	}
	return g.String(), l.String()
}

// readLines exercises every verb classed Read, with and without
// arguments; an erroring read must leave the session alone too.
var readLines = []string{
	"help", "units", "callgraph", "loops", "window", "source", "source loops",
	"source parallel", "source contains do", "source nosuch", "deps", "deps carried",
	"deps true anti output", "deps on a", "deps nosuch", "vars", "check parallelize 1",
	"check interchange 1 2", "check nosuch 1", "check parallelize 99", "perf", "rank",
	"advise", "endpoints 1", "endpoints 9999", "compose", "history", "save", "legend",
	"quit", "exit", "frobnicate", "",
}

var cursorLines = []string{"loop 1", "loop 2", "loop 99", "next", "unit nosuch", "unit %s", "loop 1", "next"}

// TestVerbClassesAreTrue runs, on every suite workload, each read line
// and each cursor line against a session that already carries a
// selection, a mark, an assertion, a reclassification, an analysis
// toggle and an undoable transformation: a read changes nothing, a
// cursor move changes nothing but the cursor.
func TestVerbClassesAreTrue(t *testing.T) {
	covered := map[string]bool{}
	for _, l := range append(append([]string{}, readLines...), cursorLines...) {
		v, _ := Verb(l)
		covered[v] = true
	}
	var missing []string
	for verb, class := range Verbs {
		if (class == Read || class == Cursor) && !covered[verb] {
			missing = append(missing, verb)
		}
	}
	if sort.Strings(missing); len(missing) > 0 {
		t.Fatalf("no line exercises %v", missing)
	}

	for _, w := range workloads.All() {
		s, err := w.Session()
		if err != nil {
			t.Fatal(err)
		}
		r := New(s, io.Discard)
		// Whatever of this a workload rejects (no variable n, nothing to
		// parallelize) it rejects; the rest is state for a read to disturb.
		for _, l := range []string{"loop 1", "mark 1 reject", "assert n .ge. 1", "classify a private",
			"set ranges off", "apply parallelize 1", "loop 1"} {
			_ = r.Execute(l)
		}
		for _, line := range readLines {
			if _, class := Verb(line); class != Read {
				t.Fatalf("%q is not classed Read", line)
			}
			g0, l0 := fingerprint(s)
			_ = r.Execute(line)
			if g1, l1 := fingerprint(s); g1 != g0 || l1 != l0 {
				t.Errorf("%s: read %q changed the session:\n--- before\n%s%s\n--- after\n%s%s", w.Name, line, g0, l0, g1, l1)
			}
		}
		last := s.File.Units[len(s.File.Units)-1].Name
		for _, line := range cursorLines {
			if strings.Contains(line, "%s") {
				line = fmt.Sprintf(line, last)
			}
			if _, class := Verb(line); class != Cursor {
				t.Fatalf("%q is not classed Cursor", line)
			}
			g0, _ := fingerprint(s)
			_ = r.Execute(line)
			if g1, _ := fingerprint(s); g1 != g0 {
				t.Errorf("%s: cursor move %q changed more than the cursor:\n--- before\n%s\n--- after\n%s", w.Name, line, g0, g1)
			}
		}
	}
}
