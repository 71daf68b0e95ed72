// Pinned power-steering text. The transformation grammar and the
// verdicts are read by users, journals and plan steps; this test drives
// the REPL over the whole workload suite and compares what check/apply
// print with what the tree printed before the catalog and the DOALL
// verdict were each given one home.
package parascope

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"parascope/internal/fortran"
	"parascope/internal/repl"
	"parascope/internal/workloads"
)

// pinnedXforms is the command vocabulary of the recording tree, aliases
// included, with the arguments each takes after the loop ordinal.
var pinnedXforms = []struct{ cmd, arg string }{
	{"parallelize", ""}, {"serialize", ""}, {"interchange", ""}, {"reverse", ""},
	{"distribute", ""}, {"fuse", "next"}, {"skew", "int"}, {"stripmine", "int"},
	{"strip-mine", "int"}, {"unroll", "int"}, {"unrolljam", "int"}, {"unroll-and-jam", "int"},
	{"peel", ""}, {"privatize", "var"}, {"privatizearray", "var"}, {"privatize-array", "var"},
	{"expand", "var"}, {"reductions", ""}, {"normalize", ""},
}

// transcript runs one line and records what it printed or how it failed.
func transcript(b *bytes.Buffer, r *repl.REPL, line string) {
	out := r.Out.(*bytes.Buffer)
	out.Reset()
	if err := r.Execute(line); err != nil {
		fmt.Fprintf(b, "%s\n! %v\n", line, err)
		return
	}
	fmt.Fprintf(b, "%s\n%s", line, out.String())
}

// loopVars names every variable the loop's statements mention, sorted.
func loopVars(do *fortran.DoStmt) []string {
	seen := map[string]bool{do.Var.Name: true}
	fortran.WalkStmts(do.Body, func(s fortran.Stmt) bool {
		fortran.WalkExprs(s, func(e fortran.Expr) {
			if vr, ok := e.(*fortran.VarRef); ok {
				seen[vr.Name] = true
			}
		})
		return true
	})
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// verdictTranscript checks every pinned transformation on every loop of
// every unit (and inline on every CALL), then applies reductions and
// parallelize loop by loop, then replays the workload's documented
// session and appends the verdicts its history recorded.
func verdictTranscript(t *testing.T, w *workloads.Workload) string {
	var b bytes.Buffer
	open := func() *repl.REPL {
		s, err := w.Session()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		return repl.New(s, &bytes.Buffer{})
	}
	r := open()
	for _, u := range r.Session.File.Units {
		transcript(&b, r, "unit "+u.Name)
		for i, l := range r.Session.Loops() {
			n := i + 1
			for _, x := range pinnedXforms {
				switch x.arg {
				case "":
					transcript(&b, r, fmt.Sprintf("check %s %d", x.cmd, n))
				case "next":
					transcript(&b, r, fmt.Sprintf("check %s %d %d", x.cmd, n, n+1))
				case "int":
					transcript(&b, r, fmt.Sprintf("check %s %d 2", x.cmd, n))
				case "var":
					for _, v := range loopVars(l.Do) {
						transcript(&b, r, fmt.Sprintf("check %s %d %s", x.cmd, n, v))
					}
				}
			}
		}
		fortran.WalkStmts(u.Body, func(s fortran.Stmt) bool {
			if _, ok := s.(*fortran.CallStmt); ok {
				transcript(&b, r, fmt.Sprintf("check inline %d", s.ID()))
			}
			return true
		})
	}
	r = open()
	for _, u := range r.Session.File.Units {
		transcript(&b, r, "unit "+u.Name)
		for i := range r.Session.Loops() {
			transcript(&b, r, fmt.Sprintf("apply reductions %d", i+1))
			transcript(&b, r, fmt.Sprintf("apply parallelize %d", i+1))
			transcript(&b, r, fmt.Sprintf("check parallelize %d", i+1))
			transcript(&b, r, fmt.Sprintf("apply serialize %d", i+1))
			transcript(&b, r, fmt.Sprintf("apply parallelize %d", i+1))
		}
	}
	if w.Script != nil {
		s := open().Session
		if _, err := w.Script(s); err != nil {
			t.Fatalf("%s: script: %v", w.Name, err)
		}
		for _, h := range s.History {
			if strings.HasPrefix(h, "apply ") {
				fmt.Fprintln(&b, h)
			}
		}
	}
	return b.String()
}

// TestVerdictStringsPinned: every check/apply verdict of the suite, as
// the tree at commit 5901599 (the parent of the PR that introduced
// xform.Catalog and xform.Doall) printed them. A failure prints the
// per-workload digests; run the same test on that commit and diff the
// transcripts (-v logs the moved one).
func TestVerdictStringsPinned(t *testing.T) {
	want := map[string]string{
		"spec77": "4e4a274929da1c98", "pneoss": "5a9d294dd81bd598", "nxsns": "00c65e86082c27a2",
		"arc3d": "ef15bf1360d3a8a3", "slab2d": "10b0b1c2f2de2a6e", "onedim": "421fa45de60cff9c",
		"shear": "a29e4efdd881e544", "direct": "b4d3f5157f12db69", "interior": "c8a6e710a01b29cf",
	}
	for _, w := range workloads.All() {
		text := verdictTranscript(t, w)
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(text)))[:16]
		if got != want[w.Name] {
			t.Errorf("%s: verdict transcript moved: digest %s, want %s", w.Name, got, want[w.Name])
			t.Logf("%s transcript:\n%s", w.Name, text)
		}
	}
}

// TestParseErrorsPinned: what the transformation grammar says to a line
// it cannot resolve, on arc3d's main program, byte for byte as commit
// 5901599 said it (testdata/parse_errors.txt was written by that tree).
func TestParseErrorsPinned(t *testing.T) {
	s, err := workloads.ByName("arc3d").Session()
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, verb := range []string{"check", "apply"} {
		lines = append(lines, verb, verb+" nosuch 1", verb+" scalar-expand 1 t", verb+" recognize-reductions 1")
		for _, x := range pinnedXforms {
			lines = append(lines, verb+" "+x.cmd, verb+" "+x.cmd+" x", verb+" "+x.cmd+" 0", verb+" "+x.cmd+" 99")
			switch x.arg {
			case "next":
				lines = append(lines, verb+" "+x.cmd+" 1", verb+" "+x.cmd+" 1 x", verb+" "+x.cmd+" 1 99")
			case "int":
				lines = append(lines, verb+" "+x.cmd+" 1", verb+" "+x.cmd+" 1 x")
			case "var":
				lines = append(lines, verb+" "+x.cmd+" 1", verb+" "+x.cmd+" 1 nosuchvar")
			}
		}
		lines = append(lines, verb+" inline", verb+" inline x", verb+" inline 1", verb+" inline 9999")
	}
	var got bytes.Buffer
	r := repl.New(s, &bytes.Buffer{})
	for _, line := range lines {
		if err := r.Execute(line); err != nil {
			fmt.Fprintf(&got, "%s → %v\n", line, err)
		} else {
			t.Errorf("%q: no error", line)
		}
	}
	want, err := os.ReadFile("testdata/parse_errors.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("parse errors moved:\n%s", lineDiff(string(want), got.String()))
	}
}

// lineDiff lists the lines of want and got that differ.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %s\n  got  %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
