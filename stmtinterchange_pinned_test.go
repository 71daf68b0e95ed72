// Pinned statement-interchange verdicts. Statement interchange is the
// one check that asks about two statements rather than a loop, so it
// reads dependences a loop pane never shows; this test drives the
// REPL's check over every adjacent pair of statements the programs have
// and compares the transcripts with the ones recorded before the
// dependence graph stopped holding edges between statements with no
// common loop.
package parascope

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"parascope/internal/fortran"
	"parascope/internal/repl"
)

// stmtLists returns every statement list of body: body itself, then,
// in walk order, each DO body and each IF's then and else lists.
func stmtLists(body []fortran.Stmt) [][]fortran.Stmt {
	lists := [][]fortran.Stmt{body}
	fortran.WalkStmts(body, func(s fortran.Stmt) bool {
		switch s := s.(type) {
		case *fortran.DoStmt:
			lists = append(lists, s.Body)
		case *fortran.IfStmt:
			lists = append(lists, s.Then, s.Else)
		}
		return true
	})
	return lists
}

// TestStmtInterchangePinned: `check statement-interchange a b` for
// every pair of adjacent statements of every statement list of every
// unit of digestPrograms, as the tree at commit cf66c0f printed it. A
// failure logs the moved transcript; run the test on that commit with
// -v and diff the two.
func TestStmtInterchangePinned(t *testing.T) {
	want := map[string]string{
		"spec77": "5d513253b5fa0f5b", "pneoss": "986a72884cfb01a9", "nxsns": "1e38a407c8b8bf4f",
		"arc3d": "20257f314e13fb30", "slab2d": "6cc4b15cf6b15547", "onedim": "22fd69e0ca973e96",
		"shear": "a636dd9c18827be1", "direct": "9b6925f99dbd8d31", "interior": "54e946fd5eeaba8c",
		"constprop": "c237f5e908071243", "callheavy": "64ed20fb33fb3554", "condconst": "8ddad78dce273e10",
	}
	for _, w := range digestPrograms() {
		s, err := w.Session()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		r := repl.New(s, &bytes.Buffer{})
		var b bytes.Buffer
		for _, u := range s.File.Units {
			transcript(&b, r, "unit "+u.Name)
			for _, list := range stmtLists(u.Body) {
				for i := 0; i+1 < len(list); i++ {
					transcript(&b, r, fmt.Sprintf("check statement-interchange %d %d", list[i].ID(), list[i+1].ID()))
				}
			}
		}
		got := fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))[:16]
		if got != want[w.Name] {
			t.Errorf("%s: statement-interchange transcript moved: digest %s, want %s", w.Name, got, want[w.Name])
			if testing.Verbose() {
				t.Logf("%s transcript:\n%s", w.Name, b.String())
			}
		}
	}
}
