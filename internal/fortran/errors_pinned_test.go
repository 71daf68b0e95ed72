package fortran_test

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"parascope/internal/fortran"
)

// errorListCases mix lexer and parser errors in one text: a parser error
// above a lexer error must still be listed after it, and a parse that
// stops early (a bad unit header, text after END) must still list the
// lexer errors of the statements it never reached.
var errorListCases = []string{
	// Parser error on line 2, lexer error on line 3.
	"      program p\n      x = (1 +\n      y = 'open\n      end\n",
	// Both kinds in one statement.
	"      program p\n      x = .foo. + \n      end\n",
	"      program p\n      x = 1 .lt 2\n      y = 3 @ 4\n      end\n",
	// A bad unit header stops the parse; the second unit's lexer errors stand.
	"      integer x\n      x = 1\n      end\n      program q\n      y = 'open\n      z = #\n      end\n",
	"      x = 1 .bad. 2\n      program q\n      y = 1 .neq. 2\n      end\n",
	// A unit, then junk after its END with a lexer error.
	"      subroutine s(a)\n      a = 1\n      end\n      a = 2 ? 3\n",
	// A missing ENDDO with a lexer error after it.
	"      program p\n      do i = 1, 10\n      a(i) = 'x\n      end\n",
	// Continuation lines and labels carry the error positions.
	"      program p\n      x = 1 +\n     &    $ 2 ~\n 10   y = 'q'' \n      goto 10\n      end\n",
	// Lexer errors only.
	"      program p\n      x = 1 %\n      y = 2 .xx.\n      end\n",
	// Parser errors only.
	"      program p\n      if (x .gt. 0 then\n      endif\n      end\n",
	// A statement of nothing but a bad character.
	"      @\n",
	"      program p\n      ^\n      end\n",
}

// stmtCases are edit texts for ParseStmtIn: statements typed at column 1,
// blocks, and trailing statements with lexer errors.
var stmtCases = []string{
	"x = 1",
	"call sweep(a, 'open",
	"continue",
	"c just a comment",
	"a(i) = x @ 2",
	"do i = 1, n\n   a(i) = 'q\nenddo",
	"do i = 1, n\n   a(i) = x\n",
	"x = 1\ny = .zz.",
	"if (x .gt. 0) then\n   x = 1 +\nelse\n   x = $\nendif",
	"x = (1 +",
	"",
}

// ctxProgram is the unit ParseStmtIn edits, parsed afresh for each text.
const ctxProgram = "      program ctx\n      integer i, n\n      real a(10), x, y\n      do i = 1, n\n         a(i) = x\n      enddo\n      end\n"

// TestParseErrorListsPinned pins every error — position and message, in
// order — that Parse, ParseUnit and ParseStmtIn return for FuzzParse's
// seed corpus, robust_test.go's hostile sources and hand-written texts
// that mix lexer and parser errors. testdata/parse_error_lists.golden
// was written by the tree that scanned every statement into one token
// slab before parsing.
func TestParseErrorListsPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/parse_error_lists.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := errorListTranscript(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) || i < len(w); i++ {
			var gl, wl string
			if i < len(g) {
				gl = g[i]
			}
			if i < len(w) {
				wl = w[i]
			}
			if gl != wl {
				t.Errorf("line %d:\n  want %s\n  got  %s", i+1, wl, gl)
			}
		}
	}
}

// errorListTranscript is one line per text and entry point, listing the
// errors returned.
func errorListTranscript() string {
	var b strings.Builder
	for _, set := range []struct {
		name string
		srcs []string
	}{
		{"seed", fuzzParseSeeds()},
		{"hostile", fortran.HostileSources()},
		{"mixed", errorListCases},
	} {
		for i, src := range set.srcs {
			_, err := fortran.Parse("pin.f", src)
			fmt.Fprintf(&b, "%s %d Parse: %s\n", set.name, i, errorLine(err))
			_, err = fortran.MustParse("ctx.f", ctxProgram).ParseUnit(src, 1)
			fmt.Fprintf(&b, "%s %d ParseUnit: %s\n", set.name, i, errorLine(err))
			ctx := fortran.MustParse("ctx.f", ctxProgram)
			_, err = fortran.ParseStmtIn(ctx, ctx.Units[0], src)
			fmt.Fprintf(&b, "%s %d ParseStmtIn: %s\n", set.name, i, errorLine(err))
		}
	}
	for i, text := range stmtCases {
		ctx := fortran.MustParse("ctx.f", ctxProgram)
		_, err := fortran.ParseStmtIn(ctx, ctx.Units[0], text)
		fmt.Fprintf(&b, "stmt %d ParseStmtIn: %s\n", i, errorLine(err))
	}
	return b.String()
}

// errorLine renders every error of err in order, "ok" for none.
func errorLine(err error) string {
	if err == nil {
		return "ok"
	}
	var list fortran.ErrorList
	var one *fortran.Error
	switch {
	case errors.As(err, &list):
	case errors.As(err, &one):
		list = fortran.ErrorList{one}
	default:
		return "error " + err.Error()
	}
	parts := make([]string, len(list))
	for i, e := range list {
		parts[i] = e.Pos.String() + " " + e.Msg
	}
	return strings.Join(parts, " | ")
}
