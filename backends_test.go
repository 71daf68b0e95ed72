// The pinned interpreter programs, run on both backends. interpCases
// and proofCases each reach one run-time error or one typing decision
// of the interpreter; every one the generator accepts must mean the
// same compiled: equal output where the interpreter succeeds, a failure
// where it fails.
package parascope

import (
	"context"
	"strings"
	"testing"
	"time"

	"parascope/internal/codegen"
	"parascope/internal/fortran"
	"parascope/internal/interp"
)

func TestPinnedProgramsOnBothBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles binaries; skipped in -short mode")
	}
	type program struct {
		name, src string
		workers   int
		input     []float64
		limit     int64
	}
	var programs []program
	for _, c := range proofCases {
		programs = append(programs, program{c.name, c.src, 3, nil, 0})
	}
	for _, c := range interpCases {
		programs = append(programs, program{c.name, c.src, max(c.workers, 1), c.input, c.limit})
	}
	cache := t.TempDir()
	for _, p := range programs {
		t.Run(p.name, func(t *testing.T) {
			if p.limit > 0 {
				t.Skip("a statement limit is the interpreter's governor; a compiled run has the wall clock")
			}
			f, err := fortran.Parse(p.name+".f", p.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if strings.HasSuffix(p.name, "!par") {
				markFirstDoall(f)
			}
			if _, err := codegen.Generate(f); err != nil {
				t.Skip(err)
			}
			art, err := codegen.Build(context.Background(), f, cache, nil)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			want, ierr := interp.RunCapture(f, p.workers, p.input)
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			got, cerr := codegen.Run(ctx, art, p.workers, p.input, nil)
			switch {
			case ierr != nil && cerr == nil:
				t.Fatalf("the interpreter fails (%v), the compiled program does not:\n%s", ierr, got.Output)
			case ierr == nil && cerr != nil:
				t.Fatalf("the compiled program fails (%v), the interpreter prints:\n%s", cerr, want)
			case ierr == nil && got.Output != want:
				t.Fatalf("compiled output differs from interpreter\ncompiled:\n%s\ninterp:\n%s", got.Output, want)
			}
		})
	}
}

// markFirstDoall marks a "!par" case's first DO loop as TestInterpErrors
// does: DOALL, with the loop variable, j and w private and s, big and k
// reductions.
func markFirstDoall(f *fortran.File) {
	var do *fortran.DoStmt
	fortran.WalkStmts(f.Main().Body, func(s fortran.Stmt) bool {
		if d, ok := s.(*fortran.DoStmt); ok && do == nil {
			do = d
		}
		return do == nil
	})
	if do == nil {
		do = f.Units[1].Body[0].(*fortran.DoStmt)
	}
	do.Parallel = true
	u := do.Var.Unit
	do.Private = []*fortran.Symbol{do.Var}
	for _, name := range []string{"j", "w"} {
		if sym := u.Lookup(name); sym != nil {
			do.Private = append(do.Private, sym)
		}
	}
	if u.Lookup("big") != nil {
		do.Reductions = []fortran.Reduction{
			{Sym: u.Lookup("s"), Op: fortran.TokPlus},
			{Sym: u.Lookup("big"), Op: fortran.TokIdent, OpName: "max"},
			{Sym: u.Lookup("k"), Op: fortran.TokPlus},
		}
	}
}
