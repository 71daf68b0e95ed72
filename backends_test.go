// The pinned interpreter programs, run on both backends. interpCases
// and proofCases each reach one run-time error or one typing decision
// of the interpreter; every one the generator accepts must mean the
// same compiled: equal output where the interpreter succeeds, a failure
// where it fails.
package parascope

import (
	"context"
	"fmt"
	"maps"
	"slices"
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

// TestIntrinsicRows calls every row of the intrinsic table on INTEGER,
// REAL and DOUBLE PRECISION arguments holding negative values, zero,
// -0.0, NaN and both infinities — max and min with two and with five
// arguments, equal values among them — and runs the calls through all
// four readers of the table: the proof's typing and the interpreter's
// typed closures (the calls in the main program), the interpreter's
// tagged values (the same calls in a subroutine whose dummies the proof
// marks, so only the run-time tags type them) and the code generator.
// The three outputs must be equal byte for byte, and an INTEGER mod by
// zero must fail on both backends.
func TestIntrinsicRows(t *testing.T) {
	names := slices.Sorted(maps.Keys(interp.Intrinsics))
	if front := slices.Sorted(maps.Keys(fortran.Intrinsics)); !slices.Equal(names, front) {
		t.Fatalf("the table's names differ from the front end's:\n table %v\n front %v", names, front)
	}
	typed, tagged := intrinsicRowsPrograms(names)
	run := func(name, src string) (*fortran.File, string) {
		f, err := fortran.Parse(name+".f", src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		out, err := interp.RunCapture(f, 1, nil)
		if err != nil {
			t.Fatalf("%s: interpreter: %v", name, err)
		}
		return f, out
	}
	f, want := run("typed", typed)
	if _, got := run("tagged", tagged); got != want {
		t.Fatalf("tagged values differ from typed closures\ntagged:\n%s\ntyped:\n%s", got, want)
	}
	modByZero, _ := fortran.Parse("mod0.f", `      program p
      integer i, j
      i = 5
      j = 0
      print *, mod(i, j)
      end
`)
	if _, err := interp.RunCapture(modByZero, 1, nil); err == nil || !strings.Contains(err.Error(), "mod by zero") {
		t.Fatalf("interpreted mod(5, 0): %v, want a mod by zero", err)
	}
	if testing.Short() {
		t.Skip("the compiled half builds binaries; skipped in -short mode")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	compiled := func(f *fortran.File) (string, error) {
		art, err := codegen.Build(ctx, f, t.TempDir(), nil)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		res, err := codegen.Run(ctx, art, 1, nil, nil)
		if err != nil {
			return "", err
		}
		return res.Output, nil
	}
	if got, err := compiled(f); err != nil || got != want {
		t.Fatalf("compiled output differs from interpreted (%v)\ncompiled:\n%s\ninterpreted:\n%s", err, got, want)
	}
	if _, err := compiled(modByZero); err == nil || !strings.Contains(err.Error(), "mod by zero") {
		t.Fatalf("compiled mod(5, 0): %v, want a mod by zero", err)
	}
}

// intrinsicRowsPrograms writes TestIntrinsicRows' two programs: one
// that makes every call of the table's rows in its main program, and
// one that makes them in a subroutine whose INTEGER dummies receive the
// REAL and DOUBLE PRECISION arrays and whose REAL dummy the INTEGER
// one. Each call's line starts with the intrinsic's name.
func intrinsicRowsPrograms(names []string) (typed, tagged string) {
	var body strings.Builder
	line := func(format string, args ...any) { fmt.Fprintf(&body, "      "+format+"\n", args...) }
	arrays := []string{"i", "r", "d"}
	for _, name := range names {
		switch row := interp.Intrinsics[name]; row.Args {
		case 1:
			line("do k = 1, 7")
			line("   print *, '%s', %s(i(k)), %s(r(k)), %s(d(k))", name, name, name, name)
			line("enddo")
		default:
			line("do j = 1, 7")
			line("do k = 1, 7")
			for _, a := range arrays {
				for _, b := range arrays {
					call := fmt.Sprintf("%s(%s(j), %s(k))", name, a, b)
					if row.Args == interp.Variadic {
						call = fmt.Sprintf("%s(%s(j), %s(k), %s(k), %s(j), %s(j))", name, a, b, a, b, a)
						line("   print *, '%s', %s(%s(j), %s(k))", name, name, a, b)
					}
					if (name == "mod" || name == "amod") && a == "i" && b == "i" {
						// An INTEGER mod by zero fails: TestIntrinsicRows
						// runs it on its own.
						line("   if (i(k) .ne. 0) print *, '%s', %s", name, call)
						continue
					}
					line("   print *, '%s', %s", name, call)
				}
			}
			line("enddo")
			line("enddo")
		}
	}
	const head = `      integer i(7), j, k
      real r(7)
      double precision d(7)
      i(1) = -3
      i(2) = 0
      i(3) = 2
      i(4) = -7
      i(5) = 1
      i(6) = 5
      i(7) = 2
      r(1) = -2.5
      r(2) = 0.0
      r(3) = -0.0
      r(4) = 0.0/0.0
      r(5) = 1.0/0.0
      r(6) = -1.0/0.0
      r(7) = 1.5
      do k = 1, 7
         d(k) = 0.75d0*r(8 - k)
      enddo
`
	typed = "      program rows\n" + head + body.String() + "      end\n"
	tagged = "      program rows\n" + head + "      call calls(r, i, d)\n      end\n" +
		"      subroutine calls(r, i, d)\n      integer r(7), d(7), j, k\n      real i(7)\n" +
		body.String() + "      end\n"
	return typed, tagged
}

// TestOperatorRows applies every row of the operator tables — the
// arithmetic operators and the relations — to every pair of INTEGER,
// REAL and DOUBLE PRECISION operands holding negative values, zero,
// -0.0, NaN and both infinities, and the relations to CHARACTER
// operands too. Like TestIntrinsicRows it runs the expressions through
// the proof's typing and the typed closures, through tagged values and
// through the code generator, and wants the three outputs equal byte
// for byte; an INTEGER division by zero must fail on both backends. An
// INTEGER power's exponent is a constant, as the generator requires.
// Every binary operator the parser makes must be a row or one of the
// three that are not arithmetic or relational.
func TestOperatorRows(t *testing.T) {
	every, err := fortran.Parse("ops.f", `      program p
      logical l
      character*2 s
      l = 1+2-3*4/5**6 .lt. 1 .and. 1 .le. 2 .or. 1 .gt. 2
      l = 1 .ge. 2 .and. 1 .eq. 2 .or. 1 .ne. 2 .and. 1 < 2 .or. 1 <= 2
      l = 1 > 2 .and. 1 >= 2 .or. 1 == 2 .and. 1 /= 2
      s = 'a' // 'b'
      end
`)
	if err != nil {
		t.Fatal(err)
	}
	fortran.WalkStmts(every.Main().Body, func(s fortran.Stmt) bool {
		fortran.WalkExprs(s, func(e fortran.Expr) {
			x, ok := e.(*fortran.Binary)
			if !ok || interp.Arithmetic[x.Op] != nil || interp.Relations[x.Op] != nil {
				return
			}
			if x.Op != fortran.TokAnd && x.Op != fortran.TokOr && x.Op != fortran.TokConcat {
				t.Errorf("binary operator %v has no row", x.Op)
			}
		})
		return true
	})
	typed, tagged := operatorRowsPrograms()
	run := func(name, src string) (*fortran.File, string) {
		f, err := fortran.Parse(name+".f", src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		out, err := interp.RunCapture(f, 1, nil)
		if err != nil {
			t.Fatalf("%s: interpreter: %v", name, err)
		}
		return f, out
	}
	f, want := run("typed", typed)
	if _, got := run("tagged", tagged); got != want {
		t.Fatalf("tagged values differ from typed closures\ntagged:\n%s\ntyped:\n%s", got, want)
	}
	divByZero, _ := fortran.Parse("div0.f", `      program p
      integer i, j
      i = 5
      j = 0
      print *, i/j
      end
`)
	if _, err := interp.RunCapture(divByZero, 1, nil); err == nil || !strings.Contains(err.Error(), "integer division by zero") {
		t.Fatalf("interpreted 5/0: %v, want an integer division by zero", err)
	}
	if testing.Short() {
		t.Skip("the compiled half builds binaries; skipped in -short mode")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	compiled := func(f *fortran.File) (string, error) {
		art, err := codegen.Build(ctx, f, t.TempDir(), nil)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		res, err := codegen.Run(ctx, art, 1, nil, nil)
		if err != nil {
			return "", err
		}
		return res.Output, nil
	}
	if got, err := compiled(f); err != nil || got != want {
		t.Fatalf("compiled output differs from interpreted (%v)\ncompiled:\n%s\ninterpreted:\n%s", err, got, want)
	}
	if _, err := compiled(divByZero); err == nil || !strings.Contains(err.Error(), "integer division by zero") {
		t.Fatalf("compiled 5/0: %v, want an integer division by zero", err)
	}
}

// operatorRowsPrograms writes TestOperatorRows' two programs, laid out
// as intrinsicRowsPrograms' are: the expressions in the main program,
// and in a subroutine whose dummies the proof marks. Each line starts
// with the operator's spelling.
func operatorRowsPrograms() (typed, tagged string) {
	var body strings.Builder
	line := func(format string, args ...any) { fmt.Fprintf(&body, "      "+format+"\n", args...) }
	arrays := []string{"i", "r", "d"}
	ops := slices.Sorted(maps.Keys(interp.Arithmetic))
	ops = append(ops, slices.Sorted(maps.Keys(interp.Relations))...)
	for _, op := range ops {
		text := strings.Trim(op.String(), "'")
		line("do j = 1, 7")
		line("do k = 1, 7")
		for _, a := range arrays {
			for _, b := range arrays {
				expr := fmt.Sprintf("%s(j) %s %s(k)", a, text, b)
				switch {
				case op == fortran.TokPower && a == "i" && b == "i":
					// The type of INTEGER ** INTEGER is the exponent's sign.
					for _, k := range []string{"0", "3", "(-2)"} {
						line("   print *, '%s', i(j) ** %s", text, k)
					}
					continue
				case op == fortran.TokSlash && a == "i" && b == "i":
					// An INTEGER division by zero fails: TestOperatorRows
					// runs it on its own.
					line("   if (i(k) .ne. 0) print *, '%s', %s", text, expr)
					continue
				}
				line("   print *, '%s', %s", text, expr)
			}
		}
		line("enddo")
		line("enddo")
		if interp.Relations[op] != nil {
			line("do j = 1, 3")
			line("do k = 1, 3")
			line("   print *, '%s', s(j) %s s(k)", text, text)
			line("enddo")
			line("enddo")
		}
	}
	const head = `      integer i(7), j, k
      real r(7)
      double precision d(7)
      character*4 s(3)
      i(1) = -3
      i(2) = 0
      i(3) = 2
      i(4) = -7
      i(5) = 1
      i(6) = 5
      i(7) = 2
      r(1) = -2.5
      r(2) = 0.0
      r(3) = -0.0
      r(4) = 0.0/0.0
      r(5) = 1.0/0.0
      r(6) = -1.0/0.0
      r(7) = 1.5
      do k = 1, 7
         d(k) = 0.75d0*r(8 - k)
      enddo
      s(1) = 'ab'
      s(2) = 'b'
      s(3) = 'ab'
`
	typed = "      program rows\n" + head + body.String() + "      end\n"
	tagged = "      program rows\n" + head + "      call calls(r, i, d, s)\n      end\n" +
		"      subroutine calls(r, i, d, s)\n      integer r(7), d(7), j, k\n      real i(7)\n" +
		"      character*4 s(3)\n" + body.String() + "      end\n"
	return typed, tagged
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
