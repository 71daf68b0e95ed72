package fortran

import (
	"strings"
	"testing"
	"unsafe"
)

const tinyProgram = `
      program main
      integer i, n
      real a(100), b(100), s
      parameter (n = 100)
      s = 0.0
      do 10 i = 1, n
         a(i) = b(i) + 1.0
         s = s + a(i)
 10   continue
      print *, s
      end
`

func TestParseTinyProgram(t *testing.T) {
	f, err := Parse("tiny.f", tinyProgram)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(f.Units) != 1 {
		t.Fatalf("got %d units, want 1", len(f.Units))
	}
	u := f.Units[0]
	if u.Kind != UnitProgram || u.Name != "main" {
		t.Fatalf("unit = %s %s, want program main", u.Kind, u.Name)
	}
	if got := len(u.Body); got != 3 {
		t.Fatalf("body has %d stmts, want 3 (assign, do, print)", got)
	}
	do, ok := u.Body[1].(*DoStmt)
	if !ok {
		t.Fatalf("stmt 2 is %T, want *DoStmt", u.Body[1])
	}
	if do.Var.Name != "i" {
		t.Errorf("loop var = %s, want i", do.Var.Name)
	}
	if len(do.Body) != 2 {
		t.Errorf("loop body has %d stmts, want 2 (continue terminator dropped)", len(do.Body))
	}
	a := u.Lookup("a")
	if a == nil || a.Kind != SymArray || len(a.Dims) != 1 {
		t.Errorf("symbol a = %+v, want 1-d array", a)
	}
	n := u.Lookup("n")
	if n == nil || n.Kind != SymParam {
		t.Errorf("symbol n = %+v, want parameter", n)
	}
}

func TestParseSubroutineAndCall(t *testing.T) {
	src := `
      program main
      real x(10)
      call init(x, 10)
      end
      subroutine init(a, n)
      integer n, i
      real a(n)
      do i = 1, n
         a(i) = 0.0
      enddo
      return
      end
`
	f, err := Parse("sub.f", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(f.Units) != 2 {
		t.Fatalf("got %d units, want 2", len(f.Units))
	}
	call, ok := f.Units[0].Body[0].(*CallStmt)
	if !ok {
		t.Fatalf("first stmt is %T, want *CallStmt", f.Units[0].Body[0])
	}
	if call.Callee == nil || call.Callee.Name != "init" {
		t.Errorf("call not resolved to init: %+v", call.Callee)
	}
	sub := f.Units[1]
	if len(sub.Args) != 2 || sub.Args[0].Name != "a" {
		t.Errorf("args = %v", sub.Args)
	}
	if !sub.Args[0].Dummy || sub.Args[0].Kind != SymArray {
		t.Errorf("arg a should be a dummy array: %+v", sub.Args[0])
	}
}

func TestParseIfForms(t *testing.T) {
	src := `
      program main
      integer i, j
      i = 1
      j = 0
      if (i .gt. 0) j = 1
      if (i .gt. 0) then
         j = 2
      else if (i .lt. 0) then
         j = 3
      else
         j = 4
      endif
      end
`
	f, err := Parse("ifs.f", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	body := f.Units[0].Body
	if len(body) != 4 {
		t.Fatalf("body has %d stmts, want 4", len(body))
	}
	lif, ok := body[2].(*IfStmt)
	if !ok || len(lif.Then) != 1 || len(lif.Else) != 0 {
		t.Fatalf("logical IF mis-parsed: %+v", body[2])
	}
	bif, ok := body[3].(*IfStmt)
	if !ok {
		t.Fatalf("block IF mis-parsed: %T", body[3])
	}
	if len(bif.Then) != 1 || len(bif.Else) != 1 {
		t.Fatalf("block IF then=%d else=%d, want 1,1", len(bif.Then), len(bif.Else))
	}
	elif, ok := bif.Else[0].(*IfStmt)
	if !ok || len(elif.Else) != 1 {
		t.Fatalf("else-if chain mis-parsed: %+v", bif.Else[0])
	}
}

func TestParseExpressions(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"x = a + b*c", "x = a + b*c"},
		{"x = (a+b)*c", "x = (a + b)*c"},
		{"x = a**2 + b**2", "x = a**2 + b**2"},
		{"x = -a + b", "x = -a + b"},
		{"x = a .lt. b .and. c .ge. d", "x = a .lt. b .and. c .ge. d"},
		{"x = mod(i, 2)", "x = mod(i,2)"},
		{"x = a(i+1, j-1)", "x = a(i + 1,j - 1)"},
		{"x = 2.5e-3", "x = 2.5e-3"},
		{"x = 1.5d0", "x = 1.5d0"},
		{"x = a - b - c", "x = a - b - c"},
		{"x = a - (b - c)", "x = a - (b - c)"},
		{"x = a/(b*c)", "x = a/(b*c)"},
	}
	for _, c := range cases {
		src := "      program main\n      real a(10,10)\n      " + c.src + "\n      end\n"
		f, err := Parse("expr.f", src)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		as := f.Units[0].Body[0].(*AssignStmt)
		if got := StmtText(as); got != c.want {
			t.Errorf("%s: printed %q, want %q", c.src, got, c.want)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	f, err := Parse("tiny.f", tinyProgram)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	printed := Print(f)
	f2, err := Parse("tiny2.f", printed)
	if err != nil {
		t.Fatalf("reparse of printed output failed: %v\n%s", err, printed)
	}
	printed2 := Print(f2)
	if printed != printed2 {
		t.Errorf("print not idempotent:\n--- first ---\n%s\n--- second ---\n%s", printed, printed2)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"      program main\n      x = (1 + \n      end\n",
		"      program main\n      if (x .gt. 0 then\n      endif\n      end\n",
		"      program main\n      n = 1\n      n(3) = 2\n      end\n",
	}
	for _, src := range cases {
		if _, err := Parse("bad.f", src); err == nil {
			t.Errorf("no error for:\n%s", src)
		}
	}
}

func TestFixedFormContinuation(t *testing.T) {
	src := "      program main\n" +
		"      real a\n" +
		"      a = 1.0 +\n" +
		"     &    2.0\n" +
		"      end\n"
	f, err := Parse("cont.f", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	as := f.Units[0].Body[0].(*AssignStmt)
	if got := as.Rhs.String(); got != "1.0 + 2.0" {
		t.Errorf("rhs = %q", got)
	}
}

func TestCommentsRetained(t *testing.T) {
	src := "c this is a comment\n" + tinyProgram
	f, err := Parse("c.f", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(f.Comments) != 1 || !strings.Contains(f.Comments[0].Text, "this is a comment") {
		t.Errorf("comments = %+v", f.Comments)
	}
}

func TestStmtIDsAssigned(t *testing.T) {
	f := MustParse("tiny.f", tinyProgram)
	seen := map[int]bool{}
	WalkStmts(f.Units[0].Body, func(s Stmt) bool {
		if s.ID() == 0 {
			t.Errorf("statement %s has no ID", StmtText(s))
		}
		if seen[s.ID()] {
			t.Errorf("duplicate ID %d", s.ID())
		}
		seen[s.ID()] = true
		if f.StmtByID(s.ID()) != s {
			t.Errorf("StmtByID(%d) mismatch", s.ID())
		}
		return true
	})
	if len(seen) != 5 {
		t.Errorf("got %d statements, want 5", len(seen))
	}
	for _, id := range []int{0, -1, len(seen) + 1} {
		if s := f.StmtByID(id); s != nil {
			t.Errorf("StmtByID(%d) = %s, want nil", id, StmtText(s))
		}
	}
}

func TestDoWhileAndGoto(t *testing.T) {
	src := `
      program main
      integer i
      i = 0
      do while (i .lt. 10)
         i = i + 1
      enddo
      goto 20
      i = -1
 20   continue
      end
`
	f, err := Parse("dw.f", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	body := f.Units[0].Body
	if _, ok := body[1].(*WhileStmt); !ok {
		t.Errorf("stmt 2 is %T, want *WhileStmt", body[1])
	}
	g, ok := body[2].(*GotoStmt)
	if !ok || g.Target != 20 {
		t.Errorf("goto mis-parsed: %+v", body[2])
	}
}

func TestExprTypes(t *testing.T) {
	src := `
      program main
      integer i, j
      real x
      double precision d
      logical p
      i = j + 1
      x = x*2.0
      d = 1.5d0
      p = i .lt. j
      end
`
	f := MustParse("types.f", src)
	u := f.Units[0]
	want := []Type{TypeInteger, TypeReal, TypeDouble, TypeLogical}
	for i, s := range u.Body {
		as := s.(*AssignStmt)
		if got := ExprType(u, as.Rhs); got != want[i] {
			t.Errorf("stmt %d rhs type = %s, want %s", i, got, want[i])
		}
	}
}

func TestPrinterAllStatementKinds(t *testing.T) {
	src := `
      program kinds
      integer i, n
      real a(10), x
      logical p
      character*8 name
      parameter (n = 10)
      common /blk/ x
      data i /3/
      do 10 i = 1, n
         a(i) = 0.0
 10   continue
      do while (x .lt. 1.0)
         x = x + 0.25
      enddo
      if (x .gt. 0.5) then
         x = 0.5
      else if (x .gt. 0.25) then
         x = 0.25
      else
         x = 0.0
      endif
      if (p) x = -1.0
      call sub(a, n)
      read(*,*) x
      write(*,*) x, a(1)
      print *, 'done'
      goto 20
 20   continue
      stop
      end
      subroutine sub(v, m)
      integer m
      real v(m)
      v(1) = 1.0
      return
      end
`
	f, err := Parse("kinds.f", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	printed := Print(f)
	f2, err := Parse("kinds2.f", printed)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, printed)
	}
	if printed2 := Print(f2); printed != printed2 {
		t.Errorf("print not idempotent:\n%s\nvs\n%s", printed, printed2)
	}
	// Every statement must render through StmtText.
	for _, u := range f.Units {
		WalkStmts(u.Body, func(s Stmt) bool {
			if txt := StmtText(s); txt == "" || strings.HasPrefix(txt, "?") {
				t.Errorf("StmtText failed for %T: %q", s, txt)
			}
			return true
		})
	}
	// File-level lookups.
	if f.Unit("sub") == nil || f.Main() == nil || f.Unit("nosuch") != nil {
		t.Error("Unit/Main lookup broken")
	}
}

func TestStringersAndErrors(t *testing.T) {
	if TokLParen.String() != "'('" || TokKind(999).String() == "" {
		t.Error("TokKind.String broken")
	}
	tok := Token{Kind: TokIdent, Text: "foo"}
	if !strings.Contains(tok.String(), "foo") {
		t.Error("Token.String broken")
	}
	var el ErrorList
	if el.Error() != "no errors" {
		t.Error("empty ErrorList")
	}
	el.add(Pos{1, 2}, "boom %d", 7)
	if !strings.Contains(el.Error(), "boom 7") || el.Err() == nil {
		t.Error("single error formatting")
	}
	el.add(Pos{3, 4}, "again")
	if !strings.Contains(el.Error(), "1 more error") {
		t.Errorf("multi error formatting: %s", el.Error())
	}
	for _, k := range []SymKind{SymScalar, SymArray, SymParam, SymFunc, SymSubr, SymIntrinsic} {
		if k.String() == "?" {
			t.Errorf("SymKind %d has no name", k)
		}
	}
	for _, ty := range []Type{TypeInteger, TypeReal, TypeDouble, TypeLogical, TypeCharacter, TypeUnknown} {
		_ = ty.String()
	}
	for _, uk := range []UnitKind{UnitProgram, UnitSubroutine, UnitFunction} {
		if uk.String() == "?" {
			t.Errorf("UnitKind %d has no name", uk)
		}
	}
}

func TestExprStringForms(t *testing.T) {
	f := MustParse("s.f", `
      program s
      integer i
      real a(5), x
      logical p
      x = -(a(i) + 1.0)
      p = .not. (x .gt. 0.0)
      x = amax1(x, 2.0**2)
      x = 1.5d0
      end
`)
	for _, s := range f.Units[0].Body {
		as := s.(*AssignStmt)
		if as.Rhs.String() == "" {
			t.Errorf("empty expr string for %T", as.Rhs)
		}
	}
}

func TestParseStmtInContext(t *testing.T) {
	f := MustParse("c.f", tinyProgram)
	u := f.Units[0]
	s, err := ParseStmtIn(f, u, "a(i) = b(i)*2.0 + s")
	if err != nil {
		t.Fatal(err)
	}
	as, ok := s.(*AssignStmt)
	if !ok || as.Lhs.Sym != u.Lookup("a") {
		t.Fatalf("mis-parsed: %+v", s)
	}
	// Multi-line block.
	blk, err := ParseStmtIn(f, u, "do i = 1, 5\n a(i) = 0.0\n enddo")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := blk.(*DoStmt); !ok {
		t.Fatalf("block mis-parsed: %T", blk)
	}
	// Errors propagate.
	if _, err := ParseStmtIn(f, u, "a(i = "); err == nil {
		t.Error("bad text should error")
	}
	if _, err := ParseStmtIn(f, u, ""); err == nil {
		t.Error("empty text should error")
	}
}

// TestDoallDirectiveRoundTrip: a printed c$par doall annotation must
// parse back onto the loop it precedes — this is what makes printed
// sources (saved files, undo snapshots, journal snapshots) faithful.
func TestDoallDirectiveRoundTrip(t *testing.T) {
	src := "      program p\n" +
		"      integer i\n" +
		"      real s, t, x(10)\n" +
		"c$par doall private(t) reduction(+:s) reduction(max:t)\n" +
		"      do i = 1, 10\n" +
		"        s = s + x(i)\n" +
		"      enddo\n" +
		"      end\n"
	f, err := Parse("par.f", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	do, ok := f.Units[0].Body[0].(*DoStmt)
	if !ok {
		t.Fatalf("first statement is %T, want *DoStmt", f.Units[0].Body[0])
	}
	if !do.Parallel {
		t.Fatal("doall directive did not set Parallel")
	}
	if len(do.Private) != 1 || do.Private[0].Name != "t" {
		t.Errorf("private = %+v, want [t]", do.Private)
	}
	if len(do.Reductions) != 2 {
		t.Fatalf("reductions = %+v, want 2", do.Reductions)
	}
	if do.Reductions[0].Op != TokPlus || do.Reductions[0].Sym.Name != "s" {
		t.Errorf("reduction 0 = %+v, want +:s", do.Reductions[0])
	}
	if do.Reductions[1].OpName != "max" || do.Reductions[1].Sym.Name != "t" {
		t.Errorf("reduction 1 = %+v, want max:t", do.Reductions[1])
	}
	// The directive is AST state now, not a comment: it must not be
	// double-recorded.
	if len(f.Comments) != 0 {
		t.Errorf("directive leaked into comments: %+v", f.Comments)
	}
	// Print → parse → print is a fixed point.
	printed := Print(f)
	if !strings.Contains(printed, "c$par doall private(t) reduction(+:s) reduction(max:t)") {
		t.Fatalf("printed output lost the annotation:\n%s", printed)
	}
	f2, err := Parse("par2.f", printed)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if printed2 := Print(f2); printed2 != printed {
		t.Errorf("directive round trip not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", printed, printed2)
	}
}

// TestDirectiveOnNonLoopIgnored: a doall directive over a non-DO
// statement, or an unknown $par directive, parses cleanly and changes
// nothing.
func TestDirectiveIgnoredWhenInapplicable(t *testing.T) {
	src := "      program p\n" +
		"      real x\n" +
		"c$par doall\n" +
		"      x = 1.0\n" +
		"c$par nosuchthing(42)\n" +
		"      do i = 1, 3\n" +
		"        x = x + 1.0\n" +
		"      enddo\n" +
		"      end\n"
	f, err := Parse("np.f", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	for _, s := range f.Units[0].Body {
		if do, ok := s.(*DoStmt); ok && do.Parallel {
			t.Error("unknown directive parallelized a loop")
		}
	}
}

// TestNamesDoNotAliasSource: unit and symbol names are kept long after a
// parse by holders of little else (cached pane renderings, dependence
// listings); a name that was a slice of the source text would keep the
// whole program alive with it.
func TestNamesDoNotAliasSource(t *testing.T) {
	src := `      program main
      integer i, n
      real a(10), total
      n = 10
      do i = 1, n
         a(i) = real(i)
      enddo
      call sub(a, n, total)
      end
      subroutine sub(x, m, s)
      integer m, k
      real x(m), s
      s = 0.0
      do k = 1, m
         s = s + x(k)
      enddo
      end
`
	f, err := Parse("t.f", src)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	hi := lo + uintptr(len(src))
	inSource := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return len(s) > 0 && p >= lo && p < hi
	}
	for _, u := range f.Units {
		if inSource(u.Name) {
			t.Errorf("unit name %q is a slice of the source", u.Name)
		}
		for _, sym := range u.Syms {
			if inSource(sym.Name) {
				t.Errorf("%s: symbol name %q is a slice of the source", u.Name, sym.Name)
			}
		}
	}
}

// TestStatementTokensAreCapped checks that the statements Statements
// returns, which share one token array, are each capped at their end:
// appending to one statement's tokens leaves the next one's unchanged.
func TestStatementTokensAreCapped(t *testing.T) {
	lx, _ := NewLexer("      x = 1\n 10   y = x + 2\n      z = y\n")
	stmts, errs := lx.Statements()
	if err := errs.Err(); err != nil || len(stmts) != 3 {
		t.Fatalf("Statements: %d statements, %v", len(stmts), err)
	}
	for i := 0; i+1 < len(stmts); i++ {
		next := append([]Token(nil), stmts[i+1]...)
		_ = append(stmts[i], Token{Kind: TokIdent, Text: "w", Line: 99})
		for j, tok := range stmts[i+1] {
			if tok != next[j] {
				t.Fatalf("appending to statement %d changed token %d of statement %d: %v, was %v", i, j, i+1, tok, next[j])
			}
		}
	}
}
