package dataflow

import (
	"testing"

	"parascope/internal/cfg"
	"parascope/internal/fortran"
)

func analyze(t *testing.T, src string) *Analysis {
	t.Helper()
	f, err := fortran.Parse("t.f", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return Analyze(f.Units[0], nil)
}

func loopN(t *testing.T, a *Analysis, n int) *cfg.Loop {
	t.Helper()
	if n >= len(a.Tree.All) {
		t.Fatalf("loop %d not found (have %d)", n, len(a.Tree.All))
	}
	return a.Tree.All[n]
}

func TestStmtAccesses(t *testing.T) {
	a := analyze(t, `
      program main
      integer i
      real x, y, b(10)
      x = y + b(i)
      end
`)
	u := a.Unit
	acc := a.Accesses(u.Body[0])
	reads := map[string]bool{}
	writes := map[string]bool{}
	for _, ac := range acc {
		if ac.Write {
			writes[ac.Sym.Name] = true
		} else {
			reads[ac.Sym.Name] = true
		}
	}
	for _, want := range []string{"y", "b", "i"} {
		if !reads[want] {
			t.Errorf("missing read of %s (reads=%v)", want, reads)
		}
	}
	if !writes["x"] || len(writes) != 1 {
		t.Errorf("writes = %v, want {x}", writes)
	}
}

func TestLiveness(t *testing.T) {
	a := analyze(t, `
      program main
      integer i, j
      i = 1
      j = 2
      print *, i
      end
`)
	u := a.Unit
	i := u.Lookup("i")
	j := u.Lookup("j")
	if !a.LiveOut(u.Body[0], i) {
		t.Error("i should be live after i=1 (used by print)")
	}
	if a.LiveOut(u.Body[1], j) {
		t.Error("j should be dead after j=2 (never used)")
	}
}

func TestConstantPropagation(t *testing.T) {
	a := analyze(t, `
      program main
      integer n, m, k
      real a(100)
      n = 10
      m = n*2 + 1
      do k = 1, m
         a(k) = 0.0
      enddo
      n = k
      end
`)
	u := a.Unit
	do := u.Body[2]
	if v, ok := a.ConstAt(do, u.Lookup("n")); !ok || v != 10 {
		t.Errorf("n at loop = %d,%v; want 10", v, ok)
	}
	if v, ok := a.ConstAt(do, u.Lookup("m")); !ok || v != 21 {
		t.Errorf("m at loop = %d,%v; want 21", v, ok)
	}
	// k is the loop variable: not constant inside.
	inner := u.Body[2].(*fortran.DoStmt).Body[0]
	if _, ok := a.ConstAt(inner, u.Lookup("k")); ok {
		t.Error("loop variable must not be a known constant in the body")
	}
}

func TestConstantsSurviveLoops(t *testing.T) {
	a := analyze(t, `
      program main
      integer n, i
      real a(100)
      n = 100
      do i = 1, 10
         a(i) = a(i) + 1.0
      enddo
      a(n) = 0.0
      end
`)
	u := a.Unit
	after := u.Body[2]
	if v, ok := a.ConstAt(after, u.Lookup("n")); !ok || v != 100 {
		t.Errorf("n after loop = %d,%v; want 100 (loop does not touch n)", v, ok)
	}
	inLoop := u.Body[1].(*fortran.DoStmt).Body[0]
	if v, ok := a.ConstAt(inLoop, u.Lookup("n")); !ok || v != 100 {
		t.Errorf("n inside loop = %d,%v; want 100", v, ok)
	}
}

// condConstProgram is ROADMAP item 1(a)'s reproducer: n is assigned
// under a conditional, so the fall-through edge of the IF reaches the
// join with no constant for n.
const condConstProgram = `
      subroutine p(c, a)
      integer n, c
      real a(100)
      if (c .gt. 0) then
        n = 5
      endif
      do i = 1, 10
        a(i+n) = a(i) + 1.0
      enddo
      end
`

// The fall-through edge's out-state is empty; it must still take part
// in the meet at the join (it was once mistaken for an unvisited node).
func TestConstantAssignedUnderConditionalIsNotConstant(t *testing.T) {
	a := analyze(t, condConstProgram)
	u := a.Unit
	n := u.Lookup("n")
	do := u.Body[1].(*fortran.DoStmt)
	if v, ok := a.ConstAt(do, n); ok {
		t.Errorf("n at the do = %d; it is 5 only when c > 0", v)
	}
	if v, ok := a.ConstAt(do.Body[0], n); ok {
		t.Errorf("n at the assignment = %d; it is 5 only when c > 0", v)
	}
	then := u.Body[0].(*fortran.IfStmt).Then[0]
	if _, ok := a.ConstAt(then, n); ok {
		t.Error("n is not yet assigned at entry to n = 5")
	}
}

func TestPrivatizable(t *testing.T) {
	a := analyze(t, `
      program main
      integer i
      real t, s, a(100), b(100)
      s = 0.0
      do i = 1, 100
         t = a(i)*2.0
         b(i) = t + 1.0
         s = s + t
      enddo
      print *, s
      end
`)
	u := a.Unit
	l := loopN(t, a, 0)
	pt := a.Privatizable(l, u.Lookup("t"))
	if !pt.Privatizable {
		t.Errorf("t should be privatizable: %s", pt.Reason)
	}
	if pt.NeedsLastValue {
		t.Error("t is dead after the loop; no last value needed")
	}
	ps := a.Privatizable(l, u.Lookup("s"))
	if ps.Privatizable {
		t.Error("s carries a value between iterations; must not be privatizable")
	}
}

func TestPrivatizableNeedsLastValue(t *testing.T) {
	a := analyze(t, `
      program main
      integer i
      real t, a(100)
      do i = 1, 100
         t = a(i)
         a(i) = t*2.0
      enddo
      print *, t
      end
`)
	u := a.Unit
	l := loopN(t, a, 0)
	res := a.Privatizable(l, u.Lookup("t"))
	if !res.Privatizable || !res.NeedsLastValue {
		t.Errorf("t: got %+v, want privatizable with last value", res)
	}
}

func TestPrivatizableConditionalDef(t *testing.T) {
	// t is only assigned under a condition, so the previous
	// iteration's value can flow into a use: not privatizable.
	a := analyze(t, `
      program main
      integer i
      real t, a(100), b(100)
      t = 0.0
      do i = 1, 100
         if (a(i) .gt. 0.0) then
            t = a(i)
         endif
         b(i) = t
      enddo
      end
`)
	u := a.Unit
	l := loopN(t, a, 0)
	res := a.Privatizable(l, u.Lookup("t"))
	if res.Privatizable {
		t.Error("conditionally-assigned t must not be privatizable")
	}
}

func TestReductionRecognition(t *testing.T) {
	a := analyze(t, `
      program main
      integer i
      real s, p, big, a(100)
      s = 0.0
      p = 1.0
      big = -1.0e30
      do i = 1, 100
         s = s + a(i)
         p = p*a(i)
         big = max(big, a(i))
      enddo
      print *, s, p, big
      end
`)
	l := loopN(t, a, 0)
	reds := a.Reductions(l)
	if len(reds) != 3 {
		t.Fatalf("got %d reductions, want 3: %+v", len(reds), reds)
	}
	byName := map[string]fortran.Reduction{}
	for _, r := range reds {
		byName[r.Sym.Name] = r
	}
	if r := byName["s"]; r.Op != fortran.TokPlus {
		t.Errorf("s: op = %v, want +", r.Op)
	}
	if r := byName["p"]; r.Op != fortran.TokStar {
		t.Errorf("p: op = %v, want *", r.Op)
	}
	if r := byName["big"]; r.OpName != "max" {
		t.Errorf("big: opName = %q, want max", r.OpName)
	}
}

func TestReductionRejectsOtherUses(t *testing.T) {
	a := analyze(t, `
      program main
      integer i
      real s, a(100), b(100)
      s = 0.0
      do i = 1, 100
         s = s + a(i)
         b(i) = s
      enddo
      end
`)
	l := loopN(t, a, 0)
	if reds := a.Reductions(l); len(reds) != 0 {
		t.Errorf("s is read mid-loop; got %+v, want none", reds)
	}
}

func TestReductionSubtraction(t *testing.T) {
	a := analyze(t, `
      program main
      integer i
      real s, a(100)
      s = 0.0
      do i = 1, 100
         s = s - a(i)
      enddo
      print *, s
      end
`)
	l := loopN(t, a, 0)
	reds := a.Reductions(l)
	if len(reds) != 1 || reds[0].Op != fortran.TokPlus {
		t.Errorf("s = s - a(i): got %+v, want sum reduction", reds)
	}
}

func TestEnvAtAndTripCount(t *testing.T) {
	a := analyze(t, `
      program main
      integer i, j, n
      real a(100,100)
      n = 50
      do i = 1, n
         do j = 2, 99
            a(i,j) = 0.0
         enddo
      enddo
      end
`)
	u := a.Unit
	inner := loopN(t, a, 1)
	if inner.Header().Name != "j" {
		t.Fatalf("loop order unexpected: %v", inner)
	}
	env := a.EnvAt(inner.Do.Body[0])
	ri := env.RangeOf(u.Lookup("i"))
	if ri.Lo != 1 || ri.Hi != 50 {
		t.Errorf("range(i) = %s, want [1,50]", ri)
	}
	rj := env.RangeOf(u.Lookup("j"))
	if rj.Lo != 2 || rj.Hi != 99 {
		t.Errorf("range(j) = %s, want [2,99]", rj)
	}
	if n, ok := a.TripCount(inner); !ok || n != 98 {
		t.Errorf("trip(j) = %d,%v; want 98", n, ok)
	}
	outer := loopN(t, a, 0)
	if n, ok := a.TripCount(outer); !ok || n != 50 {
		t.Errorf("trip(i) = %d,%v; want 50", n, ok)
	}
}

func TestCallKillsConstants(t *testing.T) {
	a := analyze(t, `
      program main
      integer n
      real x
      n = 5
      call f(n, x)
      x = n
      end
      subroutine f(k, y)
      integer k
      real y
      k = k + 1
      y = 0.0
      end
`)
	u := a.Unit
	last := u.Body[2]
	if _, ok := a.ConstAt(last, u.Lookup("n")); ok {
		t.Error("n must not be constant after CALL f(n, x) under conservative effects")
	}
}

func TestDoStmtDefinesLoopVar(t *testing.T) {
	a := analyze(t, `
      program main
      integer i
      real a(10)
      do i = 1, 10
         a(i) = 0.0
      enddo
      print *, i
      end
`)
	u := a.Unit
	defines := false
	for _, ac := range a.Accesses(u.Body[0]) {
		if ac.Sym == u.Lookup("i") && ac.Write && !ac.Partial {
			defines = true
		}
	}
	if !defines {
		t.Error("DO statement should define i")
	}
}

func TestUpwardExposed(t *testing.T) {
	a := analyze(t, `
      subroutine f(x, y, n)
      integer n, i
      real x(n), y(n), t
      t = y(1)
      do i = 1, n
         x(i) = t
      enddo
      end
`)
	u := a.Unit
	up := a.UpwardExposed()
	if !up[u.Lookup("y")] {
		t.Error("y is read before any write: upward exposed")
	}
	if !up[u.Lookup("n")] {
		t.Error("n is read: upward exposed")
	}
	if up[u.Lookup("t")] {
		t.Error("t is assigned before use: not upward exposed")
	}
	if up[u.Lookup("x")] {
		t.Error("x is only written (element-wise): not upward exposed")
	}
}
