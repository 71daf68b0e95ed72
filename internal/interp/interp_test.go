package interp

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"parascope/internal/dep"
	"parascope/internal/fortran"
	"parascope/internal/xform"
)

func run(t *testing.T, src string, workers int, input ...float64) string {
	t.Helper()
	f, err := fortran.Parse("t.f", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	out, err := RunCapture(f, workers, input)
	if err != nil {
		t.Fatalf("Run: %v\noutput so far:\n%s", err, out)
	}
	return out
}

func TestArithmetic(t *testing.T) {
	out := run(t, `
      program main
      integer i
      real x
      i = 7/2
      x = 7.0/2.0
      print *, i, x, 2**10, mod(17, 5)
      print *, abs(-3), abs(-3.5), max(1, 2, 3), min(4.0, 2.0)
      end
`, 1)
	want := "3 3.5 1024 2\n3 3.5 3 2\n"
	if out != want {
		t.Errorf("got %q, want %q", out, want)
	}
}

func TestLoopAndArray(t *testing.T) {
	out := run(t, `
      program main
      integer i
      real a(10), s
      s = 0.0
      do i = 1, 10
         a(i) = real(i)
      enddo
      do i = 1, 10
         s = s + a(i)
      enddo
      print *, s
      end
`, 1)
	if strings.TrimSpace(out) != "55" {
		t.Errorf("got %q, want 55", out)
	}
}

func TestTwoDimensionalColumnMajor(t *testing.T) {
	out := run(t, `
      program main
      integer i, j
      real a(3,3), s
      do j = 1, 3
         do i = 1, 3
            a(i,j) = real(i + 10*j)
         enddo
      enddo
      s = a(2,3)
      print *, s
      end
`, 1)
	if strings.TrimSpace(out) != "32" {
		t.Errorf("got %q, want 32", out)
	}
}

func TestIfElseChain(t *testing.T) {
	out := run(t, `
      program main
      integer i, k
      k = 0
      do i = 1, 5
         if (i .lt. 2) then
            k = k + 100
         else if (i .lt. 4) then
            k = k + 10
         else
            k = k + 1
         endif
      enddo
      print *, k
      end
`, 1)
	if strings.TrimSpace(out) != "122" {
		t.Errorf("got %q, want 122", out)
	}
}

func TestSubroutineByReference(t *testing.T) {
	out := run(t, `
      program main
      real x
      x = 1.0
      call bump(x)
      call bump(x)
      print *, x
      end
      subroutine bump(v)
      real v
      v = v + 1.0
      end
`, 1)
	if strings.TrimSpace(out) != "3" {
		t.Errorf("got %q, want 3", out)
	}
}

func TestFunctionCall(t *testing.T) {
	out := run(t, `
      program main
      real area, r
      r = 2.0
      print *, area(r)
      end
      real function area(x)
      real x
      area = 3.0*x*x
      end
`, 1)
	if strings.TrimSpace(out) != "12" {
		t.Errorf("got %q, want 12", out)
	}
}

func TestArrayArgumentAliasing(t *testing.T) {
	out := run(t, `
      program main
      integer i
      real a(5)
      do i = 1, 5
         a(i) = 0.0
      enddo
      call fill(a, 5)
      print *, a(1), a(5)
      end
      subroutine fill(x, n)
      integer n, k
      real x(n)
      do k = 1, n
         x(k) = real(k)*2.0
      enddo
      end
`, 1)
	if strings.TrimSpace(out) != "2 10" {
		t.Errorf("got %q, want 2 10", out)
	}
}

func TestCommonStorage(t *testing.T) {
	out := run(t, `
      program main
      real s
      common /acc/ s
      s = 1.0
      call add2
      print *, s
      end
      subroutine add2
      real s
      common /acc/ s
      s = s + 2.0
      end
`, 1)
	if strings.TrimSpace(out) != "3" {
		t.Errorf("got %q, want 3", out)
	}
}

func TestGotoLoop(t *testing.T) {
	out := run(t, `
      program main
      integer i
      i = 0
 10   continue
      i = i + 1
      if (i .lt. 5) goto 10
      print *, i
      end
`, 1)
	if strings.TrimSpace(out) != "5" {
		t.Errorf("got %q, want 5", out)
	}
}

func TestDoWhile(t *testing.T) {
	out := run(t, `
      program main
      integer i
      i = 1
      do while (i .lt. 100)
         i = i*2
      enddo
      print *, i
      end
`, 1)
	if strings.TrimSpace(out) != "128" {
		t.Errorf("got %q, want 128", out)
	}
}

func TestReadInput(t *testing.T) {
	out := run(t, `
      program main
      integer n
      real x
      read(*,*) n, x
      print *, n*2, x*3.0
      end
`, 1, 21, 1.5)
	if strings.TrimSpace(out) != "42 4.5" {
		t.Errorf("got %q, want 42 4.5", out)
	}
}

func TestNegativeStepLoop(t *testing.T) {
	out := run(t, `
      program main
      integer i, k
      k = 0
      do i = 10, 1, -2
         k = k + i
      enddo
      print *, k
      end
`, 1)
	if strings.TrimSpace(out) != "30" {
		t.Errorf("got %q, want 30", out)
	}
}

func TestZeroTripLoop(t *testing.T) {
	out := run(t, `
      program main
      integer i, k
      k = 7
      do i = 5, 1
         k = 0
      enddo
      print *, k, i
      end
`, 1)
	if strings.TrimSpace(out) != "7 5" {
		t.Errorf("got %q, want 7 5 (zero-trip leaves var at lo)", out)
	}
}

func TestParameterAndData(t *testing.T) {
	out := run(t, `
      program main
      integer n
      real pi
      parameter (n = 6)
      data pi /3.25/
      print *, n*2, pi
      end
`, 1)
	if strings.TrimSpace(out) != "12 3.25" {
		t.Errorf("got %q", out)
	}
}

// parallelRun marks the loop parallel via the transformation engine,
// then executes with several workers.
func parallelRun(t *testing.T, src string, workers int) (string, string) {
	t.Helper()
	seq, err := fortran.Parse("seq.f", src)
	if err != nil {
		t.Fatal(err)
	}
	par, err := fortran.Parse("par.f", src)
	if err != nil {
		t.Fatal(err)
	}
	c := xform.NewContext(par, par.Units[0], nil, nil, nil, dep.DefaultOptions())
	marked := 0
	for _, l := range c.DF.Tree.All {
		tr := xform.Parallelize{Do: l.Do}
		if tr.Check(c).OK() {
			if err := tr.Apply(c); err != nil {
				t.Fatal(err)
			}
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("no loop parallelized")
	}
	seqOut, err := RunCapture(seq, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	parOut, err := RunCapture(par, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return seqOut, parOut
}

func TestParallelLoopMatchesSequential(t *testing.T) {
	seqOut, parOut := parallelRun(t, `
      program main
      integer i
      real a(1000), s
      do i = 1, 1000
         a(i) = real(i)*0.5
      enddo
      s = 0.0
      do i = 1, 1000
         s = s + a(i)
      enddo
      print *, s, a(1), a(1000)
      end
`, 4)
	if ok, why := OutputsEquivalent(seqOut, parOut, 1e-9); !ok {
		t.Errorf("parallel output differs: %s\nseq=%q\npar=%q", why, seqOut, parOut)
	}
}

func TestParallelReduction(t *testing.T) {
	seqOut, parOut := parallelRun(t, `
      program main
      integer i
      real s, p, big, a(500)
      do i = 1, 500
         a(i) = real(mod(i, 7)) + 0.5
      enddo
      s = 0.0
      big = -1.0e30
      do i = 1, 500
         s = s + a(i)
         big = max(big, a(i))
      enddo
      print *, s, big
      end
`, 8)
	if ok, why := OutputsEquivalent(seqOut, parOut, 1e-6); !ok {
		t.Errorf("reduction output differs: %s\nseq=%q\npar=%q", why, seqOut, parOut)
	}
}

func TestParallelPrivateScalar(t *testing.T) {
	seqOut, parOut := parallelRun(t, `
      program main
      integer i
      real t, a(300), b(300)
      do i = 1, 300
         a(i) = real(i)
      enddo
      do i = 1, 300
         t = a(i)*2.0
         b(i) = t + 1.0
      enddo
      print *, b(1), b(150), b(300)
      end
`, 4)
	if ok, why := OutputsEquivalent(seqOut, parOut, 1e-9); !ok {
		t.Errorf("private-scalar output differs: %s\nseq=%q\npar=%q", why, seqOut, parOut)
	}
}

func TestParallelLoopCounter(t *testing.T) {
	f, err := fortran.Parse("t.f", `
      program main
      integer i
      real a(100)
      do i = 1, 100
         a(i) = 1.0
      enddo
      print *, a(50)
      end
`)
	if err != nil {
		t.Fatal(err)
	}
	do := f.Units[0].Body[0].(*fortran.DoStmt)
	do.Parallel = true
	do.Private = []*fortran.Symbol{do.Var}
	m := New(f)
	m.Workers = 4
	var sb strings.Builder
	m.Out = &sb
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.ParallelLoopsRun != 1 {
		t.Errorf("ParallelLoopsRun = %d, want 1", m.ParallelLoopsRun)
	}
}

func TestStmtLimit(t *testing.T) {
	f, err := fortran.Parse("t.f", `
      program main
      integer i
      i = 0
      do while (i .lt. 1)
         i = 0
      enddo
      end
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(f)
	m.StmtLimit = 1000
	if err := m.Run(); err == nil {
		t.Error("infinite loop should hit the statement limit")
	}
}

func TestOutOfBoundsDetected(t *testing.T) {
	f, err := fortran.Parse("t.f", `
      program main
      real a(10)
      a(11) = 1.0
      end
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(f)
	if err := m.Run(); err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Errorf("want out-of-bounds error, got %v", err)
	}
}

func TestOutputsEquivalentTolerance(t *testing.T) {
	if ok, _ := OutputsEquivalent("1.0000000001 foo", "1.0 foo", 1e-6); !ok {
		t.Error("nearby floats should compare equal")
	}
	if ok, _ := OutputsEquivalent("1.1", "1.0", 1e-6); ok {
		t.Error("distant floats should differ")
	}
	if ok, _ := OutputsEquivalent("a b", "a", 1e-6); ok {
		t.Error("different token counts should differ")
	}
}

func TestIntrinsicsTable(t *testing.T) {
	out := run(t, `
      program main
      print *, sqrt(16.0), exp(0.0), log(1.0), log10(100.0)
      print *, sin(0.0), cos(0.0), tan(0.0), atan(0.0)
      print *, atan2(0.0, 1.0), sinh(0.0), cosh(0.0), tanh(0.0)
      print *, asin(0.0), acos(1.0)
      print *, iabs(-5), amax1(1.0, 2.0), amin1(1.0, 2.0)
      print *, max0(3, 7), min0(3, 7), amod(7.5, 2.0)
      print *, sign(3.0, -1.0), sign(3, 1), dim(5.0, 3.0), dim(3.0, 5.0)
      print *, int(3.9), ifix(3.9), nint(3.5), real(7), float(7), sngl(2.5)
      print *, dble(1.5), mod(17, 5)
      end
`, 1)
	want := "4 1 0 2\n0 1 0 0\n0 0 1 0\n0 0\n5 2 1\n7 3 1.5\n-3 3 2 0\n3 3 4 7 7 2.5\n1.5 2\n"
	if out != want {
		t.Errorf("got:\n%q\nwant:\n%q", out, want)
	}
}

func TestIntrinsicVariadicMinMax(t *testing.T) {
	out := run(t, `
      program main
      print *, max(1, 5, 3, 2), min(4.0, 1.0, 9.0)
      end
`, 1)
	if strings.TrimSpace(out) != "5 1" {
		t.Errorf("got %q", out)
	}
}

// nestedIntrinsics is x inside depth calls, each nesting through its
// first argument: abs(...) on odd levels, max(min(..., y), y) on even.
func nestedIntrinsics(depth int) string {
	e := "x"
	for i := range depth {
		if i%2 == 0 {
			e = "abs(" + e + ")"
		} else {
			e = "max(min(" + e + ", y), y)"
		}
	}
	return e
}

// TestDeepIntrinsicNesting: typing an intrinsic types each argument
// once, so a chain nested 40 deep proves, compiles and runs at once
// rather than in time exponential in the depth.
func TestDeepIntrinsicNesting(t *testing.T) {
	src := "      program main\n      real x, y\n      x = -2.5\n      y = 9.0\n" +
		"      print *, " + nestedIntrinsics(40) + "\n      end\n"
	f, err := fortran.Parse("t.f", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	type result struct {
		out string
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := RunCapture(f, 1, nil)
		done <- result{out, err}
	}()
	select {
	case r := <-done:
		if r.err != nil || strings.TrimSpace(r.out) != "9" {
			t.Errorf("got %q, %v; want 9", r.out, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("still running after 5 s")
	}
}

func TestErrorUnknownSubroutine(t *testing.T) {
	f, err := fortran.Parse("t.f", `
      program main
      call nosuch(1)
      end
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(f)
	if err := m.Run(); err == nil || !strings.Contains(err.Error(), "unknown subroutine") {
		t.Errorf("err = %v", err)
	}
}

func TestErrorDivisionByZero(t *testing.T) {
	f, err := fortran.Parse("t.f", `
      program main
      integer i, j
      i = 5
      j = i/(i - 5)
      end
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(f)
	if err := m.Run(); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("err = %v", err)
	}
}

func TestLogicalOperators(t *testing.T) {
	out := run(t, `
      program main
      logical p, q
      p = .true.
      q = .false.
      print *, p .and. q, p .or. q, .not. p
      if (p .and. .not. q) print *, 'both'
      end
`, 1)
	if !strings.Contains(out, "F T F") || !strings.Contains(out, "both") {
		t.Errorf("got %q", out)
	}
}

func TestCharacterHandling(t *testing.T) {
	out := run(t, `
      program main
      print *, 'hello' // ' ' // 'world'
      end
`, 1)
	if strings.TrimSpace(out) != "hello world" {
		t.Errorf("got %q", out)
	}
}

func TestDoublePrecision(t *testing.T) {
	out := run(t, `
      program main
      double precision d
      d = 1.5d0
      d = d*2.0d0
      print *, d
      end
`, 1)
	if strings.TrimSpace(out) != "3" {
		t.Errorf("got %q", out)
	}
}

func TestSimulatedCycles(t *testing.T) {
	src := `
      program main
      integer i
      real a(800)
      do i = 1, 800
         a(i) = real(i)
      enddo
      print *, a(400)
      end
`
	f, err := fortran.Parse("t.f", src)
	if err != nil {
		t.Fatal(err)
	}
	_, seqCycles, err := RunCaptureSim(f, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Mark the loop parallel and compare simulated time at 8 workers.
	do := f.Units[0].Body[0].(*fortran.DoStmt)
	do.Parallel = true
	do.Private = []*fortran.Symbol{do.Var}
	_, parCycles, err := RunCaptureSim(f, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(seqCycles) / float64(parCycles)
	// 800 body statements over 8 workers plus 100 fork cycles: ~4x.
	if ratio < 3.5 {
		t.Errorf("simulated speedup = %.2f (seq %d, par %d), want > 4 on 8 workers",
			ratio, seqCycles, parCycles)
	}
}

func TestParallelLoopWithCallsMatches(t *testing.T) {
	// Tests the executor (not the analysis): mark the call loop
	// parallel by hand — section analysis would prove it — and verify
	// per-worker frames bind callee arguments correctly.
	src := `
      program main
      integer i
      real a(200)
      do i = 1, 200
         call setone(a, i)
      enddo
      print *, a(1), a(100), a(200)
      end
      subroutine setone(x, k)
      integer k
      real x(200)
      x(k) = real(k)*0.25
      end
`
	seq := run(t, src, 1)
	f, err := fortran.Parse("p.f", src)
	if err != nil {
		t.Fatal(err)
	}
	do := f.Units[0].Body[0].(*fortran.DoStmt)
	do.Parallel = true
	do.Private = []*fortran.Symbol{do.Var}
	par, err := RunCapture(f, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := OutputsEquivalent(seq, par, 1e-9); !ok {
		t.Errorf("call-in-parallel-loop differs: %s\nseq %q par %q", why, seq, par)
	}
}

func TestControlFlowEscapingParallelLoop(t *testing.T) {
	f, err := fortran.Parse("t.f", `
      program main
      integer i
      real a(100)
      do i = 1, 100
         a(i) = 1.0
         if (i .eq. 50) goto 99
      enddo
 99   continue
      end
`)
	if err != nil {
		t.Fatal(err)
	}
	do := f.Units[0].Body[0].(*fortran.DoStmt)
	do.Parallel = true
	do.Private = []*fortran.Symbol{do.Var}
	m := New(f)
	m.Workers = 4
	if err := m.Run(); err == nil || !strings.Contains(err.Error(), "escaping a parallel loop") {
		t.Errorf("err = %v, want control-flow-escape error", err)
	}
}

func TestStopInsideSubroutineRejected(t *testing.T) {
	f, err := fortran.Parse("t.f", `
      program main
      call f
      end
      subroutine f
      stop
      end
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(f)
	if err := m.Run(); err == nil || !strings.Contains(err.Error(), "STOP inside") {
		t.Errorf("err = %v, want STOP error", err)
	}
}

func TestStopAtTopLevelTerminates(t *testing.T) {
	out := run(t, `
      program main
      print *, 1
      stop
      print *, 2
      end
`, 1)
	if strings.TrimSpace(out) != "1" {
		t.Errorf("got %q, want just 1", out)
	}
}

func TestEarlyReturnFromSubroutine(t *testing.T) {
	out := run(t, `
      program main
      real x
      x = -3.0
      call clamp(x)
      print *, x
      x = 5.0
      call clamp(x)
      print *, x
      end
      subroutine clamp(v)
      real v
      if (v .gt. 0.0) return
      v = 0.0
      end
`, 1)
	if strings.TrimSpace(out) != "0\n5" {
		t.Errorf("got %q, want 0 then 5", out)
	}
}

// TestCancelReturnsPromptly cancels runs that would otherwise never
// end — a DO with an empty body, a WHILE with none, a backward GOTO and
// a DOALL — and requires Run to return the cause within 50 ms with no
// goroutine left behind.
func TestCancelReturnsPromptly(t *testing.T) {
	for name, src := range map[string]string{
		"tight-do": `      program p
      integer i, j
      do i = 1, 2000000000
         do j = 1, 2000000000
         enddo
      enddo
      end
`,
		"empty-while": `      program p
      do while (.true.)
      enddo
      end
`,
		"backward-goto": `      program p
 10   continue
      goto 10
      end
`,
		"doall": `      program p
      integer i, k
      do i = 1, 2000000000
         k = i
      enddo
      end
`,
	} {
		t.Run(name, func(t *testing.T) {
			f, err := fortran.Parse(name+".f", src)
			if err != nil {
				t.Fatal(err)
			}
			m := New(f)
			if name == "doall" {
				do := f.Units[0].Body[0].(*fortran.DoStmt)
				do.Parallel = true
				do.Private = []*fortran.Symbol{do.Var, f.Units[0].Lookup("k")}
				m.Workers = 4
			}
			before := runtime.NumGoroutine()
			cause := errors.New("stop now")
			done := make(chan error, 1)
			go func() { done <- m.Run() }()
			time.Sleep(5 * time.Millisecond)
			m.Cancel(cause)
			select {
			case err := <-done:
				if err != cause {
					t.Errorf("Run returned %v, want the cancel cause", err)
				}
			case <-time.After(50 * time.Millisecond):
				t.Fatal("Run still going 50 ms after Cancel")
			}
			for i := 0; runtime.NumGoroutine() > before && i < 50; i++ {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%d goroutines left behind", n-before)
			}
		})
	}
}

// TestIntegerPower: an INTEGER power wraps like the repeated product
// and takes at most 63 rounds, whether the exponent is a literal (the
// compiled INTEGER path) or a variable (decided from the run-time
// types); a negative exponent is a REAL power.
func TestIntegerPower(t *testing.T) {
	start := time.Now()
	out := run(t, `
      program main
      integer i, j, k
      i = 3
      j = 9000000000000000000
      k = -2
      print *, 2**62, 2**64, (-3)**5, 0**0, 3**9000000000000000000
      print *, i**j, i**k, i**5, j**0
      end
`, 1)
	want := "4611686018427387904 0 -243 1 -7299167144870150143\n-7299167144870150143 0.1111111111111111 243 1\n"
	if out != want {
		t.Errorf("got %q, want %q", out, want)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("took %v: the exponent must not be a trip count", d)
	}
}

// TestNothingAllocatesPerStatement runs one program at growing trip
// counts: without calls the allocation count does not depend on the
// trip count at all — a run allocates per unit compiled and per
// activation, never per statement executed — and with one call per
// iteration it grows by the same few allocations per call (the
// callee's frame).
func TestNothingAllocatesPerStatement(t *testing.T) {
	program := func(n int, body string) *fortran.File {
		f, err := fortran.Parse("t.f", fmt.Sprintf(`      program p
      integer i, k
      real a(100), s
      s = 0.0
      do i = 1, %d
         k = mod(i, 100) + 1
%s
         if (a(k) .gt. 1.0e6) then
            a(k) = sqrt(a(k))
         endif
      enddo
      end
      subroutine bump(a, k, s)
      real a(100), s, t
      integer k
      t = a(k)*0.5
      a(k) = t + s
      end
`, n, body))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	allocs := func(f *fortran.File) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := New(f).Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const n = 300
	inline := "         a(k) = a(k)*0.5 + s + real(i)\n         s = s + a(k)"
	if a1, a10 := allocs(program(n, inline)), allocs(program(10*n, inline)); a10 > a1+2 {
		t.Errorf("no calls: %v allocations at %d iterations, %v at %d", a1, n, a10, 10*n)
	}
	call := "         call bump(a, k, s)"
	c1, c10, c100 := allocs(program(n, call)), allocs(program(10*n, call)), allocs(program(100*n, call))
	perCall, perCallLater := (c10-c1)/(9*n), (c100-c10)/(90*n)
	if perCall > 4.01 || perCallLater > perCall+0.01 {
		t.Errorf("calls: %v, %v, %v allocations at %d, %d, %d calls: %.3f, then %.3f per call, want at most 4",
			c1, c10, c100, n, 10*n, 100*n, perCall, perCallLater)
	}
}
