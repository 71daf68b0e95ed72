// Pinned interpreter behaviour. Every differential suite uses the
// interpreter as its reference, so nothing would notice a change that
// moved the reference itself; these tests compare it with what commit
// 61ace43 — the last tree whose interpreter walked the AST — did:
// TestInterpDigest on whole programs (output, simulated cycles,
// statement and parallel-loop counts at 1, 2, 4 and 8 workers),
// TestInterpErrors on small programs that each reach one run-time
// error, or one decision the evaluator takes from a value's run-time
// type.
package parascope

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"parascope/internal/fortran"
	"parascope/internal/interp"
	"parascope/internal/workloads"
)

// interpRecord is everything a run lets a caller observe.
func interpRecord(f *fortran.File, workers int, input []float64, limit int64) string {
	m := interp.New(f)
	var out strings.Builder
	m.Out = &out
	m.Workers = workers
	m.Input = input
	m.StmtLimit = limit
	err := m.Run()
	errText := "<nil>"
	if err != nil {
		errText = err.Error()
	}
	return fmt.Sprintf("out=%q err=%q cycles=%d stmts=%d ploops=%d",
		out.String(), errText, m.SimCycles, m.StmtsExecuted(), m.ParallelLoopsRun)
}

// TestInterpDigest runs every suite program, serial and as its user
// session leaves it, plus the call-heavy, conditional-constant and
// edit-bench programs, and compares one line per run with
// testdata/interp_digest.golden (the output is hashed, the counts are
// not, so a moved count reads off the diff).
func TestInterpDigest(t *testing.T) {
	type program struct {
		name  string
		file  *fortran.File
		input []float64
	}
	var programs []program
	for _, w := range workloads.All() {
		for _, label := range []string{"serial", "parallel"} {
			programs = append(programs, program{w.Name + "/" + label, compiledVariants(t, w)[label], w.Input})
		}
	}
	for _, w := range []*workloads.Workload{workloads.CallHeavy(24), workloads.CondConst(),
		{Name: "editbench", Source: editBenchSource(30)}} {
		programs = append(programs, program{w.Name + "/serial", w.MustParse(), nil})
	}
	var got strings.Builder
	for _, p := range programs {
		for _, workers := range []int{1, 2, 4, 8} {
			rec := interpRecord(p.file, workers, p.input, 500_000_000)
			out, rest, _ := strings.Cut(strings.TrimPrefix(rec, "out="), " err=")
			fmt.Fprintf(&got, "%s w%d out=%x err=%s\n", p.name, workers, sha256.Sum256([]byte(out)), rest)
		}
	}
	want, err := os.ReadFile("testdata/interp_digest.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("run moved:\n got  %s\n want %s", gl[i], wl[i])
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("%d runs, golden has %d", len(gl)-1, len(wl)-1)
		}
	}
}

// interpCases are the small programs of TestInterpErrors. A case whose
// name ends in "!par" has its first DO marked DOALL before it runs,
// with the loop variable, j and w private and s, big and k reductions.
var interpCases = []struct {
	name    string
	src     string
	workers int
	input   []float64
	limit   int64
	want    string
}{
	{"oob-dim", `      program p
      real a(3,4)
      a(2,5) = 1.0
      end
`, 1, nil, 0, `out="" err="a: subscript 5 (dim 2) out of bounds [1,4]" cycles=1 stmts=1 ploops=0`},
	{"oob-linear", `      program p
      real a(3,4), x
      x = a(12)
      x = a(13)
      end
`, 1, nil, 0, `out="" err="subscript 13 out of bounds for a" cycles=2 stmts=2 ploops=0`},
	{"linear-ok-and-rank-mismatch", `      program p
      real a(2,2,2)
      a(2,2,2) = 2.5
      print *, a(8)
      print *, a(1,2)
      end
`, 1, nil, 0, `out="2.5\n" err="a: 2 subscripts for 3 dims" cycles=3 stmts=3 ploops=0`},
	{"oob-in-load", `      program p
      real a(0:3), x
      integer i
      i = -1
      print *, 7
      x = a(i)*2.0
      print *, x
      end
`, 1, nil, 0, `out="7\n" err="a: subscript -1 (dim 1) out of bounds [0,3]" cycles=3 stmts=3 ploops=0`},
	{"int-div-zero", `      program p
      integer i, j
      j = 0
      print *, 1.0/j
      i = 4/j
      end
`, 1, nil, 0, `out="+Inf\n" err="interp: integer division by zero" cycles=3 stmts=3 ploops=0`},
	{"mod-zero", `      program p
      integer i, j
      j = 0
      print *, mod(5.0, 0.0)
      i = mod(4, j)
      end
`, 1, nil, 0, `out="NaN\n" err="interp: mod by zero" cycles=3 stmts=3 ploops=0`},
	{"stop-in-subroutine", `      program p
      call s
      end
      subroutine s
      print *, 1
      stop
      end
`, 1, nil, 0, `out="1\n" err="interp: STOP inside subroutine s" cycles=3 stmts=3 ploops=0`},
	{"stop-in-function", `      program p
      real x
      x = f(1.0)
      end
      real function f(y)
      real y
      f = y
      stop
      end
`, 1, nil, 0, `out="" err="interp: STOP inside function f" cycles=1 stmts=3 ploops=0`},
	{"function-never-set-result", `      program p
      real x
      x = f(1.0)
      print *, x
      end
      function f(y)
      real y
      dimension f(2)
      f(1) = y
      end
`, 1, nil, 0, `out="" err="interp: function f never set its result" cycles=1 stmts=2 ploops=0`},
	{"function-result-defaults-to-zero", `      program p
      print *, f(1.0), k(2)
      end
      function f(y)
      real y
      y = y + 1.0
      end
      function k(j)
      integer j
      end
`, 1, nil, 0, `out="0 0\n" err="<nil>" cycles=1 stmts=2 ploops=0`},
	{"stmt-limit", `      program p
      integer i
      i = 0
      do while (i .lt. 1)
         i = 0
      enddo
      end
`, 1, nil, 20000, `out="" err="interp: statement limit 20000 exceeded" cycles=24576 stmts=24576 ploops=0`},
	{"stmt-limit-in-calls", `      program p
      integer i, k
      k = 0
      do i = 1, 100000
         call bump(k)
         if (mod(i, 1000) .eq. 0) print *, k
      enddo
      end
      subroutine bump(k)
      integer k, j
      do j = 1, 50
         k = k + 1
      enddo
      end
`, 1, nil, 200000, `out="50000\n100000\n150000\n" err="interp: statement limit 200000 exceeded" cycles=205380 stmts=205380 ploops=0`},
	{"stmt-limit-in-doall!par", `      program p
      integer i, j
      real a(100)
      do i = 1, 100
         do j = 1, 10000
            a(i) = a(i) + 1.0
         enddo
      enddo
      end
`, 4, nil, 100000, `out="" err="interp: statement limit 100000 exceeded" cycles=101 stmts=131073 ploops=1`},
	{"escape-parallel-loop!par", `      program p
      integer i
      real a(100)
      do i = 1, 100
         a(i) = 1.0
         if (i .eq. 50) goto 99
      enddo
 99   continue
      end
`, 4, nil, 0, `out="" err="interp: control flow escaping a parallel loop" cycles=151 stmts=151 ploops=1`},
	{"return-in-parallel-loop!par", `      program p
      real a(100)
      call s(a)
      end
      subroutine s(a)
      real a(100)
      integer i
      do i = 1, 100
         if (i .eq. 50) return
      enddo
      end
`, 2, nil, 0, `out="" err="interp: control flow escaping a parallel loop" cycles=152 stmts=52 ploops=1`},
	{"error-in-worker!par", `      program p
      integer i
      real a(100)
      do i = 1, 200
         a(i) = 1.0
      enddo
      print *, a(1)
      end
`, 4, nil, 0, `out="" err="a: subscript 101 (dim 1) out of bounds [1,100]" cycles=101 stmts=1 ploops=1`},
	{"whole-array-in-expression", `      program p
      real a(3), x
      x = a + 1.0
      end
`, 1, nil, 0, `out="" err="interp: whole-array reference a in expression" cycles=1 stmts=1 ploops=0`},
	{"whole-array-assigned", `      program p
      real a(3)
      a = 1.0
      end
`, 1, nil, 0, `out="" err="interp: scalar a has no storage" cycles=1 stmts=1 ploops=0`},
	{"missing-scalar-binding", `      program p
      real a(3)
      call s(a)
      end
      subroutine s(x)
      real x
      x = 1.0
      end
`, 1, nil, 0, `out="" err="interp: s: argument 1: scalar binding missing" cycles=1 stmts=1 ploops=0`},
	{"missing-array-binding", `      program p
      real x
      call s(x)
      end
      subroutine s(a)
      real a(3)
      a(1) = 1.0
      end
`, 1, nil, 0, `out="" err="interp: s: argument 1: array binding missing" cycles=1 stmts=1 ploops=0`},
	{"too-few-actuals", `      program p
      real x
      x = 1.0
      call s(x)
      end
      subroutine s(x, y)
      real x, y
      x = y
      end
`, 1, nil, 0, `out="" err="interp: s: argument 2: scalar binding missing" cycles=2 stmts=2 ploops=0`},
	{"too-many-actuals-are-not-evaluated", `      program p
      real x
      x = 1.0
      call s(x, 1/0)
      print *, x
      end
      subroutine s(x)
      real x
      x = x + 1.0
      end
`, 1, nil, 0, `out="2\n" err="<nil>" cycles=4 stmts=4 ploops=0`},
	{"actuals-evaluated-before-binding-check", `      program p
      real a(3)
      call s(a, 1/0)
      end
      subroutine s(x, k)
      real x
      integer k
      x = 1.0
      end
`, 1, nil, 0, `out="" err="interp: integer division by zero" cycles=1 stmts=1 ploops=0`},
	{"unknown-subroutine", `      program p
      print *, 1
      call nosuch(1)
      end
`, 1, nil, 0, `out="1\n" err="interp: call to unknown subroutine nosuch" cycles=2 stmts=2 ploops=0`},
	{"unknown-function", `      program p
      real x
      x = nosuch(1/0)
      end
`, 1, nil, 0, `out="" err="interp: integer division by zero" cycles=1 stmts=1 ploops=0`},
	{"intrinsic-arity", `      program p
      real x
      x = sqrt(1.0, 2.0)
      end
`, 1, nil, 0, `out="" err="interp: sqrt expects 1 args, got 2" cycles=1 stmts=1 ploops=0`},
	{"minmax-arity", `      program p
      real x
      x = max(1.0)
      end
`, 1, nil, 0, `out="" err="interp: max needs at least 2 args" cycles=1 stmts=1 ploops=0`},
	{"read-past-input", `      program p
      integer i, k(2)
      real x, y
      read(*,*) i, x, k(2)
      read(*,*) y, k(1)
      print *, i, x, y, k(1), k(2)
      end
`, 1, []float64{2.75, 3.5, 7.9}, 0, `out="2 3.5 0 0 7\n" err="<nil>" cycles=3 stmts=3 ploops=0`},
	{"read-out-of-bounds", `      program p
      integer i
      real a(2)
      read(*,*) i, a(i)
      end
`, 1, []float64{3, 1}, 0, `out="" err="a: subscript 3 (dim 1) out of bounds [1,2]" cycles=1 stmts=1 ploops=0`},
	{"goto-out-of-loop", `      program p
      integer i, k
      k = 0
      do i = 1, 10
         k = k + i
         if (k .gt. 5) goto 20
      enddo
      k = -1
 20   print *, i, k
      end
`, 1, nil, 0, `out="3 6\n" err="<nil>" cycles=10 stmts=10 ploops=0`},
	{"goto-terminator-label", `      program p
      integer i, k
      k = 0
      do 10 i = 1, 6
         if (mod(i, 2) .eq. 0) goto 10
         k = k + i
 10   continue
      print *, i, k
      end
`, 1, nil, 0, `out="" err="interp: unresolved GOTO 10" cycles=6 stmts=6 ploops=0`},
	{"goto-label-zero", `      program p
      integer k
      k = 0
 5    k = k + 1
      if (k .lt. 3) goto 0
      print *, k
      end
`, 1, nil, 30000, `out="" err="interp: statement limit 30000 exceeded" cycles=32768 stmts=32768 ploops=0`},
	{"goto-backward-from-if", `      program p
      integer k
      k = 0
 5    k = k + 1
      if (k .lt. 4) then
         if (k .gt. 0) goto 5
      endif
      print *, k
      end
`, 1, nil, 0, `out="4\n" err="<nil>" cycles=16 stmts=16 ploops=0`},
	{"goto-out-of-while", `      program p
      integer k
      k = 0
      do while (.true.)
         k = k + 1
         if (k .eq. 7) goto 30
      enddo
 30   print *, k
      end
`, 1, nil, 0, `out="7\n" err="<nil>" cycles=18 stmts=18 ploops=0`},
	{"goto-unresolved", `      program p
      print *, 1
      goto 77
      print *, 2
      end
`, 1, nil, 0, `out="1\n" err="interp: unresolved GOTO 77" cycles=2 stmts=2 ploops=0`},
	{"goto-unresolved-in-subroutine-returns", `      program p
      integer k
      k = 1
      call s(k)
      print *, k
      end
      subroutine s(k)
      integer k
      k = 2
      goto 77
      k = 3
      end
`, 1, nil, 0, `out="2\n" err="<nil>" cycles=5 stmts=5 ploops=0`},
	{"real-actual-for-integer-formal", `      program p
      real x
      integer k
      x = 7.0
      k = 7
      call halve(x)
      call halve(7.0)
      call halve(k)
      call halve(7)
      call third(k)
      print *, x, k, k/2
      end
      subroutine halve(n)
      integer n
      print *, n, n/2
      end
      subroutine third(y)
      real y
      y = y/2
      end
`, 1, nil, 0, `out="7 3.5\n7 3.5\n7 3\n7 3\n7 3 1.5\n" err="<nil>" cycles=13 stmts=13 ploops=0`},
	{"integer-array-for-real-formal", `      program p
      integer k(4), i
      do i = 1, 4
         k(i) = i
      enddo
      call scale(k)
      print *, k(1), k(2)/2, k(3), k(4)/8
      end
      subroutine scale(a)
      real a(4)
      a(2) = a(2)*1.5
      a(3) = a(4)/8
      end
`, 1, nil, 0, `out="1 1.5 0 0\n" err="<nil>" cycles=9 stmts=9 ploops=0`},
	{"function-result-keeps-assigned-type", `      program p
      integer k
      k = 7
      print *, half(k), ihalf(7.0)
      end
      function half(n)
      integer n
      half = n/2
      end
      function ihalf(x)
      real x
      ihalf = x/2
      end
`, 1, nil, 0, `out="3 3\n" err="<nil>" cycles=2 stmts=4 ploops=0`},
	{"common-with-two-types", `      program p
      integer k
      real a(2)
      common /blk/ k, a
      k = 7
      a(1) = 7.0
      call s
      print *, k, k/2, a(1), a(1)/2, a(2)
      end
      subroutine s
      real k
      integer a(4)
      common /blk/ k, a
      print *, k/2, a(1)/2
      k = k/2
      a(1) = 3.9
      a(2) = 5
      end
`, 1, nil, 0, `out="3 3.5\n3 1.5 3 1 5\n" err="<nil>" cycles=8 stmts=8 ploops=0`},
	{"mixed-mode", `      program p
      integer i
      real x
      double precision d
      i = 7
      x = 2.0
      d = 0.5d0
      print *, i/2, i/x, i*d, x*d, i**2, i**(-1), x**i, 2**0.5, -i, -x, -d
      print *, i + x .gt. d, i .eq. 7.0, 7/2*2.0, 2.0*7/2
      i = x*3.7
      x = 7/2
      d = 1/3
      print *, i, x, d
      end
`, 1, nil, 0, `out="3 3.5 3.5 1 49 0.14285714285714285 128 1.4142135623730951 -7 -2 -0.5\nT T 6 7\n7 3 0\n" err="<nil>" cycles=9 stmts=9 ploops=0`},
	{"characters-and-logicals", `      program p
      character*8 s, t
      logical a, b
      s = 'abc'
      t = 'abd'
      a = s .lt. t
      b = 'b' .lt. 'a'
      print *, a, b, s // t, 'x' .eq. 'x', s .lt. 1, 1 .lt. s
      print *, s + 1, 1 - t, -s, .not. 1, 1 .and. .true., a .or. 1
      a = 1
      s = 2
      print *, a, s, -a, a + 1
      end
`, 1, nil, 0, `out="T F abcabd T F T\n1 1  T F T\nF  F 1\n" err="<nil>" cycles=9 stmts=9 ploops=0`},
	{"real-loop-variable", `      program p
      real x, s
      s = 0.0
      do x = 1, 4
         s = s + x/2
      enddo
      print *, x, s, x/2
      end
`, 1, nil, 0, `out="5 4 2\n" err="<nil>" cycles=7 stmts=7 ploops=0`},
	{"zero-step", `      program p
      integer i, k
      k = 0
      do i = 1, 4, k
         print *, i
      enddo
      end
`, 1, nil, 0, `out="" err="interp: zero DO step" cycles=2 stmts=2 ploops=0`},
	{"bounds-evaluated-once", `      program p
      integer i, n, k
      n = 3
      k = 0
      do i = 1, n
         n = 10
         i = i + 0
         k = k + 1
      enddo
      print *, i, n, k
      end
`, 1, nil, 0, `out="4 10 3\n" err="<nil>" cycles=13 stmts=13 ploops=0`},
	{"local-array-bound-unresolved", `      program p
      integer n
      parameter (n = 4)
      real a(n)
      a(1) = 1.0
      end
`, 1, nil, 0, `out="" err="interp: a: bad upper bound: interp: unresolved name n" cycles=0 stmts=0 ploops=0`},
	{"parameter-of-parameter", `      program p
      integer n, m
      parameter (n = 4, m = 2*n)
      print *, n
      print *, m
      end
`, 1, nil, 0, `out="4\n" err="interp: unresolved name n" cycles=2 stmts=2 ploops=0`},
	{"assumed-size-local", `      program p
      real a(*)
      a(1) = 1.0
      end
`, 1, nil, 0, `out="" err="interp: a: assumed-size array needs a caller binding" cycles=0 stmts=0 ploops=0`},
	{"empty-extent", `      program p
      real a(5:4)
      a(1) = 1.0
      end
`, 1, nil, 0, `out="" err="interp: a: extent [5,4] empty" cycles=0 stmts=0 ploops=0`},
	{"sequence-association", `      program p
      real a(10)
      integer i
      do i = 1, 10
         a(i) = i
      enddo
      call tail(a(7))
      print *, a(7), a(10)
      call tail(a(9))
      end
      subroutine tail(t)
      real t(4)
      t(1) = -t(1)
      t(4) = t(4)*2
      end
`, 1, nil, 0, `out="-7 20\n" err="t: subscript 4 (dim 1) out of bounds [1,2]" cycles=18 stmts=18 ploops=0`},
	{"callee-uses-the-callers-shape", `      program p
      real a(2,3)
      call fill(a, 2)
      print *, a(1,1), a(2,3)
      end
      subroutine fill(x, n)
      integer n, i
      real x(*)
      do i = 1, 6
         x(i) = i
      enddo
      x(n) = x(n) + 0.5
      x(7) = 0
      end
`, 1, nil, 0, `out="" err="subscript 7 out of bounds for a" cycles=10 stmts=10 ploops=0`},
	{"element-and-expression-actuals-are-copies", `      program p
      real a(3), x
      a(2) = 1.0
      x = 1.0
      call bump(a(2))
      call bump(x + 0)
      call bump(x)
      print *, a(2), x
      end
      subroutine bump(v)
      real v
      v = v + 1.0
      end
`, 1, nil, 0, `out="1 2\n" err="<nil>" cycles=9 stmts=9 ploops=0`},
	{"functions-have-side-effects-and-cost-no-cycles", `      program p
      integer k
      common /c/ k
      real x
      k = 0
      x = tick(1.0) + tick(2.0)
      print *, x, k, tick(3.0)
      if (tick(0.0) .gt. 0.0) k = -k
      print *, k
      end
      function tick(y)
      real y
      integer k, j
      common /c/ k
      do j = 1, 10
         k = k + 1
      enddo
      tick = y
      end
`, 1, nil, 0, `out="3 20 3\n40\n" err="<nil>" cycles=5 stmts=53 ploops=0`},
	{"short-circuit", `      program p
      integer k
      real a(2)
      k = 5
      if (k .lt. 3 .and. a(k) .gt. 0.0) print *, 1
      if (k .gt. 3 .or. a(k) .gt. 0.0) print *, 2
      if (k .gt. 3 .and. a(k) .gt. 0.0) print *, 3
      end
`, 1, nil, 0, `out="2\n" err="a: subscript 5 (dim 1) out of bounds [1,2]" cycles=5 stmts=5 ploops=0`},
	{"intrinsics-by-run-time-type", `      program p
      integer i
      real x
      double precision d
      i = -7
      x = -2.5
      d = 2.25d0
      print *, abs(i), abs(x), abs(d), iabs(i), sqrt(d), sqrt(4), exp(0)
      print *, max(i, 2), max(i, 2.0), max0(2.9, 1), amax1(1, 2), min(x, d), min(3, 4, -5)
      print *, mod(i, 3), mod(x, 2.0), amod(7, 4), sign(3, i), sign(2.5, 1), sign(d, x)
      print *, dim(5, 3), dim(3, 5), dim(x, -4.0), int(x), nint(x), nint(2.5), ifix(3.9)
      print *, real(i), float(i), sngl(d), dble(x), dble(i), atan2(1.0, 1.0), atan2(1, 1)
      print *, log10(100.0), tanh(0.0), sin(0), cos(0.0d0), int(d) + i, real(i)/2
      end
`, 1, nil, 0, `out="7 2.5 2.25 7 1.5 2 1\n2 2 2 2 -2.5 -5\n-1 -0.5 3 -3 2.5 -2.25\n2 0 1.5 -2 -3 3 3\n-7 -7 2.25 -2.5 -7 0.7853981633974483 0.7853981633974483\n2 0 0 1 -5 -3.5\n" err="<nil>" cycles=9 stmts=9 ploops=0`},
	{"doall-private-array-and-reductions!par", `      program p
      integer i, j, k
      real a(40), w(4), s, big
      s = 1.0
      big = -5.0
      k = 0
      do i = 1, 40
         do j = 1, 4
            w(j) = i*j
         enddo
         a(i) = w(1) + w(4)
         s = s + a(i)
         big = max(big, a(i))
         k = k + 1
      enddo
      print *, s, big, k, i, w(1), a(40)
      end
`, 4, nil, 0, `out="4101 200 40 41 0 200\n" err="<nil>" cycles=195 stmts=365 ploops=1`},
	{"print-discarded-still-calls", `      program p
      integer k
      common /c/ k
      k = 0
      print *, bump(1.0)
      print *, k
      end
      function bump(y)
      real y
      integer k
      common /c/ k
      k = k + 1
      bump = y
      end
`, -1, nil, 0, `err=<nil> cycles=3 stmts=5`},
}

// TestInterpErrors pins, for each of interpCases, the output, the
// error's exact text and the three counters.
func TestInterpErrors(t *testing.T) {
	for _, c := range interpCases {
		t.Run(c.name, func(t *testing.T) {
			f, err := fortran.Parse(c.name+".f", c.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if strings.HasSuffix(c.name, "!par") {
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
			var got string
			if c.workers < 0 {
				// Out == nil: PRINT evaluates its items and writes nothing.
				m := interp.New(f)
				err := m.Run()
				got = fmt.Sprintf("err=%v cycles=%d stmts=%d", err, m.SimCycles, m.StmtsExecuted())
			} else {
				got = interpRecord(f, c.workers, c.input, c.limit)
			}
			if got != c.want {
				t.Errorf("moved:\n got  %s\n want %s", got, c.want)
			}
		})
	}
}
