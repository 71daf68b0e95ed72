// What the interpreter decides at compile time rests on a proof
// (internal/interp/prove.go) that a symbol's storage holds the type the
// symbol declares. These programs each sit on an edge of that proof —
// storage two symbols of different types name through a chain of calls,
// a COMMON block or sequence association, a dummy handed a value of
// another type, an intrinsic or operator whose result type only the
// run knows — and are pinned, like interpCases, to what the tree walker
// of commit 61ace43 did with them.
package parascope

import (
	"testing"

	"parascope/internal/fortran"
)

var proofCases = []struct {
	name, src, want string
}{
	{"mismatch-two-calls-down", `      program p
      integer k
      k = 7
      call outer(k)
      print *, k, k/2
      end
      subroutine outer(n)
      integer n
      print *, n/2
      call inner(n)
      print *, n/2
      end
      subroutine inner(x)
      real x
      x = x/2
      end
`, `out="3\n1.5\n3 1.5\n" err="<nil>" cycles=7 stmts=7 ploops=0`},
	{"value-actual-typed-by-a-loosened-variable", `      program p
      integer k
      k = 7
      call half(k)
      call show(k + 1)
      call show(k*2)
      end
      subroutine half(x)
      real x
      x = x/2
      end
      subroutine show(n)
      integer n
      print *, n, n/2
      end
`, `out="4 2\n6 3\n" err="<nil>" cycles=7 stmts=7 ploops=0`},
	{"function-result-loosened-inside", `      program p
      print *, f(3)/2, f(3)
      end
      function f(n)
      integer n
      f = n
      call ints(f)
      end
      subroutine ints(k)
      integer k
      k = k*2 + 1
      end
`, `out="3 7\n" err="<nil>" cycles=1 stmts=7 ploops=0`},
	{"element-of-loosened-array-by-value", `      program p
      integer k(3)
      k(1) = 9
      call reals(k)
      call show(k(1))
      call show(k(2))
      end
      subroutine reals(a)
      real a(3)
      a(2) = a(1)/2
      end
      subroutine show(n)
      integer n
      print *, n, n/2
      end
`, `out="9 4\n4 2\n" err="<nil>" cycles=7 stmts=7 ploops=0`},
	{"tail-of-integer-array-as-reals", `      program p
      integer k(6), i
      do i = 1, 6
         k(i) = i
      enddo
      call reals(k(4))
      print *, k(3)/2, k(4)/2, k(5)/2, k(6)
      end
      subroutine reals(a)
      real a(3)
      a(2) = a(1)/8
      end
`, `out="1 2 0 6\n" err="<nil>" cycles=10 stmts=10 ploops=0`},
	{"common-array-same-type-two-shapes", `      program p
      real a(2,3)
      common /blk/ a
      a(2,3) = 6.5
      call s
      print *, a(1,1), a(2,3)
      end
      subroutine s
      real a(6)
      common /blk/ a
      a(1) = a(6)*2
      a(6) = a(1) + 1
      end
`, `out="13 14\n" err="<nil>" cycles=5 stmts=5 ploops=0`},
	{"common-scalar-kind-differs", `      program p
      real a
      common /blk/ a
      a = 1.5
      call s
      print *, a
      end
      subroutine s
      real a(2)
      common /blk/ a
      a(1) = 9.0
      print *, a(1), a(2)
      end
`, `out="9 0\n1.5\n" err="<nil>" cycles=5 stmts=5 ploops=0`},
	{"doall-loosened-private-and-typed-reduction", `      program p
      integer i, k, n
      real t
      n = 0
      do i = 1, 12
         k = i
         call half(k)
         t = k
         n = n + int(t*2)
      enddo
      print *, n, k
      end
      subroutine half(x)
      real x
      x = x/2
      end
`, `out="72 0\n" err="<nil>" cycles=123 stmts=63 ploops=1`},
	{"rare-intrinsics-in-typed-arithmetic", `      program p
      integer i
      real x
      i = -7
      x = 2.5
      print *, sign(3, i) + 1, sign(x, -1.0)*2, dim(i, -9)/2, dim(x, 1.0)/2
      print *, iabs(i)/2, iabs(-2.9) + 1, atan2(x, x)*4, max(i, 2)/4, max(x, 2)/4
      print *, mod(i, 3)/2, mod(x, 2)/2, amod(i, 3)/2, abs(i)/2, abs(x)/2
      end
`, `out="-2 -5 1 0.75\n3 3 3.141592653589793 0 0.625\n0 0.25 0 3 1.25\n" err="<nil>" cycles=5 stmts=5 ploops=0`},
	{"power-typing", `      program p
      integer i, j, n
      parameter (n = 2)
      real x
      i = 3
      j = -2
      x = 2.0
      print *, i**2/2, i**n/2, i**j, (i**j)*2, x**2, x**i, i**x, 2**(-1), (-8)**3
      end
`, `out="4 4 0.1111111111111111 0.2222222222222222 4 8 9 0.5 -512\n" err="<nil>" cycles=4 stmts=4 ploops=0`},
	{"logical-variables", `      program p
      logical l, m
      integer k
      real x
      x = 2.0
      l = x .gt. 1.0
      m = .not. l .or. x .lt. 0.0
      k = l
      x = m
      if (l .and. .not. m) print *, l, m, k, x
      l = 5
      m = 'abc'
      print *, l, m, l .or. .true.
      end
`, `out="T F 0 0\nF F T\n" err="<nil>" cycles=10 stmts=10 ploops=0`},
	{"characters", `      program p
      character*8 s, t
      integer i
      s = 'ab'
      do i = 1, 3
         t = s // 'c'
         s = t
      enddo
      print *, s, t, s .eq. t, s .gt. 'abc', 'x' // 1
      end
`, `out="abccc abccc T T x\n" err="<nil>" cycles=9 stmts=9 ploops=0`},
	{"right-hand-side-before-subscripts", `      program p
      integer k
      common /c/ k
      real a(4)
      k = 0
      a(next(1)) = next(10)
      a(next(1)) = a(1) + next(1)
      print *, a(1), a(2), a(3), a(4), k
      end
      function next(n)
      integer n, k
      common /c/ k
      k = k + n
      next = mod(k, 4) + 1
      end
`, `out="0 1 0 3 13\n" err="<nil>" cycles=4 stmts=12 ploops=0`},
	{"logical-if-and-arithmetic-on-mixed-compare", `      program p
      integer i
      real x
      double precision d
      i = 2
      x = 2.0
      d = 2.0d0
      print *, i .eq. x, x .eq. d, i .ge. d, i .lt. x, (i .eq. x) .and. (x .ne. d)
      print *, sqrt(-1.0) .eq. 1.0, sqrt(-1.0) .le. 1.0, sqrt(-1.0) .ne. 1.0, sqrt(-1.0) .lt. 1.0
      end
`, `out="T T T F F\nT T F F\n" err="<nil>" cycles=5 stmts=5 ploops=0`},
}

func TestInterpProof(t *testing.T) {
	for _, c := range proofCases {
		t.Run(c.name, func(t *testing.T) {
			f, err := fortran.Parse(c.name+".f", c.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if c.name == "doall-loosened-private-and-typed-reduction" {
				u := f.Main()
				do := u.Body[1].(*fortran.DoStmt)
				do.Parallel = true
				do.Private = []*fortran.Symbol{do.Var, u.Lookup("k"), u.Lookup("t")}
				do.Reductions = []fortran.Reduction{{Sym: u.Lookup("n"), Op: fortran.TokPlus}}
			}
			if got := interpRecord(f, 3, nil, 0); got != c.want {
				t.Errorf("moved:\n got  %s\n want %s", got, c.want)
			}
		})
	}
}
