package workloads

import (
	"fmt"
	"strings"
)

// CallHeavy returns a program whose main is mostly CALL statements —
// calls of them — on three leaves over three arrays, the shape of the
// layered benchmark's generated main: nearly every dependence edge of
// the program joins two calls of main. It is not part of the suite
// (All): the incremental-reanalysis tests and benchmarks use it for
// what an edit of one CALL costs.
func CallHeavy(calls int) *Workload {
	var b strings.Builder
	b.WriteString("      program main\n      integer i, n\n      real a(64), b(64), c(64), s\n      n = 64\n      s = 0.5\n")
	b.WriteString("      do i = 1, 64\n         a(i) = 0.25*real(i)\n         b(i) = a(i)*0.5\n         c(i) = 0.125\n      enddo\n")
	leaves := []string{"add", "scale", "shift"}
	arrays := []string{"a", "b", "c"}
	for k := 0; k < calls; k++ {
		fmt.Fprintf(&b, "      call %s(%s, %s, n)\n", leaves[k%3], arrays[k%3], arrays[(k+1)%3])
		if k%6 == 5 {
			fmt.Fprintf(&b, "      s = s*0.5 + 0.25\n      do i = 1, 64\n         %s(i) = %s(i) + s\n      enddo\n", arrays[k%3], arrays[(k+2)%3])
		}
	}
	b.WriteString("      print *, a(1), b(2), c(3)\n      end\n")
	for _, leaf := range []struct{ name, body string }{
		{"add", "x(j) = x(j) + y(j)*0.5"},
		{"scale", "x(j) = y(j)*0.75"},
		{"shift", "x(j) = y(j) + loc"},
	} {
		fmt.Fprintf(&b, "      subroutine %s(x, y, m)\n      integer m, j\n      real x(64), y(64), loc\n      loc = 0.5\n"+
			"      do j = 1, m\n         %s\n      enddo\n      end\n", leaf.name, leaf.body)
	}
	return &Workload{
		Name:        "callheavy",
		Description: fmt.Sprintf("main of %d calls on three leaves", calls),
		Source:      b.String(),
	}
}

// CondConst returns a program whose main assigns an integer constant
// under a conditional and then subscripts with it: no constant is known
// where the IF falls through, so n has no constant value at the loop
// and a(i + n) against a(i) is a symbolic pair (ROADMAP item 1(a)).
// Like CallHeavy it is not part of the suite (All): the incremental
// tests use it so the patch path's constant re-propagation sees a join
// with an empty state on one side.
func CondConst() *Workload {
	return &Workload{
		Name:        "condconst",
		Description: "a constant assigned under a conditional feeds a subscript",
		Source: `      program cond
      integer i, n, c
      real a(100), s
      a(1) = 2.0
      c = int(a(1))
      if (c .gt. 0) then
         n = 5
      endif
      do i = 1, 10
         a(i + n) = a(i) + 1.0
         s = a(i)*0.5
      enddo
      print *, a(6), s
      end
`,
	}
}
