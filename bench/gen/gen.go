// Package gen generates the benchmark's Fortran inputs from a seed.
//
// A program is a main unit with a few inline loop blocks plus a list of
// compute subroutines it calls, every block drawn from the same six
// loop shapes the paper's suite exercises (recurrence, reduction, calls
// in a loop that need regular sections, a symbolic subscript offset, a
// two-deep nest, a dependence-free loop). The shape multiset is fixed
// by the Config, so analysis cost does not depend on the seed; the seed
// only permutes the shapes and draws the numeric constants. Every
// update is contractive, so values stay bounded however many units run.
//
// Only the generated text reaches the program under test; the seed
// stays in the benchmark.
package gen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Shape names one loop pattern.
type Shape int

// The loop shapes, in the order the generator cycles through them.
const (
	Recurrence  Shape = iota // loop-carried flow dependence
	Reduction                // scalar sum reduction
	CallSweep                // calls in a loop; parallel only with regular sections
	SymOffset                // subscript offset unknown at compile time
	Nest                     // two-deep nest, carried by the outer loop
	Independent              // no carried dependence
	numShapes
)

func (s Shape) String() string {
	return [...]string{"recurrence", "reduction", "callsweep", "symoffset", "nest", "independent"}[s]
}

// Array extents shared by every generated program: 1-D arrays of N
// elements, one M×M array, and a per-unit local scratch of L elements.
const (
	N = 400
	M = 20
	L = 64
)

// Config sizes a program.
type Config struct {
	// Inline is the number of loop blocks in the main unit.
	Inline int
	// Units is the number of compute subroutines main calls.
	Units int
	// Passes is how many times main calls the whole list of units,
	// which scales run time without changing analysis cost.
	Passes int
	// Salt is stored to a variable nothing reads: it changes the
	// program text (so content-addressed caches miss) but not its output.
	Salt int
}

// Big is the big_edit program: dependence analysis dominates its open.
func Big() Config { return Config{Inline: 6, Units: 200, Passes: 1} }

// Mid is a plan_run program: small enough to plan and build in well
// under a second, long enough that a run is not all process spawn.
func Mid() Config { return Config{Inline: 6, Units: 6, Passes: 12} }

// Unit describes one generated subroutine.
type Unit struct {
	Name  string
	Shape Shape
}

// Program is generated source plus the structure the benchmark needs to
// address statements in it.
type Program struct {
	Source string
	// Blocks are the shapes of main's inline blocks, in source order.
	Blocks []Shape
	// Units are the compute subroutines, in call order. CallSweep units
	// additionally own a helper named "h" + the unit's number.
	Units []Unit
}

// coef draws a multiplier from a small table of exactly representable
// values, so printed constants survive print→parse unchanged.
func coef(r *rand.Rand) string {
	return [...]string{"0.125", "0.25", "0.375", "0.5"}[r.Intn(4)]
}

// Generate builds the program for seed under cfg. The same seed and cfg
// give byte-identical source.
func Generate(seed int64, cfg Config) Program {
	r := rand.New(rand.NewSource(seed))
	shapes := func(n int) []Shape {
		out := make([]Shape, n)
		for i := range out {
			out[i] = Shape(i % int(numShapes))
		}
		r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	p := Program{Blocks: shapes(cfg.Inline)}
	for i, sh := range shapes(cfg.Units) {
		p.Units = append(p.Units, Unit{Name: fmt.Sprintf("u%d", i+1), Shape: sh})
	}

	var b strings.Builder
	b.WriteString("      program main\n")
	b.WriteString("      integer i, j, k, ip\n")
	fmt.Fprintf(&b, "      real a(%d), b(%d), w(%d,%d), s, t, zsalt\n", N, N, M, M)
	fmt.Fprintf(&b, "      do i = 1, %d\n", N)
	b.WriteString("         a(i) = 0.001*real(mod(i, 37)) + 0.5\n")
	b.WriteString("         b(i) = 0.002*real(mod(i, 23)) + 0.25\n")
	b.WriteString("      enddo\n")
	fmt.Fprintf(&b, "      do j = 1, %d\n", M)
	fmt.Fprintf(&b, "         do i = 1, %d\n", M)
	b.WriteString("            w(i,j) = 0.01*real(i + j)\n")
	b.WriteString("         enddo\n")
	b.WriteString("      enddo\n")
	b.WriteString("      s = 0.0\n")
	for i, sh := range p.Blocks {
		block(&b, r, sh, "a", "b", i+1, 1+i%3)
	}
	passes := cfg.Passes
	if passes < 1 {
		passes = 1
	}
	if passes > 1 {
		fmt.Fprintf(&b, "      do ip = 1, %d\n", passes)
	}
	for i, u := range p.Units {
		// Alternate the actual order so a and b both get written.
		x, y := "a", "b"
		if i%2 == 1 {
			x, y = y, x
		}
		fmt.Fprintf(&b, "      call %s(%s, %s, w, %d)\n", u.Name, x, y, 1+i%7)
	}
	if passes > 1 {
		b.WriteString("      enddo\n")
	}
	b.WriteString("      t = 0.0\n")
	fmt.Fprintf(&b, "      do i = 1, %d\n", N)
	b.WriteString("         t = t + a(i) + b(i)\n")
	b.WriteString("      enddo\n")
	fmt.Fprintf(&b, "      zsalt = %d.0\n", cfg.Salt)
	fmt.Fprintf(&b, "      print *, t, s, a(1), b(%d), w(%d,%d)\n", N, M, M)
	b.WriteString("      end\n")

	for i, u := range p.Units {
		n := i + 1
		fmt.Fprintf(&b, "      subroutine %s(x, y, w, off)\n", u.Name)
		b.WriteString("      integer off, i, j, k\n")
		fmt.Fprintf(&b, "      real x(%d), y(%d), w(%d,%d), loc(%d), s, t\n", N, N, M, M, L)
		// A local phase no caller can see: statements here are inside
		// the statement-granular patch envelope.
		fmt.Fprintf(&b, "      do i = 1, %d\n", L)
		fmt.Fprintf(&b, "         loc(i) = %s*real(mod(i + %d, 11))\n", coef(r), n%9)
		b.WriteString("      enddo\n")
		b.WriteString("      s = 0.0\n")
		block(&b, r, u.Shape, "x", "y", n, -1)
		fmt.Fprintf(&b, "      x(1) = x(1)*0.5 + loc(%d)*0.001\n", 1+n%L)
		b.WriteString("      end\n")
		if u.Shape == CallSweep {
			fmt.Fprintf(&b, "      subroutine h%d(y, w, k)\n", n)
			b.WriteString("      integer k, i\n")
			fmt.Fprintf(&b, "      real y(%d), w(%d,%d)\n", N, M, M)
			fmt.Fprintf(&b, "      do i = 1, %d\n", M)
			fmt.Fprintf(&b, "         w(i,k) = w(i,k)*%s + y(i + k)*0.01\n", coef(r))
			b.WriteString("      enddo\n")
			b.WriteString("      end\n")
		}
	}
	p.Source = b.String()
	return p
}

// block writes one loop block of the given shape over arrays x and y.
// n numbers the block (it names CallSweep's helper); off is the literal
// offset for SymOffset inside main, or -1 to use the dummy argument
// "off", which is what makes the offset symbolic.
func block(b *strings.Builder, r *rand.Rand, sh Shape, x, y string, n, off int) {
	c1, c2 := coef(r), coef(r)
	switch sh {
	case Recurrence:
		fmt.Fprintf(b, "      do i = 2, %d\n", N)
		fmt.Fprintf(b, "         t = %s(i-1)*%s + %s(i)*%s\n", x, c1, y, c2)
		fmt.Fprintf(b, "         %s(i) = t + 0.001\n", x)
		b.WriteString("      enddo\n")
	case Reduction:
		fmt.Fprintf(b, "      do i = 1, %d\n", N)
		fmt.Fprintf(b, "         s = s + %s(i)*%s(i)*%s\n", x, y, c1)
		b.WriteString("      enddo\n")
		fmt.Fprintf(b, "      %s(2) = %s(2)*%s + s*0.000001\n", y, y, c2)
	case CallSweep:
		if off >= 0 {
			// Main has no helper of its own: sweep columns inline.
			fmt.Fprintf(b, "      do k = 1, %d\n", M)
			fmt.Fprintf(b, "         do i = 1, %d\n", M)
			fmt.Fprintf(b, "            w(i,k) = w(i,k)*%s + %s(i + k)*0.01\n", c1, y)
			b.WriteString("         enddo\n")
			b.WriteString("      enddo\n")
			return
		}
		fmt.Fprintf(b, "      do k = 1, %d\n", M)
		fmt.Fprintf(b, "         call h%d(%s, w, k)\n", n, y)
		b.WriteString("      enddo\n")
	case SymOffset:
		o := "off"
		if off >= 0 {
			o = fmt.Sprint(off)
		}
		fmt.Fprintf(b, "      do i = 1, %d\n", N-8)
		fmt.Fprintf(b, "         %s(i) = %s(i + %s)*%s + %s(i)*%s\n", x, x, o, c1, y, c2)
		b.WriteString("      enddo\n")
	case Nest:
		fmt.Fprintf(b, "      do j = 2, %d\n", M)
		fmt.Fprintf(b, "         do i = 1, %d\n", M)
		fmt.Fprintf(b, "            w(i,j) = w(i,j-1)*%s + %s(i)*%s\n", c1, x, c2)
		b.WriteString("         enddo\n")
		b.WriteString("      enddo\n")
	case Independent:
		fmt.Fprintf(b, "      do i = 1, %d\n", N)
		fmt.Fprintf(b, "         %s(i) = %s(i)*%s + %s\n", y, x, c1, c2)
		b.WriteString("      enddo\n")
	}
}
