package codegen

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"parascope/internal/interp"
)

// reductionProgram is one DOALL over `do i = lo, hi, st` (read at run
// time, so one binary serves every trip count and step) reducing r.
// The first record is the loop variable's final value, the second r.
func reductionProgram(typ, op, seed, update string) string {
	return fmt.Sprintf(`
      program p
      integer i, lo, hi, st
      %s r
      read(*,*) lo, hi, st
      r = %s
c$par doall reduction(%s:r)
      do i = lo, hi, st
        r = %s
      enddo
      print *, i
      print *, r
      end
`, typ, seed, op, update)
}

// protocolCases exercise every decision parrt owns through both
// backends. exact says the whole output must equal the sequential
// run's; otherwise (real sums and products, whose rounding depends on
// the worker count, and the shared copy of a privatised scalar) only
// the first record — the loop variable's final value — must.
var protocolCases = []struct {
	name, src string
	exact     bool
}{
	{"sum-integer", reductionProgram("integer", "+", "3", "r + i*i"), true},
	{"sum-real", reductionProgram("real", "+", "0.25", "r + 0.1*real(i)"), false},
	{"product-integer", reductionProgram("integer", "*", "2", "r * (1 + mod(i + 20, 3))"), true},
	{"product-real", reductionProgram("real", "*", "1.5", "r * (1.0 + 0.01*real(i))"), false},
	{"max-integer", reductionProgram("integer", "max", "4", "max(r, mod(i*7 + 70, 11))"), true},
	{"max-real", reductionProgram("real", "max", "2.5", "max(r, abs(real(i) - 3.5))"), true},
	{"min-integer", reductionProgram("integer", "min", "4", "min(r, mod(i*7 + 70, 11))"), true},
	{"min-real", reductionProgram("real", "min", "2.5", "min(r, abs(real(i) - 3.5))"), true},
	{"private-scalar", `
      program p
      integer i, k, lo, hi, st
      real t, s, a(-10:30)
      read(*,*) lo, hi, st
      do k = -10, 30
        a(k) = 0.0
      enddo
      t = -1.0
c$par doall private(t)
      do i = lo, hi, st
        t = real(i)*0.5
        a(i) = t + 1.0
      enddo
      s = 0.0
      do k = -10, 30
        s = s + a(k)*real(k)
      enddo
      print *, i, s
      print *, t
      end
`, false},
	{"private-work-array", `
      program p
      integer i, k, lo, hi, st
      real w(4), s, a(-10:30)
      read(*,*) lo, hi, st
      do k = -10, 30
        a(k) = 0.0
      enddo
c$par doall private(w,k)
      do i = lo, hi, st
        do k = 1, 4
          w(k) = real(i*k)
        enddo
        a(i) = w(1) + w(2)*w(3) - w(4)
      enddo
      s = 0.0
      do k = -10, 30
        s = s + a(k)*real(k)
      enddo
      print *, i, s
      end
`, true},
	{"common-reduction", `
      program p
      integer i, lo, hi, st
      common /acc/ total
      integer total
      read(*,*) lo, hi, st
      total = 5
c$par doall reduction(+:total)
      do i = lo, hi, st
        total = total + i
      enddo
      print *, i
      call show
      end
      subroutine show
      common /acc/ total
      integer total
      print *, total
      end
`, true},
}

// TestProtocolEdges runs each case at the trip counts around
// every worker count (0, 1, 2, w-1, w, w+1) and at steps 1, -1 and 3:
// the interpreter and the compiled program must agree byte for byte,
// and with the loop run sequentially wherever arithmetic allows.
func TestProtocolEdges(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles binaries; skipped in -short mode")
	}
	cache := t.TempDir()
	for _, c := range protocolCases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			f := parse(t, c.src)
			seq := parse(t, strings.Replace(c.src, "c$par", "c", 1))
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			art, err := Build(ctx, f, cache, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(art.Source, "parrt.") || strings.Contains(art.Source, "sync.WaitGroup") {
				t.Fatalf("generated DOALL does not go through parrt:\n%s", art.Source)
			}
			for _, w := range []int64{1, 2, 4, 8} {
				for _, trip := range []int64{0, 1, 2, w - 1, w, w + 1} {
					for _, step := range []int64{1, -1, 3} {
						lo := int64(1)
						input := []float64{float64(lo), float64(lo + (trip-1)*step), float64(step)}
						at := fmt.Sprintf("workers %d trip %d step %d", w, trip, step)
						want, err := interp.RunCapture(f, int(w), input)
						if err != nil {
							t.Fatalf("%s: interp: %v", at, err)
						}
						got, err := Run(ctx, art, int(w), input, nil)
						if err != nil {
							t.Fatalf("%s: compiled: %v", at, err)
						}
						if got.Output != want {
							t.Fatalf("%s: compiled %q, interp %q", at, got.Output, want)
						}
						ref, err := interp.RunCapture(seq, 1, input)
						if err != nil {
							t.Fatalf("%s: sequential: %v", at, err)
						}
						if !c.exact {
							want, _, _ = strings.Cut(want, "\n")
							ref, _, _ = strings.Cut(ref, "\n")
						}
						if want != ref {
							t.Fatalf("%s: parallel %q, sequential %q", at, want, ref)
						}
					}
				}
			}
		})
	}
}
