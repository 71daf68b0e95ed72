package perf

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"parascope/internal/dataflow"
	"parascope/internal/fortran"
)

func setup(t *testing.T, src string) (*Estimator, *dataflow.Analysis) {
	t.Helper()
	f, err := fortran.Parse("t.f", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	e := New(f, DefaultParams())
	return e, dataflow.Analyze(f.Units[0], nil)
}

func TestLoopRanking(t *testing.T) {
	e, df := setup(t, `
      program main
      integer i, j
      real a(1000), b(10)
      do i = 1, 1000
         a(i) = a(i)*2.0 + 1.0
      enddo
      do j = 1, 10
         b(j) = 1.0
      enddo
      end
`)
	est := e.EstimateUnit(df)
	if len(est.Loops) != 2 {
		t.Fatalf("got %d loops", len(est.Loops))
	}
	if est.Loops[0].Loop.Header().Name != "i" {
		t.Errorf("hot loop = %s, want i (1000 iterations)", est.Loops[0].Loop.Header().Name)
	}
	if est.Loops[0].SeqTime <= est.Loops[1].SeqTime {
		t.Error("ranking not descending")
	}
	if est.Loops[0].Fraction < 0.9 {
		t.Errorf("hot loop fraction = %.2f, want > 0.9", est.Loops[0].Fraction)
	}
}

func TestNestedLoopCost(t *testing.T) {
	e, df := setup(t, `
      program main
      integer i, j
      real a(100,100)
      do i = 1, 100
         do j = 1, 100
            a(i,j) = 0.0
         enddo
      enddo
      end
`)
	est := e.EstimateUnit(df)
	outer := est.Loops[0]
	inner := est.Loops[1]
	if outer.Loop.Depth != 1 || inner.Loop.Depth != 2 {
		outer, inner = inner, outer
	}
	// The outer loop's time includes the inner's: roughly 100x.
	if outer.SeqTime < 50*inner.BodyCost {
		t.Errorf("outer %f vs inner body %f: nesting not multiplied", outer.SeqTime, inner.BodyCost)
	}
}

func TestParallelSpeedupModel(t *testing.T) {
	e, df := setup(t, `
      program main
      integer i
      real a(10000)
      do i = 1, 10000
         a(i) = a(i)*2.0 + sqrt(a(i))
      enddo
      end
`)
	est := e.EstimateUnit(df)
	big := est.Loops[0]
	if big.Speedup < 4 {
		t.Errorf("big loop speedup = %.1f, want near Procs (8)", big.Speedup)
	}
	// A tiny loop should show poor speedup (startup dominates).
	e2, df2 := setup(t, `
      program main
      integer i
      real a(4)
      do i = 1, 4
         a(i) = 1.0
      enddo
      end
`)
	est2 := e2.EstimateUnit(df2)
	if est2.Loops[0].Speedup > 1 {
		t.Errorf("tiny loop speedup = %.2f, want < 1 (startup dominates)", est2.Loops[0].Speedup)
	}
}

func TestCallCostIncludesCallee(t *testing.T) {
	f, err := fortran.Parse("t.f", `
      program main
      integer i
      real a(100)
      do i = 1, 100
         call heavy(a)
      enddo
      end
      subroutine heavy(x)
      integer k
      real x(100)
      do k = 1, 100
         x(k) = sqrt(x(k)) + 1.0
      enddo
      end
`)
	if err != nil {
		t.Fatal(err)
	}
	e := New(f, DefaultParams())
	df := dataflow.Analyze(f.Units[0], nil)
	est := e.EstimateUnit(df)
	loop := est.Loops[0]
	// Per-iteration cost must include the callee's loop (~100 iters).
	if loop.BodyCost < 500 {
		t.Errorf("call body cost = %.0f, want to include callee work", loop.BodyCost)
	}
}

func TestProcedureRank(t *testing.T) {
	f, err := fortran.Parse("t.f", `
      program main
      real a(10)
      call light(a)
      call heavy(a)
      end
      subroutine light(x)
      real x(10)
      x(1) = 0.0
      end
      subroutine heavy(x)
      integer k, j
      real x(10)
      do k = 1, 10
         do j = 1, 10
            x(1) = x(1) + 1.0
         enddo
      enddo
      end
`)
	if err != nil {
		t.Fatal(err)
	}
	e := New(f, DefaultParams())
	rows := e.ProcedureRank()
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// main includes both callees, so it ranks first; heavy above light.
	if rows[0].Unit.Name != "main" {
		t.Errorf("rank 1 = %s, want main", rows[0].Unit.Name)
	}
	hi, li := -1, -1
	for i, r := range rows {
		switch r.Unit.Name {
		case "heavy":
			hi = i
		case "light":
			li = i
		}
	}
	if hi > li {
		t.Errorf("heavy (%d) should outrank light (%d)", hi, li)
	}
}

func TestReportFormat(t *testing.T) {
	e, df := setup(t, `
      program main
      integer i
      real a(50)
      do i = 1, 50
         a(i) = 1.0
      enddo
      end
`)
	est := e.EstimateUnit(df)
	rep := est.Report()
	if !strings.Contains(rep, "do i") || !strings.Contains(rep, "%") {
		t.Errorf("report = %q", rep)
	}
}

func TestParallelTime(t *testing.T) {
	e, df := setup(t, `
      program main
      integer i
      real a(1000)
      do i = 1, 1000
         a(i) = a(i)*2.0 + 1.0
      enddo
      end
`)
	unit := e.file.Units[0]
	seq := e.ParallelTime(df, unit.Body)
	if seqCost := e.bodyCost(df, unit.Body); seq != seqCost {
		t.Fatalf("with nothing parallel, ParallelTime %f != bodyCost %f", seq, seqCost)
	}

	// Mark the loop parallel: the parallel-aware estimate must drop
	// close to seq/Procs, while bodyCost (the sequential model) must
	// not move at all.
	var do *fortran.DoStmt
	for _, s := range unit.Body {
		if d, ok := s.(*fortran.DoStmt); ok {
			do = d
		}
	}
	if do == nil {
		t.Fatal("no loop found")
	}
	do.Parallel = true
	par := e.ParallelTime(df, unit.Body)
	if par >= seq {
		t.Fatalf("parallel loop not cheaper: %f >= %f", par, seq)
	}
	ideal := seq / float64(e.Params.Procs)
	if par > 2*ideal+e.Params.ParallelStartup {
		t.Errorf("parallel time %f far above ideal %f + startup", par, ideal)
	}
	if got := e.bodyCost(df, unit.Body); got != seq {
		t.Errorf("bodyCost changed with the parallel flag: %f != %f", got, seq)
	}
}

// TestReportIsFmtLayout: the report is written without fmt, and must
// read as the format strings it documents print it — for two-digit
// ranks, halves, negative zero, huge values, infinities and NaN.
func TestReportIsFmtLayout(t *testing.T) {
	e, df := setup(t, `
      program main
      integer i
      real a(10)
      do i = 1, 10
         a(i) = 1.0
      enddo
      end
`)
	est := e.EstimateUnit(df)
	l := est.Loops[0].Loop
	inf := math.Inf(1)
	values := []float64{0, math.Copysign(0, -1), 0.5, 1.5, 2.5, 0.05, 0.15, 1e20, -3.7, 123456.789, inf, -inf, math.NaN()}
	est.Loops = nil
	for i, v := range values {
		w := values[(i+3)%len(values)]
		est.Loops = append(est.Loops, LoopEstimate{Loop: l, SeqTime: v, ParTime: w, Speedup: v - w, Fraction: w / 7})
	}
	for _, total := range []float64{0, 2.5, 1e20, inf, math.NaN()} {
		est.Total = total
		var want strings.Builder
		fmt.Fprintf(&want, "performance estimate for %s (total %.0f units)\n", est.Unit.Name, est.Total)
		for i, le := range est.Loops {
			fmt.Fprintf(&want, "%2d. do %s (line %d): seq %.0f, par %.0f (%.1fx), %.0f%% of unit\n",
				i+1, le.Loop.Header().Name, le.Loop.Do.Line(), le.SeqTime, le.ParTime, le.Speedup, le.Fraction*100)
		}
		if got := est.Report(); got != want.String() {
			t.Errorf("total %g: report\n%s\nfmt prints\n%s", total, got, want.String())
		}
	}
}
