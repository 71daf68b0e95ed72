package dep

import (
	"testing"

	"parascope/internal/cfg"
	"parascope/internal/dataflow"
	"parascope/internal/expr"
	"parascope/internal/fortran"
)

func analyzeSrc(t *testing.T, src string) (*dataflow.Analysis, *Graph) {
	t.Helper()
	f, err := fortran.Parse("t.f", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	df := dataflow.Analyze(f.Units[0], nil)
	g := Analyze(df, nil, nil, DefaultOptions())
	return df, g
}

// carriedData returns non-control dependences carried at loop l.
func carriedData(g *Graph, l *cfg.Loop) []*Dependence {
	var out []*Dependence
	for _, d := range g.CarriedAt(l) {
		if d.Class != ClassControl && d.Class != ClassInput {
			out = append(out, d)
		}
	}
	return out
}

// carriedOn filters carried deps for one symbol name.
func carriedOn(g *Graph, l *cfg.Loop, sym string) []*Dependence {
	var out []*Dependence
	for _, d := range carriedData(g, l) {
		if d.Sym.Name == sym {
			out = append(out, d)
		}
	}
	return out
}

func TestIndependentLoop(t *testing.T) {
	df, g := analyzeSrc(t, `
      program main
      integer i
      real a(100), b(100)
      do i = 1, 100
         a(i) = b(i) + 1.0
      enddo
      end
`)
	l := df.Tree.All[0]
	if deps := carriedData(g, l); len(deps) != 0 {
		t.Errorf("parallel loop has %d carried deps: %v", len(deps), deps)
	}
}

func TestRecurrenceCarriedFlow(t *testing.T) {
	df, g := analyzeSrc(t, `
      program main
      integer i
      real a(100)
      do i = 2, 100
         a(i) = a(i-1) + 1.0
      enddo
      end
`)
	l := df.Tree.All[0]
	deps := carriedOn(g, l, "a")
	var flow *Dependence
	for _, d := range deps {
		if d.Class == ClassFlow {
			flow = d
		}
	}
	if flow == nil {
		t.Fatalf("missing carried flow dep: %v", deps)
	}
	if len(flow.Known) != 1 || !flow.Known[0] || flow.Dist[0] != 1 {
		t.Errorf("distance = %v %v, want [1]", flow.Dist, flow.Known)
	}
	if flow.Mark != MarkProven {
		t.Errorf("mark = %v, want proven (exact strong SIV)", flow.Mark)
	}
}

func TestAntiDependence(t *testing.T) {
	df, g := analyzeSrc(t, `
      program main
      integer i
      real a(100)
      do i = 1, 99
         a(i) = a(i+1)*2.0
      enddo
      end
`)
	l := df.Tree.All[0]
	deps := carriedOn(g, l, "a")
	foundAnti := false
	for _, d := range deps {
		if d.Class == ClassAnti && d.Carried() {
			foundAnti = true
			if len(d.Known) == 1 && d.Known[0] && d.Dist[0] != 1 {
				t.Errorf("anti distance = %d, want 1", d.Dist[0])
			}
		}
		if d.Class == ClassFlow && d.Carried() {
			t.Errorf("a(i)=a(i+1) must not have a carried flow dep, got %v", d)
		}
	}
	if !foundAnti {
		t.Errorf("missing carried anti dep: %v", deps)
	}
}

func TestDistanceTooLarge(t *testing.T) {
	// a(i) = a(i+200) in a loop of 100 iterations: strong SIV range
	// check disproves the dependence.
	df, g := analyzeSrc(t, `
      program main
      integer i
      real a(300)
      do i = 1, 100
         a(i) = a(i+200)
      enddo
      end
`)
	l := df.Tree.All[0]
	if deps := carriedOn(g, l, "a"); len(deps) != 0 {
		t.Errorf("got %v, want none (distance exceeds trip count)", deps)
	}
}

func TestZIVDisproof(t *testing.T) {
	df, g := analyzeSrc(t, `
      program main
      integer i
      real a(100)
      do i = 1, 100
         a(1) = a(2) + 1.0
      enddo
      end
`)
	l := df.Tree.All[0]
	for _, d := range carriedOn(g, l, "a") {
		if d.Class == ClassFlow || d.Class == ClassAnti {
			t.Errorf("a(1) vs a(2) should be independent, got %v", d)
		}
	}
	if g.Stats.Disproved["ziv"] == 0 {
		t.Error("ZIV test should have disproven at least one pair")
	}
}

func TestZIVSelfOutput(t *testing.T) {
	df, g := analyzeSrc(t, `
      program main
      integer i
      real a(100), b(100)
      do i = 1, 100
         a(1) = b(i)
      enddo
      end
`)
	l := df.Tree.All[0]
	deps := carriedOn(g, l, "a")
	found := false
	for _, d := range deps {
		if d.Class == ClassOutput {
			found = true
		}
	}
	if !found {
		t.Errorf("a(1)=... must have a carried output dep on itself: %v", deps)
	}
}

func TestGCDDisproof(t *testing.T) {
	// a(2i) vs a(2i+1): even vs odd elements never collide.
	df, g := analyzeSrc(t, `
      program main
      integer i
      real a(300)
      do i = 1, 100
         a(2*i) = a(2*i + 1)
      enddo
      end
`)
	l := df.Tree.All[0]
	if deps := carriedOn(g, l, "a"); len(deps) != 0 {
		t.Errorf("even/odd refs should be independent: %v", deps)
	}
}

func TestCoupledNest(t *testing.T) {
	// Classic wavefront: a(i,j) = a(i-1,j) + a(i,j-1).
	df, g := analyzeSrc(t, `
      program main
      integer i, j
      real a(100,100)
      do i = 2, 100
         do j = 2, 100
            a(i,j) = a(i-1,j) + a(i,j-1)
         enddo
      enddo
      end
`)
	outer := df.Tree.Roots[0]
	inner := outer.Children[0]
	oDeps := carriedOn(g, outer, "a")
	iDeps := carriedOn(g, inner, "a")
	if len(oDeps) == 0 {
		t.Error("outer loop must carry a dependence (a(i-1,j))")
	}
	if len(iDeps) == 0 {
		t.Error("inner loop must carry a dependence (a(i,j-1))")
	}
	// The a(i-1,j) dep should be distance (1,0).
	foundDist := false
	for _, d := range oDeps {
		if d.Class == ClassFlow && len(d.Known) == 2 && d.Known[0] && d.Dist[0] == 1 && d.Known[1] && d.Dist[1] == 0 {
			foundDist = true
		}
	}
	if !foundDist {
		t.Errorf("missing distance (1,0) flow dep on outer: %v", oDeps)
	}
}

func TestInterchangeableNestDeps(t *testing.T) {
	// a(i,j) = a(i-1,j+1): direction (<,>), interchange-unsafe.
	df, g := analyzeSrc(t, `
      program main
      integer i, j
      real a(100,100)
      do i = 2, 100
         do j = 1, 99
            a(i,j) = a(i-1,j+1)
         enddo
      enddo
      end
`)
	outer := df.Tree.Roots[0]
	deps := carriedOn(g, outer, "a")
	found := false
	for _, d := range deps {
		if d.Class == ClassFlow && d.Level == 1 {
			found = true
			if len(d.Known) == 2 && d.Known[1] && d.Dist[1] != -1 {
				t.Errorf("inner distance = %d, want -1", d.Dist[1])
			}
		}
	}
	if !found {
		t.Errorf("missing level-1 flow dep: %v", deps)
	}
}

func TestScalarDependence(t *testing.T) {
	df, g := analyzeSrc(t, `
      program main
      integer i
      real t, a(100), b(100)
      do i = 1, 100
         t = a(i)
         b(i) = t
      enddo
      end
`)
	l := df.Tree.All[0]
	deps := carriedOn(g, l, "t")
	if len(deps) == 0 {
		t.Error("scalar t must have carried deps before privatization")
	}
}

func TestCallDependenceConservative(t *testing.T) {
	df, g := analyzeSrc(t, `
      program main
      integer i
      real a(100)
      do i = 1, 100
         call f(a, i)
      enddo
      end
      subroutine f(x, k)
      integer k
      real x(100)
      x(k) = 1.0
      end
`)
	l := df.Tree.All[0]
	deps := carriedOn(g, l, "a")
	if len(deps) == 0 {
		t.Error("call must conservatively carry deps on array a without section analysis")
	}
	for _, d := range deps {
		if d.Test != "call" {
			t.Errorf("test = %q, want call", d.Test)
		}
	}
}

// fixedSections reports that f writes x(k:k) — a single element per
// call — mimicking interprocedural regular section analysis.
type fixedSections struct {
	sym *fortran.Symbol
	lo  expr.Linear
}

func (s fixedSections) CallSections(st fortran.Stmt) ([]SectionAccess, bool) {
	if _, ok := st.(*fortran.CallStmt); !ok {
		return nil, false
	}
	return []SectionAccess{
		{Sym: s.sym, Write: true, Dims: []SectionDim{{Lo: s.lo, Hi: s.lo, Known: true}}},
		{Sym: s.sym, Write: false, Dims: []SectionDim{{Lo: s.lo, Hi: s.lo, Known: true}}},
	}, true
}

func TestSectionSummariesRefineCalls(t *testing.T) {
	f := fortran.MustParse("t.f", `
      program main
      integer i
      real a(100), b(100)
      do i = 1, 100
         call f(a, i)
         b(i) = a(i)
      enddo
      end
      subroutine f(x, k)
      integer k
      real x(100)
      x(k) = 1.0
      end
`)
	u := f.Units[0]
	df := dataflow.Analyze(u, nil)
	l := df.Tree.All[0]
	iSym := u.Lookup("i")
	summ := fixedSections{sym: u.Lookup("a"), lo: expr.Var(iSym)}

	g := Analyze(df, nil, summ, DefaultOptions())
	for _, d := range carriedOn(g, l, "a") {
		t.Errorf("section i:i per iteration should carry nothing, got %v", d)
	}
	// Without sections the same program is conservative.
	opts := DefaultOptions()
	opts.UseSections = false
	g2 := Analyze(df, nil, nil, opts)
	if len(carriedOn(g2, l, "a")) == 0 {
		t.Error("without sections the call must carry deps")
	}
}

func TestSymbolicBlockedThenAsserted(t *testing.T) {
	// a(i) vs a(i+m): unknown m blocks disproof; asserting m >= 100
	// (the array extent) eliminates the carried dependence.
	src := `
      program main
      integer i, m
      real a(300)
      read(*,*) m
      do i = 1, 100
         a(i) = a(i+m)
      enddo
      end
`
	f := fortran.MustParse("t.f", src)
	u := f.Units[0]
	df := dataflow.Analyze(u, nil)
	l := df.Tree.All[0]

	g := Analyze(df, nil, nil, DefaultOptions())
	deps := carriedOn(g, l, "a")
	if len(deps) == 0 {
		t.Fatal("unknown m: dependence must be assumed")
	}
	blocked := false
	for _, d := range deps {
		if d.Reason == "symbolic" {
			blocked = true
		}
	}
	if !blocked {
		t.Errorf("expected symbolic-blocked reason: %+v", deps)
	}

	assert := expr.NewEnv()
	assert.SetRange(u.Lookup("m"), expr.AtLeast(100))
	g2 := Analyze(df, assert, nil, DefaultOptions())
	if deps := carriedOn(g2, l, "a"); len(deps) != 0 {
		t.Errorf("with m >= 100 asserted, no carried dep should remain: %v", deps)
	}
}

func TestIndexArrayBlocked(t *testing.T) {
	df, g := analyzeSrc(t, `
      program main
      integer i, idx(100)
      real a(100)
      do i = 1, 100
         a(idx(i)) = a(idx(i)) + 1.0
      enddo
      end
`)
	l := df.Tree.All[0]
	deps := carriedOn(g, l, "a")
	if len(deps) == 0 {
		t.Fatal("index-array subscripts must be assumed dependent")
	}
	found := false
	for _, d := range deps {
		if d.Reason == "index-array" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected index-array reason: %+v", deps)
	}
}

func TestLoopIndependentDep(t *testing.T) {
	df, g := analyzeSrc(t, `
      program main
      integer i
      real a(100), b(100)
      do i = 1, 100
         a(i) = 1.0
         b(i) = a(i)*2.0
      enddo
      end
`)
	l := df.Tree.All[0]
	if deps := carriedData(g, l); len(deps) != 0 {
		t.Errorf("no carried deps expected: %v", deps)
	}
	// But a loop-independent flow dep a(i) -> a(i) exists.
	found := false
	for _, d := range g.LoopDeps(l) {
		if d.Sym.Name == "a" && d.Class == ClassFlow && !d.Carried() {
			found = true
		}
	}
	if !found {
		t.Error("missing loop-independent flow dep on a")
	}
}

func TestControlDeps(t *testing.T) {
	df, g := analyzeSrc(t, `
      program main
      integer i
      real a(100)
      do i = 1, 100
         if (a(i) .gt. 0.0) then
            a(i) = 0.0
         endif
      enddo
      end
`)
	_ = df
	found := false
	for _, d := range g.Deps {
		if d.Class == ClassControl {
			found = true
		}
	}
	if !found {
		t.Error("missing control dependence for guarded assignment")
	}
}

func TestStatsAccounting(t *testing.T) {
	_, g := analyzeSrc(t, `
      program main
      integer i
      real a(200), b(200)
      do i = 1, 100
         a(i) = a(i) + b(i)
         a(1) = a(2)
      enddo
      end
`)
	if g.Stats.PairsTested == 0 {
		t.Error("no pairs tested")
	}
	total := 0
	for _, v := range g.Stats.Applied {
		total += v
	}
	if total == 0 {
		t.Error("no test applications recorded")
	}
}

func TestMarkingRejectedIgnored(t *testing.T) {
	df, g := analyzeSrc(t, `
      program main
      integer i, idx(100)
      real a(100)
      do i = 1, 100
         a(idx(i)) = 0.0
      enddo
      end
`)
	l := df.Tree.All[0]
	deps := carriedOn(g, l, "a")
	if len(deps) == 0 {
		t.Fatal("want pending dep")
	}
	for _, d := range deps {
		if d.Mark != MarkPending {
			t.Errorf("index-array dep mark = %v, want pending", d.Mark)
		}
		d.Mark = MarkRejected
	}
}

func TestWeakCrossing(t *testing.T) {
	// a(i) = a(n - i): crossing dependence within range.
	df, g := analyzeSrc(t, `
      program main
      integer i
      real a(100)
      do i = 1, 100
         a(i) = a(101 - i)
      enddo
      end
`)
	l := df.Tree.All[0]
	deps := carriedOn(g, l, "a")
	if len(deps) == 0 {
		t.Error("crossing refs must depend")
	}
	// Crossing outside the iteration range is independent:
	df2, g2 := analyzeSrc(t, `
      program main
      integer i
      real a(500)
      do i = 1, 100
         a(i) = a(400 - i)
      enddo
      end
`)
	l2 := df2.Tree.All[0]
	if deps := carriedOn(g2, l2, "a"); len(deps) != 0 {
		t.Errorf("crossing point 200 outside [1,100]; got %v", deps)
	}
}

// ROADMAP item 1(a): n = 5 holds on one branch only, so the offset of
// a(i+n) is symbolic — the loop carries a pending flow and a pending
// anti dependence on a, not one proven distance-5 flow dependence.
func TestConstantUnderConditionalLeavesSymbolicDeps(t *testing.T) {
	df, g := analyzeSrc(t, `
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
`)
	pending := map[Class]int{}
	for _, d := range carriedData(g, df.Tree.All[0]) {
		if d.Sym.Name != "a" {
			continue
		}
		if d.Mark != MarkPending {
			t.Errorf("%s: marked %s, want pending", d, d.Mark)
		}
		pending[d.Class]++
	}
	if pending[ClassFlow] != 1 || pending[ClassAnti] != 1 {
		t.Errorf("carried dependences on a: %d flow, %d anti; want one of each, pending", pending[ClassFlow], pending[ClassAnti])
	}
}

// TestPairsWithoutACommonLoopAreAskedFor: the graph holds the data
// dependences within one outermost loop only; those between statements
// that share no loop come from Between, on demand.
func TestPairsWithoutACommonLoopAreAskedFor(t *testing.T) {
	df, g := analyzeSrc(t, `
      program main
      integer i
      real a(100), x, y
      x = 1.0
      y = x*2.0
      do i = 1, 100
         a(i) = x
      enddo
      do i = 1, 100
         y = y + a(i)
      enddo
      end
`)
	for _, d := range g.Deps {
		if d.Class == ClassControl {
			continue
		}
		shared := false
		for l := df.Tree.Innermost(d.Src); l != nil && !shared; l = l.Parent {
			shared = l.Contains(d.Dst)
		}
		if !shared {
			t.Errorf("graph holds %v from s%d to s%d, which share no loop", d, d.Src.ID(), d.Dst.ID())
		}
	}
	body := df.Unit.Body
	has := func(deps []*Dependence, class Class, sym string) bool {
		for _, d := range deps {
			if d.Class == class && d.Sym.Name == sym && !d.Carried() {
				return true
			}
		}
		return false
	}
	if deps := Between(df, nil, nil, DefaultOptions(), body[0], body[1]); !has(deps, ClassFlow, "x") {
		t.Errorf("x = 1.0 / y = x*2.0: %v, want a loop-independent true dependence on x", deps)
	}
	if deps := Between(df, nil, nil, DefaultOptions(), body[2], body[3]); !has(deps, ClassFlow, "a") {
		t.Errorf("the loop writing a and the loop reading it: %v, want a loop-independent true dependence on a", deps)
	}
	if deps := Between(df, nil, nil, DefaultOptions(), body[1], body[2]); len(deps) != 0 {
		t.Errorf("y = x*2.0 and the loop writing a touch nothing in common: %v", deps)
	}
}
