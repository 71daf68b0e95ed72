package interproc

import (
	"fmt"
	"strings"
	"testing"

	"parascope/internal/dataflow"
	"parascope/internal/dep"
	"parascope/internal/fortran"
)

func parse(t *testing.T, src string) *fortran.File {
	t.Helper()
	f, err := fortran.Parse("t.f", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return f
}

const threeUnits = `
      program main
      integer i
      real a(100), s
      s = 0.0
      do i = 1, 100
         call work(a, i)
      enddo
      call total(a, s)
      print *, s
      end
      subroutine work(x, k)
      integer k
      real x(100)
      x(k) = sqrt(real(k))
      end
      subroutine total(x, t)
      integer j
      real x(100), t
      t = 0.0
      do j = 1, 100
         t = t + x(j)
      enddo
      end
`

func TestCallGraph(t *testing.T) {
	f := parse(t, threeUnits)
	g := BuildCallGraph(f)
	if len(g.Sites) != 2 {
		t.Fatalf("got %d call sites, want 2", len(g.Sites))
	}
	main := f.Unit("main")
	if len(g.Calls[main]) != 2 {
		t.Errorf("main calls %d, want 2", len(g.Calls[main]))
	}
	work := f.Unit("work")
	if len(g.Callers[work]) != 1 {
		t.Errorf("work callers = %d, want 1", len(g.Callers[work]))
	}
	// Bottom-up: work and total before main.
	pos := map[string]int{}
	for i, u := range g.BottomUp {
		pos[u.Name] = i
	}
	if pos["work"] > pos["main"] || pos["total"] > pos["main"] {
		t.Errorf("bottom-up order wrong: %v", pos)
	}
	if len(g.Recursive) != 0 {
		t.Errorf("no recursion expected: %v", g.Recursive)
	}
	if !strings.Contains(g.String(), "calls work") {
		t.Error("String() missing call edge")
	}
}

func TestRecursionDetected(t *testing.T) {
	f := parse(t, `
      program main
      call f(3)
      end
      subroutine f(n)
      integer n
      if (n .gt. 0) call f(n - 1)
      end
`)
	g := BuildCallGraph(f)
	if !g.Recursive[f.Unit("f")] {
		t.Error("recursive subroutine not detected")
	}
	p := AnalyzeProgram(f)
	if !p.Summaries[f.Unit("f")].Conservative {
		t.Error("recursive summary should be conservative")
	}
}

func TestModRefSummary(t *testing.T) {
	f := parse(t, threeUnits)
	p := AnalyzeProgram(f)
	work := f.Unit("work")
	sw := p.Summaries[work]
	x := work.Lookup("x")
	k := work.Lookup("k")
	if !sw.Mod[x] {
		t.Error("work modifies x")
	}
	if sw.Mod[k] {
		t.Error("work does not modify k")
	}
	if !sw.Ref[k] {
		t.Error("work references k")
	}
	total := f.Unit("total")
	st := p.Summaries[total]
	if !st.Mod[total.Lookup("t")] || !st.Ref[total.Lookup("x")] {
		t.Errorf("total summary wrong: mod=%v ref=%v", st.Mod, st.Ref)
	}
	if st.Mod[total.Lookup("x")] {
		t.Error("total must not modify x")
	}
}

func TestScalarKill(t *testing.T) {
	f := parse(t, `
      program main
      real s
      call setit(s)
      end
      subroutine setit(v)
      real v
      v = 1.0
      end
      subroutine maybe(v, c)
      real v
      logical c
      if (c) then
         v = 1.0
      endif
      end
`)
	p := AnalyzeProgram(f)
	setit := f.Unit("setit")
	if !p.Summaries[setit].Kill[setit.Lookup("v")] {
		t.Error("setit kills v on every path")
	}
	maybe := f.Unit("maybe")
	if p.Summaries[maybe].Kill[maybe.Lookup("v")] {
		t.Error("maybe only conditionally assigns v: not a kill")
	}
}

func TestArrayKill(t *testing.T) {
	f := parse(t, `
      program main
      real a(100)
      call clear(a, 100)
      end
      subroutine clear(x, n)
      integer n, k
      real x(n)
      do k = 1, n
         x(k) = 0.0
      enddo
      end
`)
	p := AnalyzeProgram(f)
	clear := f.Unit("clear")
	if !p.Summaries[clear].KillArrays[clear.Lookup("x")] {
		t.Error("clear overwrites all of x: array kill expected")
	}
}

func TestSections(t *testing.T) {
	f := parse(t, `
      program main
      real a(100)
      integer i
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
	p := AnalyzeProgram(f)
	sub := f.Unit("f")
	secs := p.Summaries[sub].Sections[sub.Lookup("x")]
	if len(secs) != 1 || !secs[0].Write {
		t.Fatalf("sections = %+v", secs)
	}
	d := secs[0].Dims[0]
	if !d.Known {
		t.Fatal("dimension should be known")
	}
	k := sub.Lookup("k")
	if d.Lo.Coef(k) != 1 || d.Hi.Coef(k) != 1 {
		t.Errorf("section bounds = [%s, %s], want [k, k]", d.Lo, d.Hi)
	}
}

func TestSectionsProjectLoops(t *testing.T) {
	f := parse(t, `
      program main
      real a(100)
      call fill(a, 10, 20)
      end
      subroutine fill(x, lo, hi)
      integer lo, hi, k
      real x(100)
      do k = lo, hi
         x(k) = 0.0
      enddo
      end
`)
	p := AnalyzeProgram(f)
	sub := f.Unit("fill")
	secs := p.Summaries[sub].Sections[sub.Lookup("x")]
	if len(secs) != 1 {
		t.Fatalf("sections = %+v", secs)
	}
	d := secs[0].Dims[0]
	if !d.Known {
		t.Fatal("projected dim should be known")
	}
	lo := sub.Lookup("lo")
	hi := sub.Lookup("hi")
	if d.Lo.Coef(lo) != 1 || d.Hi.Coef(hi) != 1 {
		t.Errorf("bounds = [%s, %s], want [lo, hi]", d.Lo, d.Hi)
	}
}

func TestPreciseEffectsEnableParallelization(t *testing.T) {
	// The gloop pattern: a loop calling a subroutine that writes only
	// x(k). With conservative effects the loop carries dependences;
	// with interprocedural sections it does not.
	f := parse(t, `
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
	p := AnalyzeProgram(f)
	u := f.Unit("main")
	df := dataflow.Analyze(u, &Effects{Prog: p})
	l := df.Tree.All[0]

	// With sections:
	g := dep.Analyze(df, nil, &SectionProvider{Prog: p}, dep.DefaultOptions())
	var carried []*dep.Dependence
	for _, d := range g.CarriedAt(l) {
		if d.Class != dep.ClassControl && d.Sym.Name == "a" {
			carried = append(carried, d)
		}
	}
	if len(carried) != 0 {
		t.Errorf("with sections, loop should carry no deps on a: %v", carried)
	}

	// Without:
	dfc := dataflow.Analyze(u, nil)
	lc := dfc.Tree.All[0]
	gc := dep.Analyze(dfc, nil, nil, dep.DefaultOptions())
	found := false
	for _, d := range gc.CarriedAt(lc) {
		if d.Sym.Name == "a" {
			found = true
		}
	}
	if !found {
		t.Error("conservative analysis must carry deps on a")
	}
}

func TestInterprocConstants(t *testing.T) {
	f := parse(t, `
      program main
      real a(100)
      call f(a, 100)
      call f(a, 100)
      end
      subroutine f(x, n)
      integer n, k
      real x(n)
      do k = 1, n
         x(k) = 0.0
      enddo
      end
`)
	p := AnalyzeProgram(f)
	sub := f.Unit("f")
	n := sub.Lookup("n")
	vals := p.ConstFormals[sub]
	if vals[n] != 100 {
		t.Errorf("n = %d, want 100 at all call sites", vals[n])
	}
	env := p.ConstEnv(sub)
	if v, ok := env.Value(n); !ok || v != 100 {
		t.Errorf("ConstEnv n = %d,%v", v, ok)
	}
}

func TestInterprocConstantsConflict(t *testing.T) {
	f := parse(t, `
      program main
      real a(100)
      call f(a, 100)
      call f(a, 50)
      end
      subroutine f(x, n)
      integer n
      real x(n)
      x(1) = 0.0
      end
`)
	p := AnalyzeProgram(f)
	sub := f.Unit("f")
	if v, ok := p.ConstFormals[sub][sub.Lookup("n")]; ok {
		t.Errorf("conflicting sites must not yield constant, got %d", v)
	}
}

func TestCommonEffects(t *testing.T) {
	f := parse(t, `
      program main
      real g(10), s
      common /blk/ g, s
      call touch
      s = g(1)
      end
      subroutine touch
      real g(10), s
      common /blk/ g, s
      g(1) = 5.0
      s = 1.0
      end
`)
	p := AnalyzeProgram(f)
	touch := f.Unit("touch")
	st := p.Summaries[touch]
	if !st.Mod[touch.Lookup("g")] || !st.Mod[touch.Lookup("s")] {
		t.Errorf("touch must modify common members: %v", st.Mod)
	}
	// The caller's dataflow must see the write to s via the common.
	u := f.Unit("main")
	df := dataflow.Analyze(u, &Effects{Prog: p})
	foundCallDef := false
	for _, ac := range df.Accesses(u.Body[0]) {
		if ac.Sym == u.Lookup("s") && ac.Write {
			foundCallDef = true
		}
	}
	if !foundCallDef {
		t.Error("call to touch should define common s in the caller")
	}
}

func TestMergeSections(t *testing.T) {
	f := parse(t, `
      program main
      real a(100)
      call f(a, 5)
      end
      subroutine f(x, k)
      integer k
      real x(100)
      x(k) = 1.0
      x(k + 2) = 2.0
      end
`)
	p := AnalyzeProgram(f)
	sub := f.Unit("f")
	secs := p.Summaries[sub].Sections[sub.Lookup("x")]
	if len(secs) != 1 {
		t.Fatalf("write sections should merge: %+v", secs)
	}
	d := secs[0].Dims[0]
	if !d.Known {
		t.Fatal("merged dim should stay known (bounds differ by a constant)")
	}
	k := sub.Lookup("k")
	// Hull is [k, k+2].
	if d.Lo.Coef(k) != 1 || d.Lo.Const != 0 || d.Hi.Coef(k) != 1 || d.Hi.Const != 2 {
		t.Errorf("hull = [%s, %s], want [k, k+2]", d.Lo, d.Hi)
	}
}

// TestUpRefDistinguishesKillThenUse: a routine that fills a work
// array before reading it references the array (Ref) but does not
// consume the caller's values (not UpRef); a routine that reads
// before writing is upward exposed.
func TestUpRefDistinguishesKillThenUse(t *testing.T) {
	f := parse(t, `
      program main
      real w(16), v(16)
      call killer(w)
      call reader(v)
      end
      subroutine killer(x)
      integer i
      real x(16), s
      do i = 1, 16
         x(i) = real(i)
      enddo
      s = x(3)
      end
      subroutine reader(x)
      integer i
      real x(16)
      do i = 1, 16
         x(i) = x(i) + 1.0
      enddo
      end
`)
	p := AnalyzeProgram(f)
	killer := f.Unit("killer")
	sk := p.Summaries[killer]
	xk := killer.Lookup("x")
	if !sk.Ref[xk] {
		t.Error("killer reads x: must be in Ref")
	}
	if sk.UpRef[xk] {
		t.Error("killer kills x before reading: must NOT be in UpRef")
	}
	reader := f.Unit("reader")
	sr := p.Summaries[reader]
	xr := reader.Lookup("x")
	if !sr.UpRef[xr] {
		t.Error("reader consumes incoming x values: must be in UpRef")
	}
}

// TestCallerOfIndex: the statement→unit index answers for every call
// the file held when the graph was built, a call statement an edit
// brought in afterwards is still found (by search), and UpdateProgram
// indexes it.
func TestCallerOfIndex(t *testing.T) {
	f := parse(t, threeUnits)
	p := AnalyzeProgram(f)
	main := f.Unit("main")
	calls := 0
	for _, u := range f.Units {
		fortran.WalkStmts(u.Body, func(s fortran.Stmt) bool {
			if c, ok := s.(*fortran.CallStmt); ok {
				calls++
				if got := p.Graph.callers[c]; got != u {
					t.Errorf("index puts %q in %v, want %s", fortran.StmtText(c), got, u.Name)
				}
			}
			return true
		})
	}
	if calls != 2 {
		t.Fatalf("walked %d calls, want 2", calls)
	}
	ns, err := fortran.ParseStmtIn(f, main, "      call total(a, s)")
	if err != nil {
		t.Fatal(err)
	}
	fresh := ns.(*fortran.CallStmt)
	main.Body[len(main.Body)-2] = fresh
	if _, ok := p.Graph.callers[fresh]; ok {
		t.Fatal("a statement parsed after the build is in the index")
	}
	if got := p.Graph.callerOf(fresh); got != main {
		t.Errorf("callerOf(new statement) = %v, want main", got)
	}
	secs, ok := (&SectionProvider{Prog: p}).CallSections(fresh)
	if !ok || len(secs) == 0 {
		t.Error("no sections for a call statement newer than the graph")
	}
	p = UpdateProgram(p, map[*fortran.Unit]bool{main: true})
	if got := p.Graph.callers[fresh]; got != main {
		t.Errorf("after UpdateProgram the index has %v for the new statement, want main", got)
	}
}

// TestUpdateProgramLeavesMainUnsummarized: nothing can call a main
// program, so an update after an edit of main carries its summary
// object over instead of recomputing one nobody reads, while an edited
// subroutine is summarized afresh; and a call that names the main
// program gets conservative effects, never that stale summary.
func TestUpdateProgramLeavesMainUnsummarized(t *testing.T) {
	f := parse(t, threeUnits)
	p := AnalyzeProgram(f)
	main, work := f.Unit("main"), f.Unit("work")
	ns, err := fortran.ParseStmtIn(f, main, "      s = 1.0")
	if err != nil {
		t.Fatal(err)
	}
	main.Body[0] = ns
	ws, err := fortran.ParseStmtIn(f, work, "      x(k) = x(k + 1)")
	if err != nil {
		t.Fatal(err)
	}
	work.Body[0] = ws
	q := UpdateProgram(p, map[*fortran.Unit]bool{main: true, work: true})
	if q.Summaries[main] != p.Summaries[main] {
		t.Error("the main program was summarized again")
	}
	if q.Summaries[work] == p.Summaries[work] {
		t.Error("work reads x now; its summary must be recomputed")
	}
	call := main.Body[1].(*fortran.DoStmt).Body[0].(*fortran.CallStmt)
	got := (&Effects{Prog: q}).CallEffects(work, "main", call.Args, call)
	want := dataflow.ConservativeEffects{}.CallEffects(work, "main", call.Args, call)
	if len(got) != len(want) {
		t.Errorf("call main: %d accesses, want the %d conservative ones", len(got), len(want))
	}
}

// TestTakenAnalysesAreTheUnits checks the solves AnalyzeProgram hands
// on: each has the accesses a solve under the finished program gives,
// and a unit whose solve met a call to a unit not yet summarized — a
// CALL of a function, which the call graph does not order — gets none.
func TestTakenAnalysesAreTheUnits(t *testing.T) {
	f := parse(t, threeUnits+`
      subroutine early(x)
      real x
      call late(x)
      end
      real function late(y)
      real y
      y = 2.0
      late = y
      end
`)
	p := AnalyzeProgram(f)
	taken := p.TakeAnalyses()
	if p.TakeAnalyses() != nil {
		t.Error("a second TakeAnalyses still returns analyses")
	}
	if taken[f.Unit("early")] != nil {
		t.Error("early's solve met late unsummarized, yet it was handed on")
	}
	for _, u := range f.Units {
		df := taken[u]
		if df == nil {
			continue
		}
		fresh := dataflow.Analyze(u, &Effects{Prog: p})
		fortran.WalkStmts(u.Body, func(st fortran.Stmt) bool {
			if got, want := fmt.Sprint(df.Accesses(st)), fmt.Sprint(fresh.Accesses(st)); got != want {
				t.Errorf("%s #%d: handed-on accesses %s, a fresh solve %s", u.Name, st.ID(), got, want)
			}
			return true
		})
	}
	n := 0
	for _, df := range taken {
		if df != nil {
			n++
		}
	}
	if n != len(f.Units)-1 {
		t.Errorf("%d analyses handed on, want one per unit but early", n)
	}
}
