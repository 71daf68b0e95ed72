package core

import (
	"strings"
	"testing"

	"parascope/internal/dep"
	"parascope/internal/fortran"
	"parascope/internal/xform"
)

const sessionSrc = `
      program main
      integer i, m
      real t, s, a(300), b(300)
      read(*,*) m
      s = 0.0
      do i = 1, 100
         t = a(i)*2.0
         b(i) = t + 1.0
         s = s + t
      enddo
      do i = 1, 100
         a(i) = a(i+m)
      enddo
      print *, s
      end
`

func open(t *testing.T, src string) *Session {
	t.Helper()
	s, err := Open("t.f", src)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// TestOpenRefusesUnitlessSource: every pane reads the current unit's
// state, so a source that parses to no unit is refused by every door
// sources come in through, with an error naming the path.
func TestOpenRefusesUnitlessSource(t *testing.T) {
	for _, src := range []string{"", "c just a comment\n"} {
		for name, open := range map[string]func() (*Session, error){
			"Open":         func() (*Session, error) { return Open("nounit.f", src) },
			"OpenWorkers":  func() (*Session, error) { return OpenWorkers("nounit.f", src, 1) },
			"OpenObserved": func() (*Session, error) { return OpenObserved("nounit.f", src, 1, nil) },
		} {
			if s, err := open(); s != nil || err == nil || err.Error() != "nounit.f: no program unit" {
				t.Errorf("%s(%q) = %v, %v; want the refusal", name, src, s, err)
			}
		}
	}
}

func TestOpenAndSelect(t *testing.T) {
	s := open(t, sessionSrc)
	if s.CurrentUnit().Name != "main" {
		t.Fatalf("current unit = %s", s.CurrentUnit().Name)
	}
	if got := len(s.Loops()); got != 2 {
		t.Fatalf("loops = %d, want 2", got)
	}
	if err := s.SelectLoop(1); err != nil {
		t.Fatal(err)
	}
	if s.SelectedLoop() == nil {
		t.Fatal("no selection")
	}
	if err := s.SelectLoop(99); err == nil {
		t.Error("out-of-range selection should fail")
	}
}

func TestDependencePaneAndFiltering(t *testing.T) {
	s := open(t, sessionSrc)
	if err := s.SelectLoop(1); err != nil {
		t.Fatal(err)
	}
	all := s.SelectionDeps(DepFilter{})
	if len(all) == 0 {
		t.Fatal("expected dependences in loop 1 (scalar t, s)")
	}
	onlyT := s.SelectionDeps(DepFilter{Sym: "t"})
	for _, d := range onlyT {
		if d.Sym.Name != "t" {
			t.Errorf("filter leaked %s", d.Sym.Name)
		}
	}
	if len(onlyT) == 0 {
		t.Error("expected deps on t")
	}
	// HidePrivate should hide t (privatizable) and s (reduction).
	hidden := s.SelectionDeps(DepFilter{HidePrivate: true, CarriedOnly: true})
	for _, d := range hidden {
		if d.Sym.Name == "t" || d.Sym.Name == "s" {
			t.Errorf("private/reduction dep visible: %v", d)
		}
	}
}

func TestMarkingWorkflow(t *testing.T) {
	s := open(t, sessionSrc)
	if err := s.SelectLoop(2); err != nil {
		t.Fatal(err)
	}
	deps := s.SelectionDeps(DepFilter{CarriedOnly: true, Sym: "a"})
	if len(deps) == 0 {
		t.Fatal("expected symbolic-blocked deps on a")
	}
	id := deps[0].ID
	if err := s.MarkDep(id, dep.MarkRejected); err != nil {
		t.Fatal(err)
	}
	if s.Stats.DepsRejected != 1 {
		t.Errorf("DepsRejected = %d", s.Stats.DepsRejected)
	}
	vis := s.SelectionDeps(DepFilter{HideRejected: true, CarriedOnly: true, Sym: "a"})
	for _, d := range vis {
		if d.ID == id {
			t.Error("rejected dep still visible through HideRejected")
		}
	}
}

func TestMarkProvenCannotReject(t *testing.T) {
	s := open(t, `
      program main
      integer i
      real a(100)
      do i = 2, 100
         a(i) = a(i-1)
      enddo
      end
`)
	if err := s.SelectLoop(1); err != nil {
		t.Fatal(err)
	}
	deps := s.SelectionDeps(DepFilter{CarriedOnly: true})
	var proven *dep.Dependence
	for _, d := range deps {
		if d.Mark == dep.MarkProven {
			proven = d
		}
	}
	if proven == nil {
		t.Fatal("expected a proven dep")
	}
	if err := s.MarkDep(proven.ID, dep.MarkRejected); err == nil {
		t.Error("rejecting a proven dependence must fail")
	}
}

func TestMarksSurviveReanalysis(t *testing.T) {
	s := open(t, sessionSrc)
	if err := s.SelectLoop(2); err != nil {
		t.Fatal(err)
	}
	deps := s.SelectionDeps(DepFilter{CarriedOnly: true, Sym: "a"})
	if len(deps) == 0 {
		t.Fatal("no deps")
	}
	if err := s.MarkDep(deps[0].ID, dep.MarkRejected); err != nil {
		t.Fatal(err)
	}
	key := deps[0]
	s.ReanalyzeUnit(s.CurrentUnit())
	if err := s.SelectLoop(2); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range s.SelectionDeps(DepFilter{CarriedOnly: true, Sym: "a"}) {
		if d.Class == key.Class && d.Src.Line() == key.Src.Line() && d.Dst.Line() == key.Dst.Line() && d.Level == key.Level {
			if d.Mark != dep.MarkRejected {
				t.Errorf("mark lost after reanalysis: %v", d.Mark)
			}
			found = true
		}
	}
	if !found {
		t.Error("marked dep not found after reanalysis")
	}
}

func TestAssertionEnablesParallelization(t *testing.T) {
	s := open(t, sessionSrc)
	// Loop 2 reads a(i+m) with unknown m: blocked.
	if err := s.SelectLoop(2); err != nil {
		t.Fatal(err)
	}
	l2 := s.SelectedLoop()
	v := s.Check(xform.Parallelize{Do: l2.Do})
	if v.Safe {
		t.Fatal("loop 2 should be blocked before the assertion")
	}
	if err := s.Assert("m .ge. 300"); err != nil {
		t.Fatal(err)
	}
	// Reanalysis replaced loop objects; re-select.
	if err := s.SelectLoop(2); err != nil {
		t.Fatal(err)
	}
	l2 = s.SelectedLoop()
	v = s.Check(xform.Parallelize{Do: l2.Do})
	if !v.Safe {
		t.Fatalf("after asserting m >= 300, loop 2 should parallelize: %s", v)
	}
	if s.Stats.Assertions != 1 {
		t.Errorf("Assertions = %d", s.Stats.Assertions)
	}
}

func TestAssertionParsing(t *testing.T) {
	good := []string{"n .ge. 100", "n >= 100", "m .eq. 4", "k < 10"}
	for _, g := range good {
		if _, err := parseAssertion(g); err != nil {
			t.Errorf("%q: %v", g, err)
		}
	}
	bad := []string{"n", "n .ge. x", "n ~ 3"}
	for _, b := range bad {
		if _, err := parseAssertion(b); err == nil {
			t.Errorf("%q should fail", b)
		}
	}
}

func TestTransformViaSession(t *testing.T) {
	s := open(t, sessionSrc)
	if err := s.SelectLoop(1); err != nil {
		t.Fatal(err)
	}
	do := s.SelectedLoop().Do
	v, err := s.Transform(xform.Parallelize{Do: do})
	if err != nil {
		t.Fatalf("%v (%s)", err, v)
	}
	if len(s.ParallelLoops()) != 1 {
		t.Errorf("parallel loops = %d", len(s.ParallelLoops()))
	}
	if s.Stats.Transformations["parallelize"] != 1 || s.Stats.LoopsParallelized != 1 {
		t.Errorf("stats = %+v", s.Stats)
	}
	// Printed output carries the annotation and round-trips.
	src := s.Save()
	if !strings.Contains(src, "c$par doall") {
		t.Error("saved source missing doall")
	}
	if _, err := fortran.Parse("rt.f", src); err != nil {
		t.Errorf("saved source does not reparse: %v", err)
	}
}

func TestTransformRefusedWhenUnsafe(t *testing.T) {
	s := open(t, `
      program main
      integer i
      real a(100)
      do i = 2, 100
         a(i) = a(i-1)
      enddo
      end
`)
	do := s.Loops()[0].Do
	if _, err := s.Transform(xform.Parallelize{Do: do}); err == nil {
		t.Error("unsafe transformation must be refused")
	}
	if len(s.ParallelLoops()) != 0 {
		t.Error("loop must stay serial")
	}
}

func TestUndo(t *testing.T) {
	s := open(t, sessionSrc)
	before := s.Save()
	do := s.Loops()[0].Do
	if _, err := s.Transform(xform.Parallelize{Do: do}); err != nil {
		t.Fatal(err)
	}
	if s.Save() == before {
		t.Fatal("transform did not change the program")
	}
	if err := s.Undo(); err != nil {
		t.Fatal(err)
	}
	if s.Save() != before {
		t.Error("undo did not restore the program")
	}
	if err := s.Undo(); err == nil {
		t.Error("empty undo stack should error")
	}
}

func TestEditStmtIncremental(t *testing.T) {
	s := open(t, `
      program main
      integer i
      real a(100), b(100)
      do i = 1, 100
         a(i) = b(i)
      enddo
      end
`)
	do := s.Loops()[0].Do
	asg := do.Body[0]
	// Introduce a recurrence by editing.
	if err := s.EditStmt(asg.ID(), "a(i) = a(i-1) + b(i)"); err != nil {
		t.Fatal(err)
	}
	do = s.Loops()[0].Do
	v := s.Check(xform.Parallelize{Do: do})
	if v.Safe {
		t.Error("after the edit the loop must not parallelize")
	}
	// Edit back.
	if err := s.EditStmt(do.Body[0].ID(), "a(i) = b(i)"); err != nil {
		t.Fatal(err)
	}
	do = s.Loops()[0].Do
	if v := s.Check(xform.Parallelize{Do: do}); !v.Safe {
		t.Errorf("after reverting the edit the loop should parallelize: %s", v)
	}
	if s.Stats.Edits != 2 {
		t.Errorf("Edits = %d", s.Stats.Edits)
	}
}

func TestEditStmtParseError(t *testing.T) {
	s := open(t, sessionSrc)
	asg := s.Loops()[0].Do.Body[0]
	if err := s.EditStmt(asg.ID(), "a(i = "); err == nil {
		t.Error("bad edit text must be rejected")
	}
}

func TestDeleteStmt(t *testing.T) {
	s := open(t, sessionSrc)
	do := s.Loops()[0].Do
	n := len(do.Body)
	if err := s.DeleteStmt(do.Body[n-1].ID()); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Loops()[0].Do.Body); got != n-1 {
		t.Errorf("body = %d stmts, want %d", got, n-1)
	}
}

func TestVariablePane(t *testing.T) {
	s := open(t, sessionSrc)
	if err := s.SelectLoop(1); err != nil {
		t.Fatal(err)
	}
	rows := s.VariablePane()
	byName := map[string]VarInfo{}
	for _, r := range rows {
		byName[r.Sym.Name] = r
	}
	if byName["i"].Class != ClassInduction {
		t.Errorf("i class = %v", byName["i"].Class)
	}
	if byName["t"].Class != ClassPrivate {
		t.Errorf("t class = %v", byName["t"].Class)
	}
	if byName["s"].Class != ClassReduction {
		t.Errorf("s class = %v", byName["s"].Class)
	}
	if byName["a"].Class != ClassShared {
		t.Errorf("a class = %v", byName["a"].Class)
	}
}

func TestClassifyOverride(t *testing.T) {
	s := open(t, sessionSrc)
	if err := s.SelectLoop(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Classify("a", ClassPrivate); err != nil {
		t.Fatal(err)
	}
	rows := s.VariablePane()
	for _, r := range rows {
		if r.Sym.Name == "a" && r.Class != ClassPrivate {
			t.Errorf("override ignored: %v", r.Class)
		}
	}
	if s.Stats.Reclassifications != 1 {
		t.Errorf("Reclassifications = %d", s.Stats.Reclassifications)
	}
}

func TestNextByPerformance(t *testing.T) {
	s := open(t, `
      program main
      integer i, j
      real a(5000), b(10)
      do j = 1, 10
         b(j) = 0.0
      enddo
      do i = 1, 5000
         a(i) = a(i) + 1.0
      enddo
      end
`)
	l, ok := s.NextByPerformance()
	if !ok {
		t.Fatal("no navigation target")
	}
	if l.Header().Name != "i" {
		t.Errorf("navigated to %s, want the big i loop", l.Header().Name)
	}
}

func TestAutoParallelize(t *testing.T) {
	s := open(t, `
      program main
      integer i, j
      real a(100,100), c(100)
      do i = 1, 100
         do j = 1, 100
            a(i,j) = 1.0
         enddo
      enddo
      do i = 2, 100
         c(i) = c(i-1)
      enddo
      end
`)
	n := s.AutoParallelize()
	if n != 1 {
		t.Errorf("parallelized %d loops, want 1 (outer nest only; recurrence blocked)", n)
	}
	par := s.ParallelLoops()
	if len(par) != 1 || par[0].Var.Name != "i" {
		t.Errorf("parallel = %v", par)
	}
}

func TestInterproceduralSession(t *testing.T) {
	s := open(t, `
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
	do := s.Loops()[0].Do
	v := s.Check(xform.Parallelize{Do: do})
	if !v.Safe {
		t.Errorf("regular sections should make the call loop parallel: %s", v)
	}
	// Ablation: without sections it must be blocked.
	s.Opts.UseSections = false
	s.AnalyzeAll()
	do = s.Loops()[0].Do
	if v := s.Check(xform.Parallelize{Do: do}); v.Safe {
		t.Error("without section analysis the call loop must be blocked")
	}
}

func TestHistoryTranscript(t *testing.T) {
	s := open(t, sessionSrc)
	if err := s.SelectLoop(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transform(xform.Parallelize{Do: s.SelectedLoop().Do}); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(s.History, "\n")
	if !strings.Contains(joined, "select loop 1") || !strings.Contains(joined, "apply parallelize") {
		t.Errorf("history = %q", joined)
	}
}

// TestStmtInterchangeAtTopLevelReadsCallerConstants: two statements at a
// unit's top level share no loop, so the check tests their pairs when
// asked — under the environment the unit's graph was built in, which
// binds the constant every caller passes. sub is only ever called with
// m = 64, so a(m) and a(1) are different elements and the statements
// may trade places.
func TestStmtInterchangeAtTopLevelReadsCallerConstants(t *testing.T) {
	s, err := Open("cf.f", `
      program main
      real a(100)
      call sub(a, 64)
      print *, a(1)
      end
      subroutine sub(a, m)
      integer m
      real a(100), x
      a(m) = 1.0
      x = a(1)
      print *, x
      end
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SelectUnit("sub"); err != nil {
		t.Fatal(err)
	}
	body := s.CurrentUnit().Body
	if v := s.Check(xform.StmtInterchange{First: body[0], Second: body[1]}); !v.OK() {
		t.Errorf("a(m) = 1.0 / x = a(1) with m = 64 at every call: %s", v)
	}
	if v := s.Check(xform.StmtInterchange{First: body[1], Second: body[2]}); v.Safe {
		t.Errorf("x = a(1) / print *, x: the flow dependence on x must block the swap: %s", v)
	}
}
