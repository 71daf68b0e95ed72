package view

import (
	"fmt"
	"strings"
	"testing"

	"parascope/internal/core"
	"parascope/internal/dep"
	"parascope/internal/fortran"
	"parascope/internal/xform"
)

const viewSrc = `
      program main
      integer i, m
      real t, a(200), b(200)
      read(*,*) m
      do i = 1, 100
         t = a(i)*2.0
         b(i) = t + 1.0
      enddo
      do i = 1, 100
         a(i) = a(i+m)
      enddo
      end
`

func open(t *testing.T) *core.Session {
	t.Helper()
	s, err := core.Open("t.f", viewSrc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSourcePane(t *testing.T) {
	s := open(t)
	out := SourcePane(s, nil)
	if !strings.Contains(out, "do i = 1, 100") {
		t.Errorf("missing loop header:\n%s", out)
	}
	if !strings.Contains(out, " s ") {
		t.Errorf("serial loops should be marked 's':\n%s", out)
	}
	// Parallelize loop 1 and confirm the P mark.
	if err := s.SelectLoop(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transform(xform.Parallelize{Do: s.SelectedLoop().Do}); err != nil {
		t.Fatal(err)
	}
	out = SourcePane(s, nil)
	if !strings.Contains(out, "P ") {
		t.Errorf("parallel loop should be marked 'P':\n%s", out)
	}
}

func TestSourceFilterLoopsOnly(t *testing.T) {
	s := open(t)
	out := SourcePane(s, FilterLoopsOnly)
	if !strings.Contains(out, "do i") {
		t.Errorf("loops missing:\n%s", out)
	}
	if strings.Contains(out, "read(*,*)") {
		t.Errorf("non-loop line leaked through the filter:\n%s", out)
	}
	if !strings.Contains(out, "...") {
		t.Errorf("elision marker missing:\n%s", out)
	}
}

func TestSourceFilterContains(t *testing.T) {
	s := open(t)
	out := SourcePane(s, FilterContains("a(i + m)"))
	if !strings.Contains(out, "a(i + m)") {
		t.Errorf("matching line missing:\n%s", out)
	}
	if strings.Contains(out, "do i") {
		t.Errorf("non-matching lines leaked:\n%s", out)
	}
}

func TestDepPane(t *testing.T) {
	s := open(t)
	if err := s.SelectLoop(2); err != nil {
		t.Fatal(err)
	}
	out := DepPane(s, core.DepFilter{CarriedOnly: true})
	if !strings.Contains(out, "symbolic") {
		t.Errorf("symbolic-blocked reason missing:\n%s", out)
	}
	if !strings.Contains(out, "pending") {
		t.Errorf("marking state missing:\n%s", out)
	}
}

func TestDepPaneEmptyForParallelizable(t *testing.T) {
	s := open(t)
	if err := s.SelectLoop(1); err != nil {
		t.Fatal(err)
	}
	out := DepPane(s, core.DepFilter{CarriedOnly: true, HidePrivate: true})
	if !strings.Contains(out, "parallelizable") {
		t.Errorf("want the 'parallelizable' hint:\n%s", out)
	}
}

func TestVarPane(t *testing.T) {
	s := open(t)
	if err := s.SelectLoop(1); err != nil {
		t.Fatal(err)
	}
	out := VarPane(s)
	for _, want := range []string{"induction", "private", "shared"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWindowLayout(t *testing.T) {
	s := open(t)
	if err := s.SelectLoop(1); err != nil {
		t.Fatal(err)
	}
	out := Window(s, nil, core.DepFilter{})
	for _, want := range []string{"ParaScope Editor", "source:", "dependences", "variables"} {
		if !strings.Contains(out, want) {
			t.Errorf("window missing %q", want)
		}
	}
	if !strings.Contains(out, "»") {
		t.Error("selected-loop marker missing")
	}
}

func TestDepSummaryAndLegend(t *testing.T) {
	s := open(t)
	if err := s.SelectLoop(2); err != nil {
		t.Fatal(err)
	}
	sum := DepSummary(s)
	if !strings.Contains(sum, "true") || !strings.Contains(sum, "anti") {
		t.Errorf("summary = %q", sum)
	}
	if !strings.Contains(Legend(), "proven | pending") {
		t.Error("legend missing marking states")
	}
	_ = dep.ClassFlow
}

// TestPanesAreFmtLayout: the loop list and the variable pane are written
// without fmt, and must read as the format strings they document print
// them — ranks past 9 and 99, names past their column, counts past
// theirs, notes that are not ASCII.
func TestPanesAreFmtLayout(t *testing.T) {
	var src strings.Builder
	src.WriteString("      program main\n      integer i, abcdefghijkl\n      real a(200)\n")
	for k := 0; k < 101; k++ {
		src.WriteString("      do i = 1, 100\n         a(i) = a(i+1)\n      enddo\n")
	}
	src.WriteString("      end\n")
	s, err := core.Open("t.f", src.String())
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for i, l := range s.Loops() {
		mark := " "
		if l.Do.Parallel {
			mark = "P"
		}
		fmt.Fprintf(&want, "%3d %s depth %d line %d: %s\n", i+1, mark, l.Depth, l.Do.Line(), fortran.StmtText(l.Do))
	}
	if got := LoopList(s); got != want.String() {
		t.Errorf("loop list\n%s\nfmt prints\n%s", got, want.String())
	}

	u := s.CurrentUnit()
	rows := []core.VarInfo{
		{Sym: u.Lookup("i"), Class: core.ClassInduction, DepCount: 0},
		{Sym: u.Lookup("abcdefghijkl"), Class: core.ClassShared, DepCount: 1234567890, LiveOut: true, PrivReason: "read — then written"},
		{Sym: u.Lookup("a"), Class: core.ClassReduction, DepCount: 12, LiveOut: true},
	}
	want.Reset()
	want.WriteString("── variables " + strings.Repeat("─", 50) + "\n")
	fmt.Fprintf(&want, "  %-10s %-10s %-9s %-7s %s\n", "name", "class", "deps", "liveout", "note")
	for _, r := range rows {
		note, live := "", ""
		if r.Sym.Kind == fortran.SymScalar && !r.Privatizable && r.Class == core.ClassShared {
			note = r.PrivReason
		}
		if r.LiveOut {
			live = "yes"
		}
		fmt.Fprintf(&want, "  %-10s %-10s %-9d %-7s %s\n", r.Sym.Name, r.Class, r.DepCount, live, note)
	}
	if got := VarPaneOf(rows); got != want.String() {
		t.Errorf("variable pane\n%s\nfmt prints\n%s", got, want.String())
	}
	if got, want := appendPadded(nil, "é—", -4), fmt.Sprintf("%-4s", "é—"); string(got) != want {
		t.Errorf("padded %q, fmt pads %q", got, want)
	}
}
