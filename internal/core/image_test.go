package core

// The source image — each unit's printed text beside its fingerprint,
// and the memoized whole-program hash — must describe the AST after
// every operation: Save() == fortran.Print(File) and SourceHash() ==
// sha256(Save()). CheckSourceImage holds it to that reference.

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"parascope/internal/dep"
	"parascope/internal/fortran"
	"parascope/internal/perf"
)

const imageSrc = `
      program main
      integer i, n
      real a(300), b(300), t
      n = 100
      do i = 1, 100
         t = b(i)*2.0
         a(i) = t + 1.0
      enddo
      do i = 1, 100
         call f(a, b, i)
      enddo
      do i = 1, 100
         a(i) = a(i+n)
      enddo
      end
      subroutine f(x, y, k)
      integer k
      real x(300), y(300)
      call h(x, y, k)
      end
      subroutine g(x, y, k)
      integer k
      real x(300), y(300)
      x(k) = x(k+100) + y(k)
      end
      subroutine h(x, y, k)
      integer k
      real x(300), y(300)
      x(k) = y(k) + 1.0
      end
`

func selectUnit(t *testing.T, s *Session, name string) {
	t.Helper()
	if err := s.SelectUnit(name); err != nil {
		t.Fatal(err)
	}
}

// TestSourceImageAlwaysTrue walks every operation that can change the
// program or replace a unit's analysis state, on every reanalysis
// rung, and checks the image after each one.
func TestSourceImageAlwaysTrue(t *testing.T) {
	s := open(t, imageSrc)
	pristine := s.Save()
	edit := func(unit, find, text string) func() error {
		return func() error {
			selectUnit(t, s, unit)
			return s.EditStmt(findAssign(t, s, find).ID(), "      "+text)
		}
	}
	for _, step := range []struct {
		name string
		do   func() error
		mode string // the rung the step must take, "" when it does not reanalyze
	}{
		{"open", func() error { return nil }, ""},
		{"edit, patch rung", edit("main", "t = b(i)", "t = b(i)*3.0"), "patch"},
		{"edit, unit rung", edit("h", "x(k) = ", "x(k) = y(k) + 2.0"), "unit"},
		{"edit, program rung", func() error {
			selectUnit(t, s, "main")
			var call int
			for _, l := range s.Loops() {
				for _, st := range l.Do.Body {
					if strings.HasPrefix(fortran.StmtText(st), "call f") {
						call = st.ID()
					}
				}
			}
			return s.EditStmt(call, "      call g(a, b, i)")
		}, "program"},
		{"edit, same text", edit("main", "t = b(i)", "t = b(i)*3.0"), "patch"},
		{"rejected edit that declares a name", func() error {
			// The parse fails on the undeclared array, after zz entered
			// the symbol table — and so the printed declarations.
			err := s.EditStmt(findAssign(t, s, "t = b(i)").ID(), "      zz(i) = 1.0")
			if err == nil || !strings.Contains(fortran.Print(s.File), "zz") {
				t.Errorf("edit err = %v; want a parse error that still declared zz", err)
			}
			return nil
		}, ""},
		{"rejected edit that calls a new name", func() error {
			// yy enters the table a function, which no declaration names.
			err := s.EditStmt(findAssign(t, s, "t = b(i)").ID(), "      zz(1) = yy(0)")
			if text := fortran.Print(s.File); err == nil || !strings.Contains(text, "zz") || strings.Contains(text, "yy") {
				t.Errorf("edit err = %v; want a parse error that declared zz and not yy", err)
			}
			return nil
		}, ""},
		{"edit introducing a name", edit("main", "t = b(i)", "t = b(i)*3.0 + w2"), ""},
		{"delete", func() error {
			return s.DeleteStmt(findAssign(t, s, "n = 100").ID())
		}, "unit"},
		{"apply", func() error {
			tr, err := ParseTransformation(s, []string{"parallelize", "1"})
			if err != nil {
				return err
			}
			_, err = s.Transform(tr)
			return err
		}, "unit"},
		{"refused apply", func() error {
			tr, err := ParseTransformation(s, []string{"parallelize", "3"})
			if err != nil {
				return err
			}
			if _, err := s.Transform(tr); err == nil {
				t.Error("parallelizing a(i) = a(i+n) was not refused")
			}
			return nil
		}, ""},
		{"mark", func() error {
			if err := s.SelectLoop(3); err != nil {
				return err
			}
			deps := s.SelectionDeps(DepFilter{CarriedOnly: true})
			if len(deps) == 0 {
				t.Fatal("loop 3 carries nothing to mark")
			}
			return s.MarkDep(deps[0].ID, dep.MarkAccepted)
		}, ""},
		{"assert", func() error { return s.Assert("n .ge. 100") }, "unit"},
		{"classify", func() error { return s.Classify("t", ClassPrivate) }, ""},
		{"auto", func() error { s.AutoParallelize(); return nil }, ""},
		{"undo", s.Undo, "unit"},
		{"set undo stack, undo", func() error {
			s.SetUndoStack([]string{pristine})
			if err := s.Undo(); err != nil {
				return err
			}
			if s.Save() != pristine {
				t.Error("undo onto a planted stack entry did not restore its text")
			}
			return nil
		}, "program"},
		{"edit after undo", edit("main", "t = b(i)", "t = b(i)*4.0"), "patch"},
	} {
		s.LastReanalysis = Reanalysis{}
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if step.mode != "" && s.LastReanalysis.Mode != step.mode {
			t.Errorf("%s: took the %q rung, want %q", step.name, s.LastReanalysis.Mode, step.mode)
		}
		if err := s.CheckSourceImage(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
	}
}

// TestSourceHashMemoFollowsText: the memoized hash changes exactly
// when the text does — selection, marks and classification leave it
// alone, an edit moves it, retyping the old text moves it back.
func TestSourceHashMemoFollowsText(t *testing.T) {
	s := open(t, imageSrc)
	h0 := s.SourceHash()
	if err := s.SelectLoop(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Classify("t", ClassPrivate); err != nil {
		t.Fatal(err)
	}
	if s.SourceHash() != h0 {
		t.Error("selection or classification moved the source hash")
	}
	id := findAssign(t, s, "t = b(i)").ID()
	if err := s.EditStmt(id, "      t = b(i)*3.0"); err != nil {
		t.Fatal(err)
	}
	if s.SourceHash() == h0 {
		t.Error("an edit left the source hash where it was")
	}
	if err := s.EditStmt(findAssign(t, s, "t = b(i)").ID(), "      t = b(i)*2.0"); err != nil {
		t.Fatal(err)
	}
	if s.SourceHash() != h0 {
		t.Error("retyping the original text did not restore the source hash")
	}
}

// TestUndoEntryCarriesParsedNames pins what journals written before the
// image existed rely on: the undo entry an edit pushes is the program
// printed after the edit's text was parsed — the old statements, with
// the names the new text introduced already declared. An entry without
// them would make `undo` land on a different text, and every pre_hash
// recorded after it a replay divergence.
func TestUndoEntryCarriesParsedNames(t *testing.T) {
	s := open(t, imageSrc)
	if err := s.EditStmt(findAssign(t, s, "t = b(i)").ID(), "      t = b(i)*2.0 + w2"); err != nil {
		t.Fatal(err)
	}
	stack := s.UndoStack()
	entry := stack[len(stack)-1]
	if !strings.Contains(entry, "t = b(i)*2.0\n") || !strings.Contains(entry, "w2") {
		t.Errorf("undo entry should hold the old statement and declare w2:\n%s", entry)
	}
}

// TestUndoStackSharesUnitText: an undo entry holds the program unit by
// unit and shares every unit the edit left alone with the live image and
// with the other entries, so twenty edits of one unit of a 200-unit
// program retain twenty texts of that unit beside one of the program —
// not twenty programs.
func TestUndoStackSharesUnitText(t *testing.T) {
	var b strings.Builder
	b.WriteString("      program main\n      real a(100)\n")
	for k := 1; k < 200; k++ {
		fmt.Fprintf(&b, "      call s%d(a)\n", k)
	}
	b.WriteString("      end\n")
	for k := 1; k < 200; k++ {
		fmt.Fprintf(&b, "      subroutine s%d(x)\n      integer i\n      real x(100), loc\n      loc = %d.0\n"+
			"      do i = 1, 100\n         x(i) = x(i) + loc\n      enddo\n      end\n", k, k)
	}
	s := open(t, b.String())
	program := len(s.Save())
	selectUnit(t, s, "s7")
	edited := 0
	const edits = 20
	for e := 1; e <= edits; e++ {
		if err := s.EditStmt(findAssign(t, s, "loc = ").ID(), fmt.Sprintf("      loc = %d.5", e)); err != nil {
			t.Fatal(err)
		}
		edited = max(edited, len(s.State().text))
	}
	if len(s.undoStack) != edits {
		t.Fatalf("%d undo entries, want %d", len(s.undoStack), edits)
	}
	texts := map[*byte]int{}
	for _, e := range s.undoStack {
		for _, img := range e.units {
			texts[unsafe.StringData(img.text)] = len(img.text)
		}
	}
	retained := 0
	for _, n := range texts {
		retained += n
	}
	if limit := program + edits*edited; retained > limit {
		t.Errorf("the stack retains %d bytes of text, want at most the program's %d and %d × the unit's %d",
			retained, program, edits, edited)
	}
	other := s.File.Unit("s8")
	if unsafe.StringData(s.undoStack[0].units[8].text) != unsafe.StringData(s.units[other].text) {
		t.Error("an untouched unit's text in the oldest entry is not the live image's string")
	}
	t.Logf("program %d bytes, %d edits: stack retains %d bytes in %d texts", program, edits, retained, len(texts))
	for len(s.undoStack) > 0 {
		if err := s.Undo(); err != nil {
			t.Fatal(err)
		}
		if s.LastReanalysis.Mode != "patch" {
			t.Fatalf("undo of a local scalar's edit took the %s rung", s.LastReanalysis.Mode)
		}
	}
	if err := s.CheckSourceImage(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Save()); got != program {
		t.Errorf("undoing everything leaves %d bytes of program, want %d", got, program)
	}
}

// TestUndoKeepsEntryWhenReparseFails: Undo used to pop the stack before
// reparsing, so an entry that failed to parse was lost for good. A
// failed undo must change nothing — stack, program, image.
func TestUndoKeepsEntryWhenReparseFails(t *testing.T) {
	s := open(t, imageSrc)
	before := s.Save()
	planted := []string{before, "      program main\n      x = = 1\n      end\n"}
	s.SetUndoStack(planted)
	if err := s.Undo(); err == nil {
		t.Fatal("undo onto an unparsable entry succeeded")
	}
	got := s.UndoStack()
	if len(got) != len(planted) || got[0] != planted[0] || got[1] != planted[1] {
		t.Errorf("failed undo changed the stack: %d entries, want the %d planted", len(got), len(planted))
	}
	if s.Save() != before {
		t.Error("failed undo changed the program")
	}
	if err := s.CheckSourceImage(); err != nil {
		t.Error(err)
	}
}

// TestProgramRungKeepsEstimator: the program rung invalidates and
// re-warms only the edited unit and its transitive callers in the cost
// memo. Every memoized cost must still equal a fresh estimator's,
// bit for bit, and the session must match a from-scratch analysis.
func TestProgramRungKeepsEstimator(t *testing.T) {
	s := open(t, imageSrc)
	est := s.est
	selectUnit(t, s, "f")
	var call int
	for _, st := range s.CurrentUnit().Body {
		if strings.HasPrefix(fortran.StmtText(st), "call h") {
			call = st.ID()
		}
	}
	if err := s.EditStmt(call, "      call g(x, y, k)"); err != nil {
		t.Fatal(err)
	}
	if s.LastReanalysis.Mode != "program" {
		t.Fatalf("retargeting a call took the %q rung, want program", s.LastReanalysis.Mode)
	}
	if s.est != est {
		t.Error("the program rung replaced the estimator")
	}
	fresh := perf.New(s.File, perf.DefaultParams())
	for _, u := range s.File.Units {
		if got, want := s.est.UnitCost(u), fresh.UnitCost(u); got != want {
			t.Errorf("unit %s: memoized cost %g, fresh estimator %g", u.Name, got, want)
		}
	}
	ExpectFresh(t, s, t.Name())
}

// TestProgramRungOnRecursiveProgram: a price does not depend on where
// the cycle is entered, so on a recursion cycle too the program rung
// keeps the estimator and reprices the edited unit and its callers
// only. Here p's edit moves the cycle's entry from y (reached through
// p) to x.
func TestProgramRungOnRecursiveProgram(t *testing.T) {
	s := open(t, `
      program main
      real a(10)
      call p(a)
      call x(a)
      end
      subroutine p(v)
      real v(10)
      call y(v)
      end
      subroutine x(v)
      real v(10)
      integer i
      do i = 1, 10
         v(i) = v(i) + 1.0
      enddo
      call y(v)
      end
      subroutine y(v)
      real v(10)
      v(1) = 1.0
      call x(v)
      end
      subroutine z(v)
      real v(10)
      v(2) = 0.0
      end
`)
	est := s.est
	selectUnit(t, s, "p")
	if err := s.EditStmt(s.CurrentUnit().Body[0].ID(), "      call z(v)"); err != nil {
		t.Fatal(err)
	}
	if s.LastReanalysis.Mode != "program" {
		t.Fatalf("retargeting a call took the %q rung, want program", s.LastReanalysis.Mode)
	}
	if s.est != est {
		t.Error("the program rung replaced the estimator")
	}
	ExpectFresh(t, s, t.Name())
}

// TestExternalPassedBareStaysAFunction: a name an EXTERNAL statement
// declares is a function though no expression calls it — here it is
// only passed to a subroutine. The printed text carries the EXTERNAL
// statement, so an undo reparses f a function, and the saved text keeps
// it one for the next open.
func TestExternalPassedBareStaysAFunction(t *testing.T) {
	s := open(t, `
      program p
      real b(10)
      external f
      integer i
      do i = 1, 10
         b(i) = 0.0
      enddo
      call s(f, b)
      y = 1.0
      end
      subroutine s(g, c)
      real c(10)
      c(1) = g(1.0)
      end
`)
	saved := func(y string) string {
		return "      program p\n      integer i\n      real b(10), y\n      external f\n" +
			"      do i = 1, 10\n        b(i) = 0.0\n      enddo\n      call s(f, b)\n      y = " + y + "\n      end\n\n" +
			"      subroutine s(g, c)\n      real c(10)\n      c(1) = g(1.0)\n      end\n"
	}
	for _, step := range []struct {
		name, y string
		do      func() error
	}{
		{"open", "1.0", func() error { return nil }},
		{"edit", "2.0", func() error { return s.EditStmt(findAssign(t, s, "y = 1.0").ID(), "      y = 2.0") }},
		{"undo", "1.0", s.Undo},
	} {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if k := s.File.Unit("p").Lookup("f").Kind; k != fortran.SymFunc {
			t.Errorf("%s: f is a %s", step.name, k)
		}
		if got := s.Save(); got != saved(step.y) {
			t.Errorf("%s: saved\n%s\nwant\n%s", step.name, got, saved(step.y))
		}
		if err := s.CheckSourceImage(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
	}
}

// TestSaveKeepsEveryNamesKindAndType: a fresh open of a saved program
// saves the same text, and gives every name the kind and type it had —
// an EXTERNAL name passed bare, called or a dummy argument, and a
// function name typed other than its name implies, with and without
// EXTERNAL.
func TestSaveKeepsEveryNamesKindAndType(t *testing.T) {
	for _, src := range []string{`
      program p
      real b(10)
      external f
      call s(f, b)
      end
      subroutine s(g, c)
      real c(10)
      c(1) = g(1.0)
      end
`, `
      program p
      integer f
      external f
      integer i
      i = f(2)
      print *, i
      end
`, `
      program p
      real k
      double precision h
      x = k(1.0) + h(2.0)
      print *, x
      end
`, `
      program p
      external fn
      real c(10)
      call s(fn, c)
      end
      subroutine s(g, c)
      external g
      integer g
      real c(10)
      c(1) = g(1)
      end
      function fn(x)
      fn = x + 1.0
      end
`} {
		s := open(t, src)
		saved := s.Save()
		again := open(t, saved)
		if got := again.Save(); got != saved {
			t.Errorf("a fresh open of\n%s\nsaves\n%s", saved, got)
		}
		for _, u := range s.File.Units {
			for name, sym := range u.Syms {
				re := again.File.Unit(u.Name).Lookup(name)
				if re == nil {
					t.Errorf("%s: %s is gone after a fresh open of\n%s", u.Name, name, saved)
					continue
				}
				if re.Kind != sym.Kind || re.Type != sym.Type || re.External != sym.External {
					t.Errorf("%s: %s is a %s %s (external %t), after a fresh open a %s %s (external %t)",
						u.Name, name, sym.Type, sym.Kind, sym.External, re.Type, re.Kind, re.External)
				}
			}
		}
	}
}

// TestUndoRestoresUnmentionedKind: a declared name that no statement
// mentions is called by one edit, so it becomes a function, and the
// call is edited away again. Undoing both lands on the text before
// them, declaration included: Unit.Adopt keeps the old kind only of the
// names the restored statements mention, which DeriveKinds then moves.
func TestUndoRestoresUnmentionedKind(t *testing.T) {
	s := open(t, "      program p\n      z = 1.0\n      end\n")
	if err := s.EditStmt(findAssign(t, s, "z = 1.0").ID(), "      q(1) = 1.0"); err == nil {
		t.Fatal("q(1) = 1.0 was accepted")
	}
	var texts []string
	for _, text := range []string{"z = q(0)", "z = 2.0"} {
		texts = append(texts, s.Save())
		if err := s.EditStmt(findAssign(t, s, "z = ").ID(), "      "+text); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(texts[0], "real q, z\n") || strings.Contains(s.Save(), "q") {
		t.Fatalf("q should be declared before the edits and gone after them:\n%s\n%s", texts[0], s.Save())
	}
	for i := len(texts) - 1; i >= 0; i-- {
		if err := s.Undo(); err != nil {
			t.Fatal(err)
		}
		if got := s.Save(); got != texts[i] {
			t.Errorf("undo %d landed on\n%s\nwant\n%s", len(texts)-i, got, texts[i])
		}
		if err := s.CheckSourceImage(); err != nil {
			t.Fatal(err)
		}
	}
}
