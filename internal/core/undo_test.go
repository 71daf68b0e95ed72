package core_test

// Undo restores the units that changed and sends each through the
// reanalysis ladder. Its contract is that the session it leaves cannot
// be told from core.Open of the text it landed on — up to what no
// edited session shares with a fresh one: a patch, on any rung, numbers a
// graph's edges and counts its tests its own way. So a unit no patch
// has touched is compared with the fresh session's edge for edge,
// identifiers and statistics included; a patched one edge set for edge
// set; estimates bit for bit everywhere.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"parascope/internal/core"
	"parascope/internal/dep"
	"parascope/internal/fortran"
	"parascope/internal/workloads"
	"parascope/internal/xform"
)

// recursionCycle is four units on one call cycle (p → x → y → p) under
// a main, with a local scalar, caller-visible arrays and a unit off the
// cycle to retarget calls to.
const recursionCycle = `
      program main
      integer i, n
      real a(10), b(10)
      n = 10
      do i = 1, 10
         a(i) = 0.5*real(i)
         b(i) = a(i) + 1.0
      enddo
      call p(a, b, 3)
      call z(b, a, 3)
      print *, a(1)
      end
      subroutine p(v, w, k)
      integer k
      real v(10), w(10), loc
      loc = 0.25
      v(k) = w(k) + loc
      call x(v, w, k)
      end
      subroutine x(v, w, k)
      integer k, i
      real v(10), w(10), loc
      loc = 1.0
      do i = 2, 10
         v(i) = v(i-1) + loc*0.5
      enddo
      call y(v, w, k)
      end
      subroutine y(v, w, k)
      integer k
      real v(10), w(10), loc
      loc = 0.125
      w(1) = v(1) + loc
      if (k .gt. 0) call p(v, w, k - 1)
      end
      subroutine z(v, w, k)
      integer k, i
      real v(10), w(10), t
      do i = 1, 10
         t = w(i)*2.0
         v(i) = t + 0.5
      enddo
      end
`

// dumpUnit renders one unit's analysis results: dependences, estimates,
// liveness, privatizability, reductions, the variables the unit assigns
// and its statements. exact keeps the graph's own order, edge
// identifiers and test statistics; otherwise the edges are listed sorted
// and without identifiers.
func dumpUnit(s *core.Session, u *fortran.Unit, exact bool) string {
	st := s.StateOf(u)
	var edges []string
	for _, d := range st.Deps.Deps {
		e := fmt.Sprintf("%s %s #%d->#%d l%d %v %v %v %s %s %q %q", d.Class, d.Sym.Name,
			d.Src.ID(), d.Dst.ID(), d.Level, d.Dirs, d.Dist, d.Known, d.Mark, d.Test, d.Reason, d.Blockers)
		if exact {
			e = fmt.Sprintf("%d %s", d.ID, e)
		}
		edges = append(edges, e)
	}
	var b strings.Builder
	if exact {
		stats := st.Deps.Stats
		fmt.Fprintf(&b, "pairs %d applied %v disproved %v proven %v\n",
			stats.PairsTested, stats.Applied, stats.Disproved, stats.Proven)
	} else {
		sort.Strings(edges)
	}
	b.WriteString(strings.Join(edges, "\n"))
	est := s.EstimateOf(u)
	fmt.Fprintf(&b, "\ntotal %b\n", est.Total)
	for _, le := range est.Loops {
		fmt.Fprintf(&b, "loop #%d %b %b %b %b %b %b\n", le.Loop.Do.ID(),
			le.Trip, le.BodyCost, le.SeqTime, le.ParTime, le.Speedup, le.Fraction)
	}
	// What the data-flow solution says beyond the dependence tester's
	// inputs: liveness at entry, and per loop what may be made private.
	var exposed []string
	for sym := range st.DF.UpwardExposed() {
		exposed = append(exposed, sym.Name)
	}
	sort.Strings(exposed)
	fmt.Fprintf(&b, "upward exposed %v\n", exposed)
	for _, l := range st.DF.Tree.All {
		fmt.Fprintf(&b, "loop #%d", l.Do.ID())
		for _, sym := range u.SymbolsSorted() {
			if sym.Kind == fortran.SymScalar {
				fmt.Fprintf(&b, " %s:%v", sym.Name, st.DF.Privatizable(l, sym))
			}
		}
		fmt.Fprintf(&b, " reductions %v\n", st.DF.Reductions(l))
	}
	var assigned []string
	for _, sym := range u.SymbolsSorted() {
		if st.DF.Assigned(sym) {
			assigned = append(assigned, sym.Name)
		}
	}
	fmt.Fprintf(&b, "assigned %v\n", assigned)
	fortran.WalkStmts(u.Body, func(x fortran.Stmt) bool {
		fmt.Fprintf(&b, "#%d %s\n", x.ID(), fortran.StmtText(x))
		return true
	})
	return b.String()
}

// undoHarness drives one session.
type undoHarness struct {
	t      *testing.T
	name   string
	s      *core.Session
	r      *rand.Rand
	serial int
}

func printed(u *fortran.Unit) string {
	var b strings.Builder
	fortran.PrintUnit(&b, u)
	return b.String()
}

// expectFresh holds the session to a fresh Open of its saved text.
func (h *undoHarness) expectFresh(context string) {
	h.t.Helper()
	s := h.s
	if err := s.CheckSourceImage(); err != nil {
		h.t.Fatalf("%s: %s: %v", h.name, context, err)
	}
	fresh, err := core.Open(s.File.Path, s.Save())
	if err != nil {
		h.t.Fatalf("%s: %s: saved text does not reopen: %v\n%s", h.name, context, err, s.Save())
	}
	if fresh.Save() != s.Save() {
		h.t.Fatalf("%s: %s: the saved text does not print back to itself", h.name, context)
	}
	for i, u := range s.File.Units {
		// A graph no patch has touched since its last full run numbers
		// its edges and counts its tests as the fresh session's does.
		exact := s.StateOf(u).Deps.Patches == 0
		got, want := dumpUnit(s, u, exact), dumpUnit(fresh, fresh.File.Units[i], exact)
		if got != want {
			h.t.Fatalf("%s: %s: unit %s (exact=%v) differs from a fresh open\n--- session ---\n%s--- fresh ---\n%s",
				h.name, context, u.Name, exact, got, want)
		}
	}
}

// undo undoes once and checks the contract.
func (h *undoHarness) undo(context string) {
	h.t.Helper()
	s := h.s
	before := map[string]string{}
	for _, u := range s.File.Units {
		before[u.Name] = printed(u)
	}
	cur := s.CurrentUnit()
	if err := s.Undo(); err != nil {
		h.t.Fatalf("%s: %s: %v", h.name, context, err)
	}
	var changed []string
	for _, u := range s.File.Units {
		if printed(u) != before[u.Name] {
			changed = append(changed, u.Name)
		}
	}
	mode := s.LastReanalysis.Mode
	if mode == "full" {
		h.t.Errorf("%s: %s: undo analyzed the whole program", h.name, context)
	}
	if s.CurrentUnit() != cur {
		h.t.Errorf("%s: %s: undo moved the current unit", h.name, context)
	}
	if s.SelectedLoop() != nil {
		h.t.Errorf("%s: %s: undo kept the selection", h.name, context)
	}
	if n := len(s.Assertions()); n != 0 {
		h.t.Errorf("%s: %s: %d assertions survive the undo", h.name, context, n)
	}
	// What the interprocedural facts key by symbol must be the symbols
	// the restored units have now.
	for u, summ := range s.Prog.Summaries {
		for _, set := range []map[*fortran.Symbol]bool{summ.Mod, summ.Ref} {
			for sym := range set {
				if u.Syms[sym.Name] != sym {
					h.t.Errorf("%s: %s: %s's summary holds a %s that is not the unit's", h.name, context, u.Name, sym.Name)
				}
			}
		}
		for sym := range s.Prog.ConstFormals[u] {
			if u.Syms[sym.Name] != sym {
				h.t.Errorf("%s: %s: %s's constant formal %s is not the unit's symbol", h.name, context, u.Name, sym.Name)
			}
		}
	}
	h.expectFresh(fmt.Sprintf("%s (%s, restored %v)", context, mode, changed))
}

func (h *undoHarness) pickUnit() {
	units := h.s.File.Units
	if err := h.s.SelectUnit(units[h.r.Intn(len(units))].Name); err != nil {
		h.t.Fatal(err)
	}
}

func (h *undoHarness) stmts(keep func(fortran.Stmt) bool) []fortran.Stmt {
	var out []fortran.Stmt
	fortran.WalkStmts(h.s.CurrentUnit().Body, func(st fortran.Stmt) bool {
		if keep(st) {
			out = append(out, st)
		}
		return true
	})
	return out
}

// editAssign re-types an assignment: the same text, a changed constant
// or a grown right-hand side. It lands on the patch, unit or program
// rung as the statement's variables decide.
func (h *undoHarness) editAssign() string {
	cands := h.stmts(func(st fortran.Stmt) bool { _, ok := st.(*fortran.AssignStmt); return ok })
	if len(cands) == 0 {
		return ""
	}
	st := cands[h.r.Intn(len(cands))]
	text := fortran.StmtText(st)
	lhs, rhs, _ := strings.Cut(text, " = ")
	switch h.r.Intn(3) {
	case 1:
		text = lhs + " = " + lhs
	case 2:
		if len(text) < 50 {
			text = lhs + " = " + rhs + " + " + lhs
		}
	}
	if err := h.s.EditStmt(st.ID(), "      "+text); err != nil {
		h.t.Fatalf("%s: edit %q: %v", h.name, text, err)
	}
	return "edit " + text
}

// editCall swaps two like actuals of a call, or retargets it to a unit
// with the same formals: the call surface moves, so the program rung.
func (h *undoHarness) editCall() string {
	calls := h.stmts(func(st fortran.Stmt) bool {
		c, ok := st.(*fortran.CallStmt)
		return ok && c.Callee != nil && len(c.Args) >= 2
	})
	if len(calls) == 0 {
		return ""
	}
	call := calls[h.r.Intn(len(calls))].(*fortran.CallStmt)
	name, args := call.Name, make([]string, len(call.Args))
	for i, a := range call.Args {
		args[i] = a.String()
	}
	var others []string
	for _, u := range h.s.File.Units {
		if u != call.Callee && u.Kind == fortran.UnitSubroutine && printedHeaderArgs(u) == printedHeaderArgs(call.Callee) {
			others = append(others, u.Name)
		}
	}
	x, okx := call.Args[0].(*fortran.VarRef)
	y, oky := call.Args[1].(*fortran.VarRef)
	switch {
	case len(others) > 0 && h.r.Intn(2) == 0:
		name = others[h.r.Intn(len(others))]
	case okx && oky && len(x.Subs) == 0 && len(y.Subs) == 0 && x.Sym != y.Sym &&
		x.Sym.Kind == y.Sym.Kind && x.Sym.Type == y.Sym.Type && len(x.Sym.Dims) == len(y.Sym.Dims):
		args[0], args[1] = args[1], args[0]
	case len(others) > 0:
		name = others[h.r.Intn(len(others))]
	default:
		return ""
	}
	text := "call " + name + "(" + strings.Join(args, ", ") + ")"
	if err := h.s.EditStmt(call.ID(), "      "+text); err != nil {
		h.t.Fatalf("%s: edit %q: %v", h.name, text, err)
	}
	return "edit " + text
}

// printedHeaderArgs fingerprints a unit's formals: count, kinds, types.
func printedHeaderArgs(u *fortran.Unit) string {
	var b strings.Builder
	for _, a := range u.Args {
		fmt.Fprintf(&b, "%s/%s/%d ", a.Kind, a.Type, len(a.Dims))
	}
	return b.String()
}

func (h *undoHarness) deleteAssign() string {
	cands := h.stmts(func(st fortran.Stmt) bool {
		_, ok := st.(*fortran.AssignStmt)
		return ok && fortran.StmtLabel(st) == 0
	})
	if len(cands) < 2 {
		return ""
	}
	st := cands[h.r.Intn(len(cands))]
	text := fortran.StmtText(st)
	if err := h.s.DeleteStmt(st.ID()); err != nil {
		h.t.Fatalf("%s: delete %q: %v", h.name, text, err)
	}
	return "delete " + text
}

// applyAddingSymbols strip-mines or scalar-expands the first loop that
// allows it; both declare new names in the unit.
func (h *undoHarness) applyAddingSymbols() string {
	s := h.s
	for n, l := range s.Loops() {
		tries := [][]string{{"stripmine", fmt.Sprint(n + 1), "4"}}
		for _, v := range s.StateOf(s.CurrentUnit()).Unit.SymbolsSorted() {
			if v.Kind == fortran.SymScalar && v != l.Do.Var {
				tries = append(tries, []string{"expand", fmt.Sprint(n + 1), v.Name})
			}
		}
		h.r.Shuffle(len(tries), func(i, j int) { tries[i], tries[j] = tries[j], tries[i] })
		for _, args := range tries {
			tr, err := core.ParseTransformation(s, args)
			if err != nil || !s.Check(tr).OK() {
				continue
			}
			before := len(s.CurrentUnit().Syms)
			if _, err := s.Transform(tr); err != nil {
				continue
			}
			if len(s.CurrentUnit().Syms) == before {
				h.t.Errorf("%s: %v declared nothing", h.name, args)
			}
			return "apply " + strings.Join(args, " ")
		}
	}
	return ""
}

// annotate applies an annotation-only transformation — parallelize,
// reductions, serialize, privatize or privatize-array — to the first
// loop, in a shuffled order, that allows one. Its undo puts the loop
// annotations back instead of parsing the unit.
func (h *undoHarness) annotate() string {
	s := h.s
	for _, n := range h.r.Perm(len(s.Loops())) {
		loop := fmt.Sprint(n + 1)
		tries := [][]string{{"parallelize", loop}, {"reductions", loop}, {"serialize", loop}}
		for _, v := range s.CurrentUnit().SymbolsSorted() {
			switch v.Kind {
			case fortran.SymScalar:
				tries = append(tries, []string{"privatize", loop, v.Name})
			case fortran.SymArray:
				tries = append(tries, []string{"privatize-array", loop, v.Name})
			}
		}
		h.r.Shuffle(len(tries), func(i, j int) { tries[i], tries[j] = tries[j], tries[i] })
		for _, args := range tries {
			tr, err := core.ParseTransformation(s, args)
			if err != nil || !s.Check(tr).OK() {
				continue
			}
			if _, err := s.Transform(tr); err != nil {
				h.t.Fatalf("%s: %v passed its check and failed: %v", h.name, args, err)
			}
			return "apply " + strings.Join(args, " ")
		}
	}
	return ""
}

// rejectedEdit types a statement that fails to parse after its name was
// declared: the unit's text changes and nothing is pushed.
func (h *undoHarness) rejectedEdit() string {
	cands := h.stmts(func(st fortran.Stmt) bool { _, ok := st.(*fortran.AssignStmt); return ok })
	if len(cands) == 0 {
		return ""
	}
	h.serial++
	text := fmt.Sprintf("zq%d(1) = 1.0", h.serial)
	if err := h.s.EditStmt(cands[0].ID(), "      "+text); err == nil {
		h.t.Fatalf("%s: %q was accepted", h.name, text)
	}
	return "rejected " + text
}

// userState marks a dependence, asserts on an integer and reclassifies
// a variable in the current unit.
func (h *undoHarness) userState() string {
	s := h.s
	var did []string
	for n := range s.Loops() {
		if err := s.SelectLoop(n + 1); err != nil {
			h.t.Fatal(err)
		}
		if deps := s.SelectionDeps(core.DepFilter{}); len(deps) > 0 {
			d := deps[h.r.Intn(len(deps))]
			m := dep.MarkAccepted
			if d.Mark != dep.MarkProven && h.r.Intn(2) == 0 {
				m = dep.MarkRejected
			}
			if err := s.MarkDep(d.ID, m); err != nil {
				h.t.Fatal(err)
			}
			did = append(did, "mark")
			break
		}
	}
	for _, v := range s.CurrentUnit().SymbolsSorted() {
		if v.Kind == fortran.SymScalar && v.Type == fortran.TypeInteger {
			if err := s.Assert(v.Name + " .ge. 1"); err != nil {
				h.t.Fatal(err)
			}
			if err := s.Classify(v.Name, core.ClassPrivate); err != nil {
				h.t.Fatal(err)
			}
			did = append(did, "assert+classify "+v.Name)
			break
		}
	}
	return strings.Join(did, ", ")
}

func (h *undoHarness) step() string {
	h.pickUnit()
	switch k := h.r.Intn(12); {
	case k < 4:
		return h.editAssign()
	case k < 6:
		return h.editCall()
	case k < 7:
		return h.deleteAssign()
	case k < 8:
		return h.applyAddingSymbols()
	case k < 9:
		return h.rejectedEdit()
	case k < 10:
		return h.userState()
	}
	return h.annotate()
}

// TestUndoMatchesFreshOpen runs seeded sequences of everything that
// changes a program or its analysis inputs, then undoes: once, with an
// edit after it that must take the rung it takes in a fresh session,
// and then until the stack is empty — after every undo the session must
// stand where a fresh Open of its text stands.
func TestUndoMatchesFreshOpen(t *testing.T) {
	programs := append(workloads.All(),
		&workloads.Workload{Name: "cycle", Source: recursionCycle},
		workloads.CallHeavy(24))
	rungs := map[string]int{}
	for _, w := range programs {
		for seed := int64(1); seed <= 3; seed++ {
			s, err := w.Session()
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			h := &undoHarness{t: t, name: fmt.Sprintf("%s seed %d", w.Name, seed), s: s,
				r: rand.New(rand.NewSource(seed*7919 + int64(len(w.Source))))}
			var log []string
			for len(log) < 8 {
				if op := h.step(); op != "" {
					log = append(log, s.CurrentUnit().Name+": "+op)
				}
			}
			h.name += " after [" + strings.Join(log, "; ") + "]"
			if err := s.CheckSourceImage(); err != nil {
				t.Fatalf("%s: %v", h.name, err)
			}
			if len(s.UndoStack()) == 0 {
				t.Fatalf("%s: nothing was pushed", h.name)
			}
			h.undo("first undo")
			rungs[s.LastReanalysis.Mode]++

			// The same edit in this session and in a fresh one.
			fresh, err := core.Open(s.File.Path, s.Save())
			if err != nil {
				t.Fatal(err)
			}
			h.pickUnit()
			if err := fresh.SelectUnit(s.CurrentUnit().Name); err != nil {
				t.Fatal(err)
			}
			if op := h.editAssign(); op != "" {
				text := strings.TrimPrefix(op, "edit ")
				var id int
				fortran.WalkStmts(s.CurrentUnit().Body, func(st fortran.Stmt) bool {
					if id == 0 && fortran.StmtText(st) == text {
						id = st.ID()
					}
					return true
				})
				if err := fresh.EditStmt(id, "      "+text); err != nil {
					t.Fatalf("%s: %q in the fresh session: %v", h.name, text, err)
				}
				if got, want := s.LastReanalysis.Mode, fresh.LastReanalysis.Mode; got != want {
					t.Errorf("%s: %q after the undo took the %s rung, in a fresh session %s", h.name, text, got, want)
				}
				h.expectFresh("edit after the undo")
			}
			for n := 2; len(s.UndoStack()) > 0; n++ {
				h.undo(fmt.Sprintf("undo %d", n))
				rungs[s.LastReanalysis.Mode]++
			}
			if err := s.Undo(); err == nil {
				t.Errorf("%s: undo on an empty stack succeeded", h.name)
			}
		}
	}
	for _, rung := range []string{"patch", "unit", "program"} {
		if rungs[rung] == 0 {
			t.Errorf("no undo took the %s rung: %v", rung, rungs)
		}
	}
	t.Logf("undo rungs: %v", rungs)
}

// TestUndoPlantedEntry: an undo stack planted as whole texts — what a
// session rebuilt from a durability snapshot has — undoes onto the same
// states as the stack the session built itself, by the same rungs.
func TestUndoPlantedEntry(t *testing.T) {
	for _, w := range []*workloads.Workload{workloads.ByName("arc3d"), {Name: "cycle", Source: recursionCycle}} {
		s, err := w.Session()
		if err != nil {
			t.Fatal(err)
		}
		h := &undoHarness{t: t, name: w.Name, s: s, r: rand.New(rand.NewSource(5))}
		for n := 0; n < 6; {
			h.pickUnit()
			if h.editAssign() != "" || h.editCall() != "" {
				n++
			}
		}
		rebuilt, err := core.Open(s.File.Path, s.Save())
		if err != nil {
			t.Fatal(err)
		}
		rebuilt.SetUndoStack(s.UndoStack())
		if err := rebuilt.SelectUnit(s.CurrentUnit().Name); err != nil {
			t.Fatal(err)
		}
		hr := &undoHarness{t: t, name: w.Name + " (planted)", s: rebuilt}
		for n := 1; len(s.UndoStack()) > 0; n++ {
			h.undo(fmt.Sprintf("undo %d", n))
			hr.undo(fmt.Sprintf("undo %d", n))
			if s.Save() != rebuilt.Save() {
				t.Fatalf("%s: undo %d: the planted stack landed on another text", w.Name, n)
			}
			if got, want := rebuilt.LastReanalysis.Mode, s.LastReanalysis.Mode; got != want {
				t.Errorf("%s: undo %d: planted entry took the %s rung, the session's own %s", w.Name, n, got, want)
			}
			if got, want := len(rebuilt.UndoStack()), len(s.UndoStack()); got != want {
				t.Fatalf("%s: undo %d: %d planted entries left, want %d", w.Name, n, got, want)
			}
		}
	}
	// An entry whose units are not the session's replaces the file.
	s, err := core.Open("t.f", recursionCycle)
	if err != nil {
		t.Fatal(err)
	}
	other := "      program main\n      real q\n      q = 1.0\n      call only(q)\n      end\n" +
		"      subroutine only(v)\n      real v\n      v = v + 1.0\n      end\n"
	s.SetUndoStack([]string{other})
	if err := s.Undo(); err != nil {
		t.Fatal(err)
	}
	if s.LastReanalysis.Mode != "full" || len(s.File.Units) != 2 || s.CurrentUnit() != s.File.Main() {
		t.Errorf("undo onto another program: mode %s, %d units", s.LastReanalysis.Mode, len(s.File.Units))
	}
	(&undoHarness{t: t, name: "other program", s: s}).expectFresh("after the undo")
}

// TestUndoOfAnnotationKeepsTheAST: undoing a step that only annotated a
// loop puts the annotations back on the same statements — nothing is
// parsed — and lands where a fresh Open of the text does; after a
// rejected edit has declared a name in the unit, the same undo parses
// the unit back from its text instead, and lands there too.
func TestUndoOfAnnotationKeepsTheAST(t *testing.T) {
	undone := 0
	for _, w := range append(workloads.All(), workloads.CallHeavy(24)) {
		s, err := core.Open(w.Name+".f", w.Source)
		if err != nil {
			t.Fatal(err)
		}
		h := &undoHarness{t: t, name: w.Name, s: s}
		for _, u := range s.File.Units {
			if err := s.SelectUnit(u.Name); err != nil {
				t.Fatal(err)
			}
			for n := range s.Loops() {
				for _, cmd := range []string{"parallelize", "reductions", "serialize"} {
					tr, err := core.ParseTransformation(s, []string{cmd, fmt.Sprint(n + 1)})
					if err != nil || !s.Check(tr).OK() {
						continue
					}
					stmts := h.stmts(func(fortran.Stmt) bool { return true })
					if _, err := s.Transform(tr); err != nil {
						t.Fatal(err)
					}
					h.undo(fmt.Sprintf("%s: undo %s %d", u.Name, cmd, n+1))
					if now := h.stmts(func(fortran.Stmt) bool { return true }); !slices.Equal(now, stmts) {
						t.Errorf("%s: %s: undo of %s %d parsed the unit back", w.Name, u.Name, cmd, n+1)
					}
					undone++

					if tr, err = core.ParseTransformation(s, []string{cmd, fmt.Sprint(n + 1)}); err != nil {
						t.Fatal(err)
					}
					if _, err := s.Transform(tr); err != nil {
						t.Fatal(err)
					}
					h.rejectedEdit()
					h.undo(fmt.Sprintf("%s: undo %s %d after a rejected edit", u.Name, cmd, n+1))
				}
			}
		}
	}
	if undone == 0 {
		t.Fatal("no annotation-only step applied")
	}
}

// halfDone is a transformation whose Apply rewrites the unit part-way —
// deletes the first statement of the loop's body and swaps its bounds —
// and then fails, as Fuse.Apply can after writing the fused loop.
type halfDone struct{ do *fortran.DoStmt }

func (halfDone) Name() string { return "half-done" }

func (halfDone) Check(*xform.Context) xform.Verdict {
	return xform.Verdict{Applicable: true, Safe: true}
}

func (t halfDone) Apply(c *xform.Context) error {
	xform.ReplaceStmt(c.Unit, t.do.Body[0])
	t.do.Lo, t.do.Hi = t.do.Hi, t.do.Lo
	return errors.New("half-done: gave up")
}

// TestFailedTransformChangesNothing: a transformation whose Apply fails
// after rewriting part of the unit leaves the program text, the
// analysis of every unit and the user's marks as they were, and pushes
// nothing.
func TestFailedTransformChangesNothing(t *testing.T) {
	tried := 0
	for _, w := range []*workloads.Workload{workloads.ByName("arc3d"), workloads.CallHeavy(24), {Name: "cycle", Source: recursionCycle}} {
		s, err := core.Open(w.Name+".f", w.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range s.File.Units {
			if err := s.SelectUnit(u.Name); err != nil {
				t.Fatal(err)
			}
			for n, l := range s.Loops() {
				if len(l.Do.Body) < 2 {
					continue
				}
				if err := s.SelectLoop(n + 1); err != nil {
					t.Fatal(err)
				}
				if deps := s.SelectionDeps(core.DepFilter{}); len(deps) > 0 {
					if err := s.MarkDep(deps[0].ID, dep.MarkAccepted); err != nil {
						t.Fatal(err)
					}
				}
				text, stack := s.Save(), len(s.UndoStack())
				var dumps []string
				for _, v := range s.File.Units {
					dumps = append(dumps, dumpUnit(s, v, true))
				}
				if _, err := s.Transform(halfDone{l.Do}); err == nil || !strings.Contains(err.Error(), "gave up") {
					t.Fatalf("%s: %s: loop %d: Transform returned %v", w.Name, u.Name, n+1, err)
				}
				tried++
				where := fmt.Sprintf("%s: %s: after a failed Apply on loop %d", w.Name, u.Name, n+1)
				if err := s.CheckSourceImage(); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if s.Save() != text {
					t.Fatalf("%s: the program moved:\n%s", where, s.Save())
				}
				if len(s.UndoStack()) != stack {
					t.Errorf("%s: %d undo entries, want %d", where, len(s.UndoStack()), stack)
				}
				for i, v := range s.File.Units {
					if got := dumpUnit(s, v, true); got != dumps[i] {
						t.Fatalf("%s: unit %s's analysis moved\n--- after ---\n%s--- before ---\n%s", where, v.Name, got, dumps[i])
					}
				}
				break
			}
		}
	}
	if tried == 0 {
		t.Fatal("no loop to fail on")
	}
}
