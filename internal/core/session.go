// Package core implements the ParaScope Editor itself: an
// interactive session over a Fortran program that combines the
// analyses (dependence, data-flow, interprocedural), the power-
// steering transformations, dependence marking and filtering, user
// assertions, variable classification, performance navigation,
// editing with incremental reanalysis, and undo — the paper's
// primary contribution.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"

	"parascope/internal/cfg"
	"parascope/internal/dataflow"
	"parascope/internal/dep"
	"parascope/internal/expr"
	"parascope/internal/faultpoint"
	"parascope/internal/fortran"
	"parascope/internal/interproc"
	"parascope/internal/perf"
	"parascope/internal/xform"
)

// VarClass is the user-visible classification of a variable with
// respect to the selected loop.
type VarClass int

// Variable classes shown in the variable pane.
const (
	ClassShared VarClass = iota
	ClassPrivate
	ClassReduction
	ClassInduction
)

func (c VarClass) String() string {
	switch c {
	case ClassShared:
		return "shared"
	case ClassPrivate:
		return "private"
	case ClassReduction:
		return "reduction"
	case ClassInduction:
		return "induction"
	}
	return "?"
}

// ParseVarClass names the classes a user may assign — the last word of
// `classify <var> shared|private|reduction`, and what a journaled
// classification records.
func ParseVarClass(name string) (VarClass, error) {
	for _, c := range []VarClass{ClassShared, ClassPrivate, ClassReduction} {
		if name == c.String() {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown class %q", name)
}

// Assertion is one user-supplied fact about a variable's value,
// sharpening dependence analysis ("assert n >= 100").
type Assertion struct {
	Var string
	Rel string // ".eq.", ".ge.", ".le.", ".gt.", ".lt."
	Val int64
}

func (a Assertion) String() string { return fmt.Sprintf("%s %s %d", a.Var, a.Rel, a.Val) }

// depKey identifies a dependence stably across reanalysis so user
// markings survive. Endpoints are identified by the statements'
// edit-stable UIDs — assigned once and never reused — rather than line
// numbers: lines shift when statements above the marked loop are
// edited or deleted, which used to silently drop surviving marks and,
// worse, could attach a stale mark to a different dependence that
// landed on the old line numbers.
type depKey struct {
	sym    string
	srcUID int
	dstUID int
	class  dep.Class
	level  int
}

func keyOf(d *dep.Dependence) depKey {
	return depKey{sym: d.Sym.Name, srcUID: d.Src.UID(), dstUID: d.Dst.UID(),
		class: d.Class, level: d.Level}
}

// UnitState holds the per-unit analysis and interaction state. Its two
// derived views, the printed text and the performance estimate, are made
// the first time a reader asks (Session.image, Session.EstimateOf), not
// by the analysis.
type UnitState struct {
	Unit *fortran.Unit
	DF   *dataflow.Analysis
	Deps *dep.Graph

	marks      map[depKey]dep.Mark
	assertions []Assertion
	classes    map[string]VarClass // user overrides by name

	// unitImage is the unit's printed source — this unit's part of the
	// session's source image, which Save and SourceHash read instead of
	// printing — or the zero image while the unit is unprinted. An
	// unprinted unit is one no action has changed since it was parsed:
	// every AST mutation is preceded by pushUndo, which prints every unit,
	// and a rejected edit's parse, which declares names and pushes
	// nothing, prints its unit at once (EditStmt). callSig fingerprints
	// the call surface (every call statement and user function
	// invocation, with actuals). The two drive update's escalation
	// decision: an unchanged text means nothing interprocedural can have
	// moved, an unchanged call signature means no other unit's constant
	// formals or call graph entry can have moved.
	unitImage
	callSig string
	// estimate is the unit's performance estimate, nil until EstimateOf
	// prices the unit and again once a change moves its price or
	// replaces its analysis.
	estimate *perf.UnitEstimate
}

// unitImage is one unit's printed text; two images compare by it. A
// printed unit's text is never empty, so the zero image is "unprinted".
type unitImage struct {
	text string
}

// imageOf prints u.
func imageOf(u *fortran.Unit) unitImage {
	var b strings.Builder
	fortran.PrintUnit(&b, u)
	return unitImage{text: b.String()}
}

// Session is one open ParaScope Editor.
type Session struct {
	File *fortran.File
	Prog *interproc.Program
	Opts dep.Options
	// Conservative disables the interprocedural analyses (Mod/Ref,
	// Kill, sections, constants), treating every call as touching
	// everything — the ablation baseline of the analysis experiments.
	Conservative bool
	// Workers bounds the per-unit analysis worker pool used by
	// AnalyzeAll; 0 means GOMAXPROCS.
	Workers int
	// obs receives per-phase analysis timings; nil disables them.
	// Per-unit phases run concurrently on the worker pool, so the
	// observer must be concurrency-safe.
	obs PhaseObserver

	units   map[*fortran.Unit]*UnitState
	current *fortran.Unit
	// selected is the currently selected loop (its DO statement).
	selected *fortran.DoStmt

	// WholeUnitOnly disables the statement-granular step on every rung —
	// after a 1:1 edit, and after a transformation that only annotates a
	// loop — so that the edited unit is always reanalyzed whole: the
	// benchmark baseline and the differential-test reference.
	WholeUnitOnly bool
	// LastReanalysis describes the most recent (re)analysis: which
	// path ran and its wall time. REPL and server surfaces report it.
	LastReanalysis Reanalysis

	est *perf.Estimator
	// History logs user-level actions for the session transcript.
	History []string

	undoStack []undoEntry
	// progHash memoizes SourceHash; "" after any unit's text was
	// replaced.
	progHash string
	// Counters for the evaluation tables.
	Stats SessionStats
	// mutated is set by any action that changes the program or the
	// analysis inputs (edits, transformations, marks, assertions,
	// reclassifications, undo) — the server's cache uses it to tell
	// pristine sessions from dirtied ones.
	mutated bool
	// prints counts the units image and refreshImage have printed.
	prints int
}

// Mutated reports whether any program- or analysis-changing action
// has been applied since the session opened. Selection and navigation
// do not count.
func (s *Session) Mutated() bool { return s.mutated }

// Reanalysis describes one (re)analysis pass. Mode reports the rung — how
// far outside the edited statement anything had to be looked at, as reach
// answered it; the analyses never branch on it:
// "patch" (nowhere: a call-free statement no caller can see, spliced in
// statement-granularly), "unit" (the unit, against reused
// interprocedural facts), "program" (the interprocedural facts were
// rebuilt and the units whose inputs moved reanalyzed), or "full"
// (from-scratch whole-program analysis). On "unit" and "program" the
// edited unit itself is patched when it can be, analyzed whole
// otherwise. An undo reports the highest rung any unit it restored
// took, and "none" when the entry matched the program already.
type Reanalysis struct {
	Mode     string
	Duration time.Duration
}

// SessionStats counts user interactions, matching the actions the
// paper's evaluation reports (deleted dependences, assertions,
// reclassifications, transformations).
type SessionStats struct {
	DepsRejected      int
	DepsAccepted      int
	Assertions        int
	Reclassifications int
	Transformations   map[string]int
	Edits             int
	LoopsParallelized int
}

// Open parses src and builds a session with full analysis.
func Open(path, src string) (*Session, error) { return OpenObserved(path, src, 0, nil) }

// NewSession builds a session over an already-parsed file.
func NewSession(f *fortran.File) *Session { return newSession(f, 0, nil) }

func newSession(f *fortran.File, workers int, obs PhaseObserver) *Session {
	s := &Session{
		File:    f,
		Opts:    dep.DefaultOptions(),
		units:   map[*fortran.Unit]*UnitState{},
		Workers: workers,
		obs:     obs,
	}
	s.Stats.Transformations = map[string]int{}
	s.AnalyzeAll()
	if main := f.Main(); main != nil {
		s.current = main
	} else if len(f.Units) > 0 {
		s.current = f.Units[0]
	}
	return s
}

// AnalyzeAll (re)runs whole-program analysis: the interprocedural
// summaries, then spread with nothing kept — no estimator, and every unit
// stale — so a cold open takes the same rule as every edit, with an empty
// memo. A unit's data flow is solved once: the summary pass's solve is the
// unit's analysis, except on a recursion cycle and in a conservative
// session, whose per-unit inputs are not the summaries. It prints and
// prices nothing; a unit keeps its printed text when it has one, since
// nothing here moves it.
func (s *Session) AnalyzeAll() {
	start := time.Now()
	s.File.RenumberStmts()
	var prog *interproc.Program
	s.timed("interproc", func() { prog = interproc.AnalyzeProgram(s.File) })
	s.Prog, s.est = nil, nil
	s.spread(nil, prog, s.File.Units)
	s.LastReanalysis = Reanalysis{Mode: "full", Duration: time.Since(start)}
}

// newEstimator returns an empty cost memo over the session's call graph
// that prices each unit from the conservative constants of the unit's
// own analysis (dataflow.Analysis.ConservativeConstants) instead of
// solving them again — so a unit may be priced only while its analysis
// is as new as its text.
func (s *Session) newEstimator() *perf.Estimator {
	return &perf.Estimator{Params: perf.DefaultParams(), Graph: s.Prog.Graph,
		Constants: func(u *fortran.Unit) *dataflow.Analysis { return s.units[u].DF.ConservativeConstants() }}
}

// Estimator returns the session's performance estimator: its prices are
// those of the program as it stands, each unit priced the first time a
// price is asked after a change that moved it.
func (s *Session) Estimator() *perf.Estimator { return s.est }

// EstimateOf returns u's performance estimate — its loops in navigation
// order — pricing u the first time it is asked after a change moved its
// price or replaced its analysis. The estimate is of the program as it
// stands: spread drops every one a change moves.
func (s *Session) EstimateOf(u *fortran.Unit) *perf.UnitEstimate {
	st := s.units[u]
	if st.estimate == nil {
		s.timed("perf", func() { st.estimate = s.est.EstimateUnit(st.DF) })
	}
	return st.estimate
}

// Estimate returns the current unit's performance estimate (EstimateOf).
func (s *Session) Estimate() *perf.UnitEstimate { return s.EstimateOf(s.current) }

// timed runs f and reports its wall time to the session's observer as
// phase; a session without one reads no clock.
func (s *Session) timed(phase string, f func()) {
	if s.obs == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	s.obs.ObservePhase(phase, time.Since(t0))
}

// ReanalyzeUnit brings the analysis up to date after a mutation of unit
// u about which nothing more is known: update with no statement swap.
func (s *Session) ReanalyzeUnit(u *fortran.Unit) { s.update(u, stmtSwap{}) }

// stmtSwap is what a mutation knows it touched of a unit: statement old
// replaced 1:1 by ns; no statement at all, only a loop's annotations;
// or — the zero value — nothing: anything in the unit may have moved.
type stmtSwap struct {
	old, ns     fortran.Stmt
	annotations bool
}

// update is the one door from a mutation of unit u to the analyses:
// every edit, delete, transformation, assertion and undo brings its unit
// up to date through it, and it alone sets LastReanalysis. It prints u
// once, answers the two questions a change asks, in order, and hands the
// rest to spread; it returns the rung — its report of the first answer.
//
// How far outside the unit can the change be seen (reach, asked at most
// once): not at all when the text is what it was (an assertion: new
// inputs, same program) or only annotations moved; not at all — the
// "patch" rung — when one statement replaced another and neither calls a
// user procedure or touches a symbol a caller can see; otherwise "unit" or
// "program" as reach decides from the call surface and the summary.
//
// How the unit itself is brought up to date: statement by statement when
// swap is inside the envelope — ns spliced into the data-flow solution
// (dataflow.PatchStmt) and only the dependence edges incident to a
// statement whose references moved killed and their pairs retested
// (dep.Patch; on the program rung the call sites movedCalls names go with
// ns), or, when only annotations moved, nothing spliced at all — and
// whole otherwise, by spread. The envelope is whatever guarantees that a
// reference pair left alone would test as it did. A pair reads its two
// statements' accesses and loop nests, the constants at its source
// statement and at the headers of the loops around it, the unit's
// constant formals, and whether the scalars in its subscripts are
// assigned in the unit or in the common loop. So the step declines when
// the CFG or loop tree could move (a statement that is not simple, another
// label), when a name of the unit changed kind (Unit.DeriveKinds, run
// here first), when the unit's constant formals or recursion status
// moved, and when PatchStmt finds constants or a written-scalar set moved
// — all before anything lasting is modified; WholeUnitOnly declines
// always. A "patch" rung whose step declined asks reach after all.
func (s *Session) update(u *fortran.Unit, swap stmtSwap) string {
	start := time.Now()
	kindMoved := u.DeriveKinds()
	s.File.RenumberStmts()
	st := s.units[u]
	if st == nil || s.Prog == nil {
		s.AnalyzeAll()
		return "full"
	}
	// The one print of this change: whatever runs below carries the
	// refreshed image (and every other unit's untouched one) forward.
	moved := s.refreshImage(u)
	step := !s.WholeUnitOnly && !kindMoved &&
		(swap.annotations || swap.ns != nil && swappable(swap.old, swap.ns))
	mode, prog, patched := "unit", s.Prog, false
	switch {
	case !step:
		if moved {
			mode, prog, _ = s.reach(u, st)
		}
	case swap.annotations:
		patched = true // a statement step that splices nothing
	default:
		callSig := st.callSig
		if dataflow.CallsUser(swap.old) || dataflow.CallsUser(swap.ns) ||
			len(s.Prog.Graph.Callers[u]) > 0 && (touchesVisible(u, swap.old) || touchesVisible(u, swap.ns)) {
			mode, prog, callSig = s.reach(u, st)
		} else {
			mode = "patch"
		}
		if err := faultpoint.Hit(faultpoint.Analyze, s.File.Path+":"+u.Name); err != nil {
			panic(err)
		}
		if calls, ok := movedCalls(u, s.Prog, prog); ok {
			// ns is spliced in itself, not retested as a call site.
			calls = slices.DeleteFunc(calls, func(c fortran.Stmt) bool { return c == swap.ns })
			var t0 time.Time
			if s.obs != nil {
				t0 = time.Now()
			}
			eff, summ, env := s.unitInputs(u, st, prog)
			if patched = st.DF.PatchStmt(swap.old, swap.ns, eff, calls); patched {
				// Committed: the dataflow solution now describes ns.
				st.Deps = dep.Patch(st.Deps, st.DF, env, summ, s.Opts, swap.old, swap.ns, calls)
				st.restoreMarks()
				st.callSig = callSig
				if s.obs != nil {
					s.obs.ObservePhase("patch", time.Since(t0))
				}
			}
		}
		if !patched && mode == "patch" {
			mode, prog, _ = s.reach(u, st)
		}
	}
	var stale []*fortran.Unit
	if !patched {
		stale = append(stale, u)
	}
	s.spread(u, prog, stale)
	s.LastReanalysis = Reanalysis{Mode: mode, Duration: time.Since(start)}
	return mode
}

// swappable reports whether ns in old's place leaves the unit's CFG and
// loop tree standing: each is one node that falls through, under the
// same label (labels are control-flow targets).
func swappable(old, ns fortran.Stmt) bool {
	return fortran.StmtLabel(old) == fortran.StmtLabel(ns) && dataflow.SimpleStmt(old) && dataflow.SimpleStmt(ns)
}

// reach answers the first of the two questions an edit of u asks — how
// far outside the unit can it be seen — and names the rung after the
// answer: "program" when u's call surface moved (a call added, removed
// or retargeted, actuals edited) or its callers see another summary,
// with the interprocedural facts rebuilt; "unit" when neither did, with
// the facts in hand. A unit nobody calls has a summary nobody reads, so
// it is not compared, and neither is any in a conservative session,
// whose units read none; a moved call surface takes the program rung in
// every mode, since the estimator prices calls by the call graph.
// reach returns the call surface it compared and modifies nothing.
func (s *Session) reach(u *fortran.Unit, st *UnitState) (mode string, prog *interproc.Program, callSig string) {
	callSig = callSurfaceSig(u)
	if callSig != st.callSig || !s.Conservative && len(s.Prog.Graph.Callers[u]) > 0 &&
		!s.Prog.Resummarize(u).Equal(s.Prog.Summaries[u]) {
		return "program", interproc.UpdateProgram(s.Prog, map[*fortran.Unit]bool{u: true}), callSig
	}
	return "unit", s.Prog, callSig
}

// spread is the one reanalysis rule: every path that changes the
// analysis ends in it — the cold open (AnalyzeAll), every edit, assertion
// and transformation (update), and each unit an undo restores. It
// installs prog, then brings up to date everything a change of u reaches
// that the caller has not: the units in stale, analyzed whole, and every
// other unit whose analysis inputs moved with prog (movedCalls; u itself
// is the caller's, and a conservative session's units read nothing from
// prog), all on the worker pool with the summary pass's solves when prog
// has any. It prices nothing. With no estimator yet (a cold open) it
// builds an empty one. Otherwise u's price and its transitive callers',
// which embed it, are dropped from the cost memo (a unit whose call
// cycle the change moved reaches u, so it is among them), and so are
// those units' estimates; a unit just analyzed has a new state, which
// has none. Everything else keeps its unit state, graphs, marks,
// assertions, price and estimate.
func (s *Session) spread(u *fortran.Unit, prog *interproc.Program, stale []*fortran.Unit) {
	old := s.Prog
	s.Prog = prog
	if old != nil && old != prog && !s.Conservative {
		for _, v := range s.File.Units {
			if v == u {
				continue
			}
			if calls, ok := movedCalls(v, old, prog); !ok || len(calls) > 0 {
				stale = append(stale, v)
			}
		}
	}
	solved := prog.TakeAnalyses()
	if s.Conservative {
		solved = nil
	}
	for v, st := range s.analyzeUnits(stale, solved) {
		if s.units[v] == nil {
			s.progHash = "" // a unit of a new file: the program's text is new
		}
		s.units[v] = st
	}
	if s.est == nil {
		s.est = s.newEstimator()
		return
	}
	s.est.Graph = prog.Graph
	for v := range s.transitiveCallers(u) {
		s.est.Invalidate(v)
		s.units[v].estimate = nil
	}
}

// movedCalls compares what unit v's analysis reads from the program
// between from and to. ok is false when v's recursion status or constant
// formals moved; otherwise calls lists v's call sites, once each, whose
// callee has another summary object in to (UpdateProgram carries the
// pointer when the recomputed summary is Equal). An analysis of v under
// from stands under to exactly when ok and calls is empty.
func movedCalls(v *fortran.Unit, from, to *interproc.Program) (calls []fortran.Stmt, ok bool) {
	if to.Graph.Recursive[v] != from.Graph.Recursive[v] || !interproc.ConstFormalsEqual(to, from, v) {
		return nil, false
	}
	for _, site := range to.Graph.Calls[v] {
		if to.Summaries[site.Callee] != from.Summaries[site.Callee] &&
			(len(calls) == 0 || calls[len(calls)-1] != site.Stmt) {
			calls = append(calls, site.Stmt)
		}
	}
	return calls, true
}

// transitiveCallers returns u plus every unit that can reach it
// through calls.
func (s *Session) transitiveCallers(u *fortran.Unit) map[*fortran.Unit]bool {
	out := map[*fortran.Unit]bool{u: true}
	queue := []*fortran.Unit{u}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, site := range s.Prog.Graph.Callers[v] {
			if !out[site.Caller] {
				out[site.Caller] = true
				queue = append(queue, site.Caller)
			}
		}
	}
	return out
}

// callSurfaceSig fingerprints the unit's call surface: the full text
// of every statement that is a CALL or contains a resolved function
// invocation, in walk order. Edits that leave it unchanged cannot move
// the call graph or any other unit's constant formals.
func callSurfaceSig(u *fortran.Unit) string {
	var b strings.Builder
	fortran.WalkStmts(u.Body, func(st fortran.Stmt) bool {
		if dataflow.CallsUser(st) {
			b.WriteString(fortran.StmtText(st))
			b.WriteByte('\n')
		}
		return true
	})
	return b.String()
}

// analyzeUnit analyzes u's data flow and dependences from scratch,
// keeping prev's marks, assertions, classifications and source image —
// which the caller must have refreshed if u's AST changed and u was
// printed. It neither prints nor prices: a unit with no prev is left
// unprinted, and the new state has no estimate. A non-nil df is u's data
// flow already solved under the session's inputs, and is used as it
// stands.
func (s *Session) analyzeUnit(u *fortran.Unit, prev *UnitState, df *dataflow.Analysis) *UnitState {
	if err := faultpoint.Hit(faultpoint.Analyze, s.File.Path+":"+u.Name); err != nil {
		// Analysis has no error channel; an injected error surfaces
		// as a panic for the session-level recovery boundary.
		panic(err)
	}
	st := &UnitState{Unit: u, marks: map[depKey]dep.Mark{}, classes: map[string]VarClass{}}
	if prev != nil {
		st.marks = prev.marks
		st.assertions = prev.assertions
		st.classes = prev.classes
	}
	// Prune marks whose statements no longer exist. UIDs are never
	// reused, so a stale mark cannot attach to a different dependence;
	// pruning just keeps the map from growing across edits.
	if len(st.marks) > 0 {
		live := map[int]bool{}
		fortran.WalkStmts(u.Body, func(x fortran.Stmt) bool {
			live[x.UID()] = true
			return true
		})
		for k := range st.marks {
			if !live[k.srcUID] || !live[k.dstUID] {
				delete(st.marks, k)
			}
		}
	}
	eff, summ, env := s.unitInputs(u, st, s.Prog)
	st.DF = df
	if df == nil {
		s.timed("dataflow", func() { st.DF = dataflow.Analyze(u, eff) })
	}
	s.timed("dependence", func() { st.Deps = dep.Analyze(st.DF, env, summ, s.Opts) })
	st.restoreMarks()
	if prev != nil {
		st.unitImage = prev.unitImage
	}
	st.callSig = callSurfaceSig(u)
	return st
}

// unitInputs returns what u's data-flow and dependence analyses read from
// outside the unit: how calls resolve, the sections they touch, and the
// user's assertions with the unit's constant formals — all three from
// prog, or the conservative stand-ins.
func (s *Session) unitInputs(u *fortran.Unit, st *UnitState, prog *interproc.Program) (dataflow.SideEffects, dep.Summaries, *expr.Env) {
	env := s.assertionEnv(u, st.assertions)
	if s.Conservative {
		return dataflow.ConservativeEffects{}, nil, env
	}
	if ce := prog.ConstEnv(u); ce != nil {
		if env == nil {
			env = expr.NewEnv()
		}
		for _, sym := range ce.Symbols() {
			env.SetRange(sym, ce.RangeOf(sym))
		}
	}
	return &interproc.Effects{Prog: prog}, &interproc.SectionProvider{Prog: prog}, env
}

// restoreMarks puts the user's markings back on a freshly built or
// patched dependence graph.
func (st *UnitState) restoreMarks() {
	if len(st.marks) == 0 {
		return
	}
	for _, d := range st.Deps.Deps {
		if m, ok := st.marks[keyOf(d)]; ok {
			d.Mark = m
		}
	}
}

func (s *Session) assertionEnv(u *fortran.Unit, asserts []Assertion) *expr.Env {
	if len(asserts) == 0 {
		return nil
	}
	env := expr.NewEnv()
	for _, a := range asserts {
		sym := u.Lookup(a.Var)
		if sym == nil {
			continue
		}
		switch a.Rel {
		case ".eq.":
			env.SetValue(sym, a.Val)
		case ".ge.":
			env.SetRange(sym, expr.AtLeast(a.Val))
		case ".gt.":
			env.SetRange(sym, expr.AtLeast(a.Val+1))
		case ".le.":
			env.SetRange(sym, expr.AtMost(a.Val))
		case ".lt.":
			env.SetRange(sym, expr.AtMost(a.Val-1))
		}
	}
	return env
}

func (s *Session) log(format string, args ...interface{}) {
	s.History = append(s.History, fmt.Sprintf(format, args...))
}

// ---------------------------------------------------------------------------
// Selection and navigation

// CurrentUnit returns the unit being edited.
func (s *Session) CurrentUnit() *fortran.Unit { return s.current }

// State returns the current unit's analysis state.
func (s *Session) State() *UnitState { return s.units[s.current] }

// StateOf returns a specific unit's analysis state.
func (s *Session) StateOf(u *fortran.Unit) *UnitState { return s.units[u] }

// SelectUnit switches the source pane to another program unit.
func (s *Session) SelectUnit(name string) error {
	u := s.File.Unit(strings.ToLower(name))
	if u == nil {
		return fmt.Errorf("no unit named %s", name)
	}
	s.current = u
	s.selected = nil
	s.log("select unit %s", name)
	return nil
}

// Loops lists the current unit's loops in source order.
func (s *Session) Loops() []*cfg.Loop {
	return s.State().DF.Tree.All
}

// SelectLoop selects the nth loop (1-based, source order) of the
// current unit for the dependence and variable panes.
func (s *Session) SelectLoop(n int) error {
	loops := s.Loops()
	if n < 1 || n > len(loops) {
		return fmt.Errorf("loop %d out of range (unit has %d)", n, len(loops))
	}
	s.selected = loops[n-1].Do
	s.log("select loop %d (do %s, line %d)", n, s.selected.Var.Name, s.selected.Line())
	return nil
}

// SelectedLoop returns the selected loop, or nil.
func (s *Session) SelectedLoop() *cfg.Loop {
	if s.selected == nil {
		return nil
	}
	return s.State().DF.Tree.LoopOf(s.selected)
}

// NextByPerformance selects the most expensive not-yet-parallel loop,
// the estimator-guided navigation the users requested.
func (s *Session) NextByPerformance() (*cfg.Loop, bool) {
	for _, le := range s.Estimate().Loops {
		if !le.Loop.Do.Parallel {
			s.selected = le.Loop.Do
			s.log("navigate to do %s (line %d): %.0f%% of unit time",
				le.Loop.Header().Name, le.Loop.Do.Line(), le.Fraction*100)
			return le.Loop, true
		}
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Dependence pane

// DepInfo is one row of the dependence pane: a dependence of the
// selected loop as the pane prints it and as its filters read it. Rows
// are the pane's one form — the REPL renders them, pedd's typed deps
// route answers them, and its analysis cache keeps them per loop.
type DepInfo struct {
	ID      int    `json:"id"`
	Class   string `json:"class"`
	Sym     string `json:"sym"`
	Dir     string `json:"dir"`
	Level   int    `json:"level"`
	SrcStmt int    `json:"src_stmt"`
	DstStmt int    `json:"dst_stmt"`
	SrcLine int    `json:"src_line"`
	DstLine int    `json:"dst_line"`
	Mark    string `json:"mark"`
	Reason  string `json:"reason,omitempty"`
	// Private reports that the panes class the variable other than
	// shared for the selected loop (privatizable, reduction, or
	// induction) — the hideprivate filter drops these.
	Private bool `json:"private"`
}

// DepFilter selects which dependences the pane shows — Ped's view
// filtering applied to the dependence list.
type DepFilter struct {
	// Classes limits to the given classes when non-empty.
	Classes []dep.Class
	// Sym limits to dependences on the named variable, in any case.
	Sym string
	// CarriedOnly hides loop-independent dependences.
	CarriedOnly bool
	// HideRejected hides dependences the user rejected.
	HideRejected bool
	// HidePrivate hides dependences on privatizable scalars and
	// recognized reductions.
	HidePrivate bool
}

// shows reports whether the pane shows row r under f: the one
// predicate of the dependence pane, for a live session and for rows
// kept by a cache alike.
func (f DepFilter) shows(r *DepInfo) bool {
	if f.CarriedOnly && r.Level == 0 || f.HideRejected && r.Mark == dep.MarkRejected.String() ||
		f.HidePrivate && r.Private || f.Sym != "" && !strings.EqualFold(r.Sym, f.Sym) {
		return false
	}
	for _, c := range f.Classes {
		if r.Class == c.String() {
			return true
		}
	}
	return len(f.Classes) == 0
}

// Filter returns the rows f shows, in order — never nil, so an empty
// pane is an empty list on the wire too.
func (f DepFilter) Filter(rows []DepInfo) []DepInfo {
	out := []DepInfo{}
	for i := range rows {
		if f.shows(&rows[i]) {
			out = append(out, rows[i])
		}
	}
	return out
}

// SelectionDeps returns the dependences of the selected loop that the
// pane shows under f, in ID order.
func (s *Session) SelectionDeps(f DepFilter) []*dep.Dependence {
	deps, rows, _ := s.depInfos(false)
	var out []*dep.Dependence
	for i := range rows {
		if f.shows(&rows[i]) {
			out = append(out, deps[i])
		}
	}
	return out
}

// DepRows returns the selected loop's dependence pane, unfiltered, one
// row per dependence in ID order; nil when no loop is selected.
func (s *Session) DepRows() []DepInfo {
	_, rows, _ := s.depInfos(false)
	return rows
}

// LoopPanes returns the selected loop's dependence rows and variable
// rows from one verdict, each variable classed once for both; nil, nil
// when no loop is selected.
func (s *Session) LoopPanes() ([]DepInfo, []VarInfo) {
	_, rows, vars := s.depInfos(true)
	return rows, vars
}

// depInfos is the one row builder: the selected loop's dependences in
// ID order and the pane row of each, and when withVars the variable
// pane's rows, classed alike. All nil when no loop is selected.
func (s *Session) depInfos(withVars bool) (deps []*dep.Dependence, rows []DepInfo, vars []VarInfo) {
	l := s.SelectedLoop()
	if l == nil {
		return nil, nil, nil
	}
	classOf := s.classOf(l)
	if withVars {
		vars = s.varInfos(l, classOf)
	}
	deps = append(deps, s.State().Deps.LoopDeps(l)...)
	slices.SortFunc(deps, func(a, b *dep.Dependence) int { return a.ID - b.ID })
	rows = make([]DepInfo, len(deps))
	for i, d := range deps {
		rows[i] = DepInfo{
			ID:      d.ID,
			Class:   d.Class.String(),
			Sym:     d.Sym.Name,
			Dir:     d.DirString(),
			Level:   d.Level,
			SrcStmt: d.Src.ID(),
			DstStmt: d.Dst.ID(),
			SrcLine: d.Src.Line(),
			DstLine: d.Dst.Line(),
			Mark:    d.Mark.String(),
			Reason:  d.Reason,
			Private: classOf(d.Sym) != ClassShared,
		}
	}
	return deps, rows, vars
}

// MarkDep records the user's judgement on a dependence: accepted
// confirms it, rejected removes it from safety decisions (dependence
// deletion). Proven dependences cannot be rejected.
func (s *Session) MarkDep(id int, m dep.Mark) error {
	st := s.State()
	d := st.Deps.DepByID(id)
	if d == nil {
		return fmt.Errorf("no dependence %d", id)
	}
	if d.Mark == dep.MarkProven && m == dep.MarkRejected {
		return fmt.Errorf("dependence %d was proven by an exact test; it cannot be rejected", id)
	}
	d.Mark = m
	st.marks[keyOf(d)] = m
	s.mutated = true
	switch m {
	case dep.MarkRejected:
		s.Stats.DepsRejected++
	case dep.MarkAccepted:
		s.Stats.DepsAccepted++
	}
	s.log("mark dependence %d (%s on %s) %s", id, d.Class, d.Sym.Name, m)
	return nil
}

// Endpoint describes one end of a dependence for navigation. When
// the endpoint is a call statement, CalleeRefs lists the statements
// inside the callee that access the variable, so the user can follow
// the dependence across the procedure boundary (the paper: "Ped must
// be able to display other procedures while iterating over all the
// endpoints corresponding to a dependence").
type Endpoint struct {
	Stmt fortran.Stmt
	Line int
	Text string
	// CalleeRefs is non-empty when Stmt is a call whose side effects
	// produced the dependence endpoint.
	CalleeRefs []CalleeRef
}

// CalleeRef is one access inside a called procedure.
type CalleeRef struct {
	Unit *fortran.Unit
	Stmt fortran.Stmt
	Line int
	Text string
}

// DepEndpoints resolves both ends of a dependence, following call
// statements into their callees.
func (s *Session) DepEndpoints(id int) (src, dst Endpoint, err error) {
	st := s.State()
	d := st.Deps.DepByID(id)
	if d == nil {
		return Endpoint{}, Endpoint{}, fmt.Errorf("no dependence %d", id)
	}
	return s.endpoint(d.Src, d.Sym), s.endpoint(d.Dst, d.Sym), nil
}

func (s *Session) endpoint(stmt fortran.Stmt, sym *fortran.Symbol) Endpoint {
	ep := Endpoint{Stmt: stmt, Line: stmt.Line(), Text: fortran.StmtText(stmt)}
	call, ok := stmt.(*fortran.CallStmt)
	if !ok || call.Callee == nil {
		return ep
	}
	// Map the caller-side symbol to the callee-side one: through the
	// argument binding or a shared COMMON block.
	callee := call.Callee
	var target *fortran.Symbol
	for i, formal := range callee.Args {
		if i >= len(call.Args) {
			break
		}
		if vr, ok := call.Args[i].(*fortran.VarRef); ok && vr.Sym == sym {
			target = formal
		}
	}
	if target == nil && sym.Common != "" {
		if cs := callee.Lookup(sym.Name); cs != nil && cs.Common == sym.Common {
			target = cs
		}
	}
	if target == nil {
		return ep
	}
	fortran.WalkStmts(callee.Body, func(x fortran.Stmt) bool {
		refs := false
		fortran.WalkExprs(x, func(e fortran.Expr) {
			if vr, ok := e.(*fortran.VarRef); ok && vr.Sym == target {
				refs = true
			}
		})
		if as, ok := x.(*fortran.AssignStmt); ok && as.Lhs.Sym == target {
			refs = true
		}
		if refs {
			ep.CalleeRefs = append(ep.CalleeRefs, CalleeRef{
				Unit: callee, Stmt: x, Line: x.Line(), Text: fortran.StmtText(x),
			})
		}
		return true
	})
	return ep
}

// ---------------------------------------------------------------------------
// Assertions and variable classification

// Assert records a fact about an integer variable ("n .ge. 100") and
// reanalyzes the unit with the sharpened environment.
func (s *Session) Assert(text string) error {
	a, err := parseAssertion(text)
	if err != nil {
		return err
	}
	u := s.current
	if u.Lookup(a.Var) == nil {
		return fmt.Errorf("no variable %s in %s", a.Var, u.Name)
	}
	st := s.State()
	st.assertions = append(st.assertions, a)
	s.Stats.Assertions++
	s.mutated = true
	s.log("assert %s", a)
	s.ReanalyzeUnit(u)
	return nil
}

func parseAssertion(text string) (Assertion, error) {
	fields := strings.Fields(strings.ToLower(text))
	if len(fields) != 3 {
		return Assertion{}, fmt.Errorf("assertion must be `var .rel. value`, got %q", text)
	}
	rel := fields[1]
	switch rel {
	case ".eq.", ".ge.", ".le.", ".gt.", ".lt.":
	case "=", "==":
		rel = ".eq."
	case ">=":
		rel = ".ge."
	case "<=":
		rel = ".le."
	case ">":
		rel = ".gt."
	case "<":
		rel = ".lt."
	default:
		return Assertion{}, fmt.Errorf("unknown relation %q", rel)
	}
	var val int64
	if _, err := fmt.Sscanf(fields[2], "%d", &val); err != nil {
		return Assertion{}, fmt.Errorf("assertion value must be an integer: %v", err)
	}
	return Assertion{Var: fields[0], Rel: rel, Val: val}, nil
}

// Assertions lists the current unit's assertions.
func (s *Session) Assertions() []Assertion { return s.State().assertions }

// Doall is the parallelization verdict of loop l of the current unit:
// what check parallelize decides from, and what the guidance, the
// variable pane, the hideprivate filter and a plan's decisions read.
func (s *Session) Doall(l *cfg.Loop) xform.Doall {
	st := s.State()
	return xform.DoallOf(st.DF, st.Deps, l.Do)
}

// classOf gives the classification the panes show for each variable of
// loop l: the user's override first, then the loop's verdict, decided
// once per variable however many rows ask. The override reaches the
// panes and their filters only — the safety decision stays the
// analysis's and the dependence marks'.
func (s *Session) classOf(l *cfg.Loop) func(*fortran.Symbol) VarClass {
	verdict, overrides := s.Doall(l), s.State().classes
	decided := map[*fortran.Symbol]VarClass{}
	return func(sym *fortran.Symbol) VarClass {
		if c, ok := overrides[sym.Name]; ok {
			return c
		}
		c, ok := decided[sym]
		if !ok {
			c = basisClass[verdict.Basis(sym)]
			decided[sym] = c
		}
		return c
	}
}

// basisClass is the class a pane shows for each basis of the verdict.
var basisClass = [...]VarClass{xform.Shared: ClassShared, xform.LastValue: ClassShared,
	xform.Private: ClassPrivate, xform.Reduction: ClassReduction, xform.Induction: ClassInduction}

// Classify overrides a variable's classification for parallelization
// (the user "reclassification" action from the evaluation).
func (s *Session) Classify(varName string, c VarClass) error {
	sym := s.current.Lookup(strings.ToLower(varName))
	if sym == nil {
		return fmt.Errorf("no variable %s", varName)
	}
	s.State().classes[sym.Name] = c
	s.Stats.Reclassifications++
	s.mutated = true
	s.log("classify %s %s", sym.Name, c)
	return nil
}

// VarInfo is one row of the variable pane.
type VarInfo struct {
	Sym          *fortran.Symbol
	Class        VarClass
	Privatizable bool
	PrivReason   string
	LiveOut      bool
	DepCount     int
}

// VariablePane summarizes every variable accessed in the selected
// loop.
func (s *Session) VariablePane() []VarInfo {
	_, vars := s.LoopPanes()
	return vars
}

// varInfos builds the variable pane's rows of loop l.
func (s *Session) varInfos(l *cfg.Loop, classOf func(*fortran.Symbol) VarClass) []VarInfo {
	st := s.State()
	seen := map[*fortran.Symbol]bool{}
	var syms []*fortran.Symbol
	for _, stmt := range l.Stmts() {
		for _, ac := range st.DF.Accesses(stmt) {
			if !seen[ac.Sym] {
				seen[ac.Sym] = true
				syms = append(syms, ac.Sym)
			}
		}
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i].Name < syms[j].Name })
	depCount := map[*fortran.Symbol]int{}
	for _, d := range st.Deps.LoopDeps(l) {
		depCount[d.Sym]++
	}
	var out []VarInfo
	for _, sym := range syms {
		info := VarInfo{Sym: sym, Class: classOf(sym), DepCount: depCount[sym]}
		if sym.Kind == fortran.SymScalar {
			res := st.DF.Privatizable(l, sym)
			info.Privatizable = res.Privatizable
			info.PrivReason = res.Reason
			info.LiveOut = st.DF.LiveOutOfLoop(l, sym)
		}
		out = append(out, info)
	}
	return out
}

// ---------------------------------------------------------------------------
// Transformations (power steering)

// Check diagnoses a transformation without applying it.
func (s *Session) Check(t xform.Transformation) xform.Verdict {
	return t.Check(s.xformContext())
}

// Transform checks and applies a transformation, reanalyzing and
// recording undo state. Rejected dependences stay out of the safety
// decision (the user has overruled the analysis).
func (s *Session) Transform(t xform.Transformation) (xform.Verdict, error) {
	if err := faultpoint.Hit(faultpoint.Transform, s.File.Path+":"+t.Name()); err != nil {
		return xform.Verdict{}, err
	}
	ctx := s.xformContext()
	v := t.Check(ctx)
	if !v.OK() {
		return v, fmt.Errorf("%s: %s", t.Name(), v)
	}
	row := xform.RowOf(t)
	s.pushUndo()
	var uids []int
	if row.AnnotatesOnly {
		s.undoStack[len(s.undoStack)-1].annots = s.saveAnnotations()
	} else if len(s.State().marks) > 0 {
		uids = stmtUIDs(s.current)
	}
	if err := t.Apply(ctx); err != nil {
		// Apply may have rewritten the unit part-way: put it back as the
		// entry just pushed has it.
		s.undoFailed(uids)
		return v, err
	}
	s.mutated = true
	s.Stats.Transformations[t.Name()]++
	if row.Parallelizes {
		s.Stats.LoopsParallelized++
	}
	s.log("apply %s: %s", t.Name(), v)
	if row.AnnotatesOnly {
		// No reference, statement or CFG node moved: the swap with no
		// statement. The text did change, and so may what the unit costs
		// its callers.
		s.update(s.current, stmtSwap{annotations: true})
	} else {
		s.update(s.current, stmtSwap{})
	}
	return v, nil
}

func (s *Session) xformContext() *xform.Context {
	st := s.State()
	ctx := &xform.Context{
		File: s.File, Unit: s.current,
		DF: st.DF, Deps: st.Deps,
		Assertions: s.assertionEnv(s.current, st.assertions),
		Opts:       s.Opts,
		Est:        s.est,
	}
	if s.Conservative {
		ctx.Effects = dataflow.ConservativeEffects{}
	} else {
		ctx.Effects = &interproc.Effects{Prog: s.Prog}
		ctx.Summaries = &interproc.SectionProvider{Prog: s.Prog}
	}
	return ctx
}

// ---------------------------------------------------------------------------
// Editing

// EditStmt replaces the statement with the given ID by newly parsed
// text (which may be a whole block), then incrementally reanalyzes
// the containing unit.
func (s *Session) EditStmt(id int, text string) error {
	old := s.File.StmtByID(id)
	if old == nil {
		return fmt.Errorf("no statement %d", id)
	}
	u := s.current
	syms := len(u.Syms)
	ns, err := fortran.ParseStmtIn(s.File, u, text)
	// Resolving the text's names declares them in the unit's symbol
	// table even when the parse then fails, and the declarations print.
	// The image follows at once: no reanalysis comes after a rejected
	// edit, and an accepted edit's undo entry has always carried the
	// names its text introduced — journals written that way must keep
	// replaying onto the same hashes. A parse moves no name's kind
	// (update's DeriveKinds does), so it can move what prints only by
	// adding a symbol; otherwise the image is current, and update's
	// print is the edit's one.
	if len(u.Syms) != syms {
		s.refreshImage(u)
	}
	if err != nil {
		return fmt.Errorf("parse error: %v", err)
	}
	s.pushUndo()
	if !xform.ReplaceStmt(u, old, ns) {
		s.undoStack = s.undoStack[:len(s.undoStack)-1]
		return fmt.Errorf("statement %d is not in unit %s", id, u.Name)
	}
	s.Stats.Edits++
	s.mutated = true
	s.log("edit stmt %d: %s", id, strings.TrimSpace(text))
	s.update(u, stmtSwap{old: old, ns: ns})
	return nil
}

// refreshImage reprints u into its existing state — for a change to the
// unit's text that leaves its analysis standing — and reports whether
// the text moved. An unprinted unit is the text it was parsed from
// (UnitState): its print is stored and reports no move, and there is no
// hash to drop, since SourceHash prints every unit.
func (s *Session) refreshImage(u *fortran.Unit) bool {
	st := s.units[u]
	img := imageOf(u)
	s.prints++
	was := st.unitImage
	st.unitImage = img
	if was == (unitImage{}) || was == img {
		return false
	}
	s.progHash = ""
	return true
}

// image returns u's printed text, printing u the first time it is asked:
// the one way to read a unit's text.
func (s *Session) image(u *fortran.Unit) unitImage {
	st := s.units[u]
	if st.unitImage == (unitImage{}) {
		st.unitImage = imageOf(u)
		s.prints++
	}
	return st.unitImage
}

// touchesVisible reports whether the statement accesses any symbol a
// caller can see (a dummy argument or COMMON member).
func touchesVisible(u *fortran.Unit, st fortran.Stmt) bool {
	for _, ac := range dataflow.StmtAccesses(u, st, dataflow.ConservativeEffects{}) {
		if ac.Sym.Dummy || ac.Sym.Common != "" {
			return true
		}
	}
	return false
}

// DeleteStmt removes a statement.
func (s *Session) DeleteStmt(id int) error {
	old := s.File.StmtByID(id)
	if old == nil {
		return fmt.Errorf("no statement %d", id)
	}
	s.pushUndo()
	if !xform.ReplaceStmt(s.current, old) {
		s.undoStack = s.undoStack[:len(s.undoStack)-1]
		return fmt.Errorf("statement %d is not in unit %s", id, s.current.Name)
	}
	s.Stats.Edits++
	s.mutated = true
	s.log("delete stmt %d", id)
	s.update(s.current, stmtSwap{})
	return nil
}

// ---------------------------------------------------------------------------
// Undo and persistence

// undoEntry is one program state Undo can return to: the source image
// as it was, unit by unit. A unit the next action left alone shares its
// text with the live image and with the entries around it, so an entry
// costs the edited unit's text, not the program's. An entry planted by
// SetUndoStack is a whole program's text until Undo splits it.
type undoEntry struct {
	units []unitImage
	text  string // planted and not yet split; units is nil
	// annots is pushed with an annotation-only transformation: the
	// annotations its unit's loops had, which Undo puts back in place of
	// parsing the unit from its text.
	annots *annotations
}

// annotations is what an annotation-only transformation may write in
// one unit: every loop's Parallel, Private and Reductions.
type annotations struct {
	unit  *fortran.Unit
	loops []loopAnnotations
}

type loopAnnotations struct {
	do         *fortran.DoStmt
	parallel   bool
	private    []*fortran.Symbol
	reductions []fortran.Reduction
}

// saveAnnotations records the current unit's loop annotations.
func (s *Session) saveAnnotations() *annotations {
	a := &annotations{unit: s.current}
	for _, l := range s.Loops() {
		a.loops = append(a.loops, loopAnnotations{l.Do, l.Do.Parallel, l.Do.Private, l.Do.Reductions})
	}
	return a
}

// swap exchanges the recorded annotations with the live ones: once puts
// the recorded ones back, twice leaves the unit as it was.
func (a *annotations) swap() {
	for i := range a.loops {
		l := &a.loops[i]
		l.parallel, l.do.Parallel = l.do.Parallel, l.parallel
		l.private, l.do.Private = l.do.Private, l.private
		l.reductions, l.do.Reductions = l.do.Reductions, l.reductions
	}
}

// restores reports whether putting the recorded annotations back gives
// the unit the text img. It does not when anything else moved since —
// a rejected edit declares the names it typed — and then the unit is
// parsed back from the text like any other.
func (a *annotations) restores(img unitImage) bool {
	a.swap()
	defer a.swap()
	return imageOf(a.unit) == img
}

// source renders the entry as fortran.Print lays a program out.
func (e undoEntry) source() string {
	if e.units == nil {
		return e.text
	}
	n := len(e.units)
	for _, img := range e.units {
		n += len(img.text)
	}
	var b strings.Builder
	b.Grow(n)
	for i, img := range e.units {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(img.text)
	}
	return b.String()
}

// pushUndo records the program as it stands, printing every unit not yet
// printed: the first mutation of a session prints the whole program once.
func (s *Session) pushUndo() {
	units := make([]unitImage, len(s.File.Units))
	for i, u := range s.File.Units {
		units[i] = s.image(u)
	}
	s.undoStack = append(s.undoStack, undoEntry{units: units})
}

// Undo restores the program to its state before the last
// transformation or edit, and leaves the session as Open of that text
// would: the units whose text differs are parsed back from the entry,
// in place, and each re-enters the reanalysis ladder as an edit of it
// would, except that a unit an annotation-only transformation changed
// gets its loops' annotations back on the same statements and
// re-enters update with the swap the transformation did; marks,
// assertions and classifications are dropped everywhere (units that
// carried any are reanalyzed without them) and the selection is
// cleared. What separates the result from a fresh Open is
// what separates any edited session from one: a patched graph numbers
// its edges and counts its tests differently, and untouched units keep
// their statements' line numbers.
//
// Only an entry whose units are not the live ones — other names, kinds,
// formals or order, which no action pushes and only SetUndoStack can
// plant — replaces the file and analyzes everything. A failed undo
// changes nothing.
func (s *Session) Undo() error {
	if len(s.undoStack) == 0 {
		return fmt.Errorf("nothing to undo")
	}
	start := time.Now()
	entry := s.undoStack[len(s.undoStack)-1]
	if entry.units == nil {
		f, err := fortran.Parse(s.File.Path, entry.text)
		if err != nil {
			return fmt.Errorf("undo reparse failed: %v", err)
		}
		for _, u := range f.Units {
			entry.units = append(entry.units, imageOf(u))
		}
		if !s.sameUnits(entry.units) {
			s.undoStack = s.undoStack[:len(s.undoStack)-1]
			name := ""
			if s.current != nil {
				name = s.current.Name
			}
			s.File, s.units = f, map[*fortran.Unit]*UnitState{}
			s.AnalyzeAll()
			if u := f.Unit(name); u != nil {
				s.current = u
			} else if main := f.Main(); main != nil {
				s.current = main
			}
			s.finishUndo()
			return nil
		}
	}

	// Parse every unit that differs before touching any: a text that
	// does not parse must leave the session as it was.
	var differing []restore
	line := 1
	for i, u := range s.File.Units {
		img, live := entry.units[i], s.image(u)
		if img != live {
			r := restore{u: u}
			if a := entry.annots; a != nil && a.unit == u && a.restores(img) {
				r.annots = a
			} else {
				parsed, err := s.File.ParseUnit(img.text, line)
				if err != nil {
					return fmt.Errorf("undo reparse failed: unit %s: %v", u.Name, err)
				}
				r.parsed = parsed
				if k := soleDifferingLine(live.text, img.text); k > 0 {
					r.edited = line + k - 1
				}
			}
			differing = append(differing, r)
		}
		line += strings.Count(img.text, "\n") + 1
	}
	s.undoStack = s.undoStack[:len(s.undoStack)-1]

	// User state goes first, so no rung below analyzes with it; a unit
	// that analysis had seen it in is stale until reanalyzed.
	stale := map[*fortran.Unit]*UnitState{}
	for u, st := range s.units {
		if len(st.marks)+len(st.assertions)+len(st.classes) == 0 {
			continue
		}
		if len(st.marks)+len(st.assertions) > 0 {
			stale[u] = st
		}
		st.marks, st.assertions, st.classes = map[depKey]dep.Mark{}, nil, map[string]VarClass{}
	}
	mode := "none"
	took := func(m string) {
		if reanalysisRank[m] > reanalysisRank[mode] {
			mode = m
		}
	}
	for _, r := range differing {
		took(s.restoreUnit(r, stale[r.u] == nil))
	}
	for _, u := range s.File.Units {
		// A program rung above may have reanalyzed it already.
		if st := stale[u]; st != nil && s.units[u] == st {
			took(s.update(u, stmtSwap{}))
		}
	}
	s.LastReanalysis = Reanalysis{Mode: mode, Duration: time.Since(start)}
	s.finishUndo()
	return nil
}

// reanalysisRank orders the rungs of the reanalysis ladder.
var reanalysisRank = map[string]int{"none": 0, "patch": 1, "unit": 2, "program": 3, "full": 4}

func (s *Session) finishUndo() {
	s.selected = nil
	s.mutated = true
	s.log("undo")
}

// sameUnits reports whether the images are of the live file's units:
// as many, each under the header line — kind, name, formals — the live
// one has.
func (s *Session) sameUnits(images []unitImage) bool {
	if len(images) != len(s.File.Units) {
		return false
	}
	header := func(text string) string {
		line, _, _ := strings.Cut(text, "\n")
		return line
	}
	for i, u := range s.File.Units {
		if header(images[i].text) != header(s.image(u).text) {
			return false
		}
	}
	return true
}

// restore is one unit an undo entry gives back: its recorded loop
// annotations, or the unit parsed from the entry's text.
type restore struct {
	u, parsed *fortran.Unit
	annots    *annotations
	// edited is the line, in the entry's whole text, of the only line in
	// which the unit's two texts differ; 0 when more do.
	edited int
}

// restoreUnit gives r.u back and brings the analysis up to date the way
// the change it undoes did: annotations go back by the same swap the
// transformation made. A parsed unit goes in the way an edit of u would:
// when the entry's text differs from u's in the one line edited and that
// line is a statement the CFG can take in the old one's place, only the
// statement is swapped into the live body — whose analysis update may
// then build on — and update told so; otherwise the parsed body goes in.
// patchable is false when the analysis in hand is not one a
// statement-granular step may build on. It returns the rung taken.
func (s *Session) restoreUnit(r restore, patchable bool) string {
	u, parsed, edited := r.u, r.parsed, r.edited
	if r.annots != nil {
		r.annots.swap()
		return s.update(u, stmtSwap{annotations: true})
	}
	live := u.Body
	u.Adopt(parsed)
	if edited > 0 && patchable {
		if n, ns := stmtAtLine(parsed.Body, edited); ns != nil {
			if old := nthStmt(live, n); old != nil && swappable(old, ns) {
				u.Body = live
				xform.ReplaceStmt(u, old, ns)
				return s.update(u, stmtSwap{old: old, ns: ns})
			}
		}
	}
	return s.update(u, stmtSwap{})
}

// undoFailed pops the entry a failed Transform pushed and gives the
// current unit — the only one a transformation rewrites — back its state
// at the push: its loops' annotations, after an annotation-only step;
// after any other, which may have rewritten the unit part-way, the unit
// parsed from the entry and analyzed whole. uids lists the unit's
// statement UIDs at the push in walk order when it had marks, which move
// to the parsed statements.
func (s *Session) undoFailed(uids []int) {
	entry := s.undoStack[len(s.undoStack)-1]
	s.undoStack = s.undoStack[:len(s.undoStack)-1]
	u := s.current
	if entry.annots != nil {
		entry.annots.swap()
		s.update(u, stmtSwap{annotations: true})
		return
	}
	line, i := 1, 0
	for ; s.File.Units[i] != u; i++ {
		line += strings.Count(entry.units[i].text, "\n") + 1
	}
	parsed, err := s.File.ParseUnit(entry.units[i].text, line)
	if err != nil {
		// A unit's printed text parses; should it not, the unit stays as
		// Apply left it, reanalyzed.
		s.update(u, stmtSwap{})
		return
	}
	u.Adopt(parsed)
	s.File.RenumberStmts()
	if now := stmtUIDs(u); len(uids) > 0 && len(now) == len(uids) {
		at := make(map[int]int, len(uids))
		for i, id := range uids {
			at[id] = now[i]
		}
		st := s.units[u]
		moved := make(map[depKey]dep.Mark, len(st.marks))
		for k, m := range st.marks {
			k.srcUID, k.dstUID = at[k.srcUID], at[k.dstUID]
			moved[k] = m
		}
		st.marks = moved
	}
	s.update(u, stmtSwap{})
}

// stmtUIDs lists u's statement UIDs in walk order.
func stmtUIDs(u *fortran.Unit) []int {
	var out []int
	fortran.WalkStmts(u.Body, func(st fortran.Stmt) bool {
		out = append(out, st.UID())
		return true
	})
	return out
}

// soleDifferingLine returns the 1-based number of the only line in
// which two texts of equally many lines differ, 0 otherwise.
func soleDifferingLine(a, b string) int {
	at := 0
	for n := 1; a != "" || b != ""; n++ {
		la, ra, _ := strings.Cut(a, "\n")
		lb, rb, _ := strings.Cut(b, "\n")
		if (ra == "") != (rb == "") {
			return 0
		}
		if la != lb {
			if at != 0 {
				return 0
			}
			at = n
		}
		a, b = ra, rb
	}
	return at
}

// stmtAtLine returns the first statement of body, in walk order, that
// starts on the line, with its index in that order.
func stmtAtLine(body []fortran.Stmt, line int) (int, fortran.Stmt) {
	n, at := 0, -1
	var found fortran.Stmt
	fortran.WalkStmts(body, func(st fortran.Stmt) bool {
		if found == nil && st.Line() == line {
			found, at = st, n
		}
		n++
		return found == nil
	})
	return at, found
}

// nthStmt returns the statement at index n of body's walk order.
func nthStmt(body []fortran.Stmt, n int) fortran.Stmt {
	var found fortran.Stmt
	fortran.WalkStmts(body, func(st fortran.Stmt) bool {
		if n == 0 {
			found = st
		}
		n--
		return n >= 0
	})
	return found
}

// Save returns the current program text: fortran.Print(s.File), byte
// for byte, joined from the source image rather than printed. A unit
// not yet printed is printed here, once (image); every AST mutation is
// preceded by pushUndo, which prints every unit, and ends in a refresh
// of the image (update, or refreshImage from EditStmt's parse) before
// returning, so no caller sees a stale text.
func (s *Session) Save() string {
	n := len(s.File.Units)
	for _, u := range s.File.Units {
		n += len(s.image(u).text)
	}
	var b strings.Builder
	b.Grow(n)
	s.writeSource(&b)
	return b.String()
}

// SourceHash returns the hex sha256 of Save() — the fingerprint the
// server's journal integrity chain and the planner's hash chains
// carry. It is memoized until a unit's text is next replaced, and
// streams the per-unit texts, so an unchanged program costs nothing
// and a changed one is hashed without being joined.
func (s *Session) SourceHash() string {
	if s.progHash == "" {
		h := sha256.New()
		s.writeSource(h)
		s.progHash = hex.EncodeToString(h.Sum(nil))
	}
	return s.progHash
}

// CheckSourceImage holds the source image to its reference: Save must
// equal fortran.Print of the AST as it is now, and SourceHash the
// sha256 of that text. The tests call it after every operation; nil
// means the image is true.
func (s *Session) CheckSourceImage() error {
	want := fortran.Print(s.File)
	if got := s.Save(); got != want {
		return fmt.Errorf("stale source image: Save() differs from fortran.Print(File)\n--- Save ---\n%s--- Print ---\n%s", got, want)
	}
	sum := sha256.Sum256([]byte(want))
	if got := s.SourceHash(); got != hex.EncodeToString(sum[:]) {
		return fmt.Errorf("stale source hash: SourceHash() %.12s…, sha256(Save()) %.12s…", got, hex.EncodeToString(sum[:]))
	}
	return nil
}

// writeSource streams the source image in fortran.Print's layout.
func (s *Session) writeSource(w io.Writer) {
	for i, u := range s.File.Units {
		if i > 0 {
			io.WriteString(w, "\n")
		}
		io.WriteString(w, s.image(u).text)
	}
}

// UndoStack returns the printed sources Undo can revert to, oldest
// first. The server's durability snapshots persist it so undo still
// works on a session rebuilt from a snapshot.
func (s *Session) UndoStack() []string {
	out := make([]string, len(s.undoStack))
	for i, e := range s.undoStack {
		out[i] = e.source()
	}
	return out
}

// SetUndoStack replaces the undo history with printed sources, oldest
// first (used when rebuilding a session from a durability snapshot).
func (s *Session) SetUndoStack(srcs []string) {
	s.undoStack = make([]undoEntry, len(srcs))
	for i, src := range srcs {
		s.undoStack[i] = undoEntry{text: src}
	}
}

// ---------------------------------------------------------------------------
// Parallelization driver (used by scripted sessions and the report)

// AutoParallelize attempts to parallelize every loop of the current
// unit outermost-first (an outer DOALL subsumes its children),
// returning how many loops were marked parallel.
func (s *Session) AutoParallelize() int {
	count := 0
	var tryLoops func(loops []*cfg.Loop)
	tryLoops = func(loops []*cfg.Loop) {
		for _, l := range loops {
			tr := xform.Parallelize{Do: l.Do}
			if s.Check(tr).OK() {
				if _, err := s.Transform(tr); err == nil {
					count++
					continue // children run inside the parallel loop
				}
			}
			// Re-find children after any reanalysis.
			cur := s.State().DF.Tree.LoopOf(l.Do)
			if cur != nil {
				tryLoops(cur.Children)
			}
		}
	}
	tryLoops(s.State().DF.Tree.Roots)
	return count
}

// ParallelLoops lists the current unit's loops marked parallel.
func (s *Session) ParallelLoops() []*fortran.DoStmt {
	var out []*fortran.DoStmt
	fortran.WalkStmts(s.current.Body, func(st fortran.Stmt) bool {
		if do, ok := st.(*fortran.DoStmt); ok && do.Parallel {
			out = append(out, do)
		}
		return true
	})
	return out
}
