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

// UnitState holds the per-unit analysis and interaction state.
type UnitState struct {
	Unit *fortran.Unit
	DF   *dataflow.Analysis
	Deps *dep.Graph
	Est  *perf.UnitEstimate

	marks      map[depKey]dep.Mark
	assertions []Assertion
	classes    map[string]VarClass // user overrides by name

	// unitImage is the unit's printed source and its fingerprint at last
	// analysis — this unit's part of the session's source image, which
	// Save and SourceHash read instead of printing. callSig fingerprints
	// the call surface (every call statement and user function
	// invocation, with actuals). srcHash and callSig drive
	// ReanalyzeUnit's escalation decision: an unchanged hash means
	// nothing interprocedural can have moved, an unchanged call
	// signature means no other unit's constant formals or call graph
	// entry can have moved.
	unitImage
	callSig string
	// kindChanges is Unit.KindChanges at analysis: a statement step
	// builds only on accesses computed under the symbols' kinds of now.
	kindChanges int
}

// unitImage is one unit's printed text with its sha256.
type unitImage struct {
	text    string
	srcHash string
}

// imageOf prints u and fingerprints the text.
func imageOf(u *fortran.Unit) unitImage {
	var b strings.Builder
	fortran.PrintUnit(&b, u)
	h := sha256.Sum256([]byte(b.String()))
	return unitImage{text: b.String(), srcHash: hex.EncodeToString(h[:])}
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
}

// Mutated reports whether any program- or analysis-changing action
// has been applied since the session opened. Selection and navigation
// do not count.
func (s *Session) Mutated() bool { return s.mutated }

// Reanalysis describes one (re)analysis pass. Mode names the rung — how
// far outside the edited statement anything had to be looked at:
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

// AnalyzeAll (re)runs whole-program analysis: interprocedural
// summaries, then per-unit data-flow and dependence analysis, then the
// performance estimates. The per-unit phase runs on a bounded worker
// pool (see Workers): units are independent once the interprocedural
// summaries exist, so they are analyzed concurrently. A unit's data
// flow is solved once: the summary pass's solve is the unit's analysis,
// except on a recursion cycle and in a conservative session, whose
// per-unit inputs are not the summaries. The estimates run after the
// pool, on the calling goroutine, because pricing a unit reads its
// analysis (newEstimator); the cost memo is warmed in file order first,
// since on a recursion cycle what it holds depends on which member is
// entered first.
func (s *Session) AnalyzeAll() {
	start := time.Now()
	s.File.RenumberStmts()
	s.timed("interproc", func() { s.Prog = interproc.AnalyzeProgram(s.File) })
	solved := s.Prog.TakeAnalyses()
	if s.Conservative {
		solved = nil
	}
	s.progHash = ""
	s.units = s.analyzeUnits(s.File.Units, s.units, true, solved)
	s.est = s.newEstimator()
	s.warmCosts()
	for _, u := range s.File.Units {
		s.estimate(u)
	}
	s.LastReanalysis = Reanalysis{Mode: "full", Duration: time.Since(start)}
}

// newEstimator returns an empty cost memo that prices each unit from
// the conservative constants of the unit's own analysis
// (dataflow.Analysis.ConservativeConstants) instead of solving them
// again — so a unit may be priced only while its analysis is as new as
// its text.
func (s *Session) newEstimator() *perf.Estimator {
	e := perf.New(s.File, perf.DefaultParams())
	e.Constants = func(u *fortran.Unit) *dataflow.Analysis { return s.units[u].DF.ConservativeConstants() }
	return e
}

// estimate brings u's performance estimate up to date with its analysis
// and the cost memo.
func (s *Session) estimate(u *fortran.Unit) {
	st := s.units[u]
	s.timed("perf", func() { st.Est = s.est.EstimateUnit(st.DF) })
}

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
// up to date through it, and it alone sets LastReanalysis. It answers the
// two questions a change asks, in order, and returns the rung — the
// answer to the first.
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
// (dep.Patch; on the program rung the call sites of u whose callee's
// summary moved go with ns) — and whole otherwise. The envelope is
// whatever guarantees that a reference pair left alone would test as it
// did. A pair reads its two statements' accesses and loop nests, the
// constants at its source statement and at the headers of the loops
// around it, the unit's constant formals, and whether the scalars in its
// subscripts are assigned in the unit or in the common loop. So the step
// declines when the CFG or loop tree could move (a statement that is not
// simple, another label), when a symbol of the unit changed kind since
// its analysis (Unit.KindChanges), when the unit's constant formals or
// recursion status moved, and when PatchStmt finds constants or a
// written-scalar set moved — all before anything lasting is modified;
// WholeUnitOnly declines always. A "patch" rung whose step declined asks
// reach after all. Then spread does the rest.
func (s *Session) update(u *fortran.Unit, swap stmtSwap) string {
	start := time.Now()
	s.File.RenumberStmts()
	st := s.units[u]
	granular := !s.WholeUnitOnly && st != nil && st.kindChanges == u.KindChanges &&
		(swap.annotations || swap.ns != nil && swappable(swap.old, swap.ns))
	mode, prog, patched := "unit", s.Prog, false
	switch {
	case st == nil || prog == nil:
		s.AnalyzeAll()
		mode = "full"
	// The one print of this change: whatever runs below carries the
	// refreshed image (and every other unit's untouched one) forward.
	case !s.refreshImage(u) && !granular:
		s.units[u] = s.analyzeUnit(u, st, false, nil)
		s.estimate(u)
	case !granular:
		mode, prog, _ = s.reach(u, st)
		s.spread(u, mode, prog, patched)
	case swap.annotations:
		s.spread(u, mode, prog, true) // no statement to splice in
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
		var calls []fortran.Stmt
		movable := prog == s.Prog
		if !movable && prog.Graph.Recursive[u] == s.Prog.Graph.Recursive[u] && interproc.ConstFormalsEqual(prog, s.Prog, u) {
			movable = true
			for _, site := range prog.Graph.Calls[u] {
				if site.Stmt != swap.ns && prog.Summaries[site.Callee] != s.Prog.Summaries[site.Callee] &&
					(len(calls) == 0 || calls[len(calls)-1] != site.Stmt) {
					calls = append(calls, site.Stmt)
				}
			}
		}
		if movable {
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
		s.spread(u, mode, prog, patched)
	}
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
// it is not compared: interproc.UpdateProgram recomputes it before
// anything can call it. reach returns the call surface it compared and
// modifies nothing.
func (s *Session) reach(u *fortran.Unit, st *UnitState) (mode string, prog *interproc.Program, callSig string) {
	callSig = callSurfaceSig(u)
	if !s.Conservative && (callSig != st.callSig ||
		len(s.Prog.Graph.Callers[u]) > 0 && !s.Prog.Resummarize(u).Equal(s.Prog.Summaries[u])) {
		return "program", interproc.UpdateProgram(s.Prog, map[*fortran.Unit]bool{u: true}), callSig
	}
	return "unit", s.Prog, callSig
}

// spread brings up to date everything a change of u reaches that update
// has not, in the order pricing needs: first u itself, whole, unless
// patched says it was answered statement by statement, and on the
// program rung the interprocedural facts and every other unit whose
// analysis inputs moved with them; then the cost memo (recost), which
// prices units from their analyses; then the perf estimates of the
// units whose costs can have moved, the ones just analyzed among them —
// every unit on the program rung, u and its transitive callers, which
// price its call sites, on the cheaper ones. Everything else keeps its
// unit state, graphs, marks and assertions.
func (s *Session) spread(u *fortran.Unit, mode string, prog *interproc.Program, patched bool) {
	oldProg := s.Prog
	s.Prog = prog
	repriced := s.transitiveCallers(u)
	var stale []*fortran.Unit
	if !patched {
		stale = append(stale, u)
	}
	if mode == "program" {
		for _, v := range s.File.Units {
			if v != u && !s.unitInputsUnchanged(v, oldProg) {
				stale = append(stale, v)
			}
		}
	}
	fresh := s.analyzeUnits(stale, s.units, false, nil)
	for v, st := range fresh {
		s.units[v] = st
	}
	s.recost(repriced)
	for _, v := range s.File.Units {
		if mode == "program" || repriced[v] {
			s.estimate(v)
		}
	}
}

// unitInputsUnchanged reports whether v's analysis inputs survived an
// interprocedural update: same recursion status, same callee summary
// objects (UpdateProgram carries the pointer when the recomputed
// summary is Equal), same propagated constant formals.
func (s *Session) unitInputsUnchanged(v *fortran.Unit, oldProg *interproc.Program) bool {
	if s.Conservative {
		return true // per-unit analysis never consults the program
	}
	if s.Prog.Graph.Recursive[v] != oldProg.Graph.Recursive[v] {
		return false
	}
	if !interproc.ConstFormalsEqual(s.Prog, oldProg, v) {
		return false
	}
	for _, site := range s.Prog.Graph.Calls[v] {
		if s.Prog.Summaries[site.Callee] != oldProg.Summaries[site.Callee] {
			return false
		}
	}
	return true
}

// recost drops what the estimator's per-unit cost memo can no longer
// vouch for after a unit's AST changed — the one re-costing step of
// every reanalysis rung, run once every unit's analysis is as new as its
// text. Only the unit's cost and the costs embedding it — its transitive
// callers' — can have moved, so those are invalidated and recomputed
// when next asked for. On a recursion cycle, though, a memoized cost
// depends on which member the warm-up enters first (the estimator's
// cycle guard), and only a fresh estimator warmed in file order
// reproduces a from-scratch session.
func (s *Session) recost(callers map[*fortran.Unit]bool) {
	if len(s.Prog.Graph.Recursive) == 0 {
		for v := range callers {
			s.est.Invalidate(v)
		}
		return
	}
	s.est = s.newEstimator()
	s.warmCosts()
}

// warmCosts fills the estimator's cost memo in file order, as a session
// opened on the program text would.
func (s *Session) warmCosts() {
	for _, u := range s.File.Units {
		s.est.UnitCost(u)
	}
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
// keeping prev's marks, assertions and classifications; its estimate is
// the caller's to make once every unit's analysis is current
// (estimate). With reprint unset it also keeps prev's source image,
// which the caller must have refreshed if u's AST changed; otherwise
// (or with no prev) it prints u — once, for both the image and the
// fingerprint. A non-nil df is u's data flow already solved
// under the session's inputs, and is used as it stands.
func (s *Session) analyzeUnit(u *fortran.Unit, prev *UnitState, reprint bool, df *dataflow.Analysis) *UnitState {
	if err := faultpoint.Hit(faultpoint.Analyze, s.File.Path+":"+u.Name); err != nil {
		// Analysis has no error channel; an injected error surfaces
		// as a panic for the session-level recovery boundary.
		panic(err)
	}
	st := &UnitState{Unit: u, marks: map[depKey]dep.Mark{}, classes: map[string]VarClass{}, kindChanges: u.KindChanges}
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
	if prev != nil && !reprint {
		st.unitImage = prev.unitImage
	} else {
		st.unitImage = imageOf(u)
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
	for _, le := range s.State().Est.Loops {
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
	ns, err := fortran.ParseStmtIn(s.File, s.current, text)
	// Resolving the text's names declares (or reclassifies) them in the
	// unit's symbol table even when the parse then fails, and the
	// declarations print. The image follows at once: no reanalysis
	// comes after a rejected edit, and an accepted edit's undo entry
	// has always carried the names its text introduced — journals
	// written that way must keep replaying onto the same hashes.
	s.refreshImage(s.current)
	if err != nil {
		return fmt.Errorf("parse error: %v", err)
	}
	s.pushUndo()
	if !xform.ReplaceStmt(s.current, old, ns) {
		s.undoStack = s.undoStack[:len(s.undoStack)-1]
		return fmt.Errorf("statement %d is not in unit %s", id, s.current.Name)
	}
	s.Stats.Edits++
	s.mutated = true
	s.log("edit stmt %d: %s", id, strings.TrimSpace(text))
	s.update(s.current, stmtSwap{old: old, ns: ns})
	return nil
}

// refreshImage reprints u into its existing state — for a change to the
// unit's text that leaves its analysis standing — and reports whether
// the text moved.
func (s *Session) refreshImage(u *fortran.Unit) bool {
	st := s.units[u]
	img := imageOf(u)
	if img.srcHash == st.srcHash {
		return false
	}
	st.unitImage = img
	s.progHash = ""
	return true
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
	return imageOf(a.unit).srcHash == img.srcHash
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

func (s *Session) pushUndo() {
	units := make([]unitImage, len(s.File.Units))
	for i, u := range s.File.Units {
		units[i] = s.units[u].unitImage
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
			s.File = f
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
		img, st := entry.units[i], s.units[u]
		if img.srcHash != st.srcHash {
			r := restore{u: u}
			if a := entry.annots; a != nil && a.unit == u && a.restores(img) {
				r.annots = a
			} else {
				parsed, err := s.File.ParseUnit(img.text, line)
				if err != nil {
					return fmt.Errorf("undo reparse failed: unit %s: %v", u.Name, err)
				}
				r.parsed = parsed
				if k := soleDifferingLine(st.text, img.text); k > 0 {
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
		if header(images[i].text) != header(s.units[u].text) {
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
// for byte, joined from the source image rather than printed. Every
// AST mutation ends in a refresh of the image (analyzeUnit, update, or
// refreshImage from EditStmt's parse) before returning, so no caller
// sees a stale text.
func (s *Session) Save() string {
	n := len(s.File.Units)
	for _, u := range s.File.Units {
		n += len(s.units[u].text)
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
		io.WriteString(w, s.units[u].text)
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
