package dep

import (
	"parascope/internal/cfg"
	"parascope/internal/dataflow"
	"parascope/internal/expr"
	"parascope/internal/fortran"
)

// Options selects which analysis capabilities are enabled; the
// ablation experiment (Table 3) toggles them individually.
type Options struct {
	// UseConstants substitutes propagated integer constants into
	// subscript expressions before testing.
	UseConstants bool
	// UseRanges enables the range-based (Banerjee) tests using loop
	// bounds; with it off only exact divisibility tests run.
	UseRanges bool
	// UseSections tests call-statement array accesses against
	// interprocedural regular-section summaries instead of assuming
	// they touch whole arrays.
	UseSections bool
	// InputDeps also records read-read dependences for display.
	InputDeps bool
}

// DefaultOptions enables every analysis.
func DefaultOptions() Options {
	return Options{UseConstants: true, UseRanges: true, UseSections: true}
}

// SectionDim bounds one dimension of an array section in symbols of
// the calling procedure.
type SectionDim struct {
	Lo, Hi expr.Linear
	Known  bool
}

// SectionAccess describes one array side effect of a call as a
// bounded regular section.
type SectionAccess struct {
	Sym   *fortran.Symbol
	Write bool
	Dims  []SectionDim
}

// Summaries provides interprocedural side-effect detail for calls.
type Summaries interface {
	// CallSections returns the array sections statement s (a CALL or
	// a statement containing a user function call) may access, with
	// ok=false when the callee is unknown.
	CallSections(s fortran.Stmt) ([]SectionAccess, bool)
}

// ref is one reference participating in dependence testing.
type ref struct {
	stmt    fortran.Stmt
	acc     dataflow.Access
	nest    []*cfg.Loop // enclosing loops, outermost first; shared by the statement's references
	facts   int         // the statement's entry in Analyzer.stmts
	root    *loopFacts  // the entry of nest[0]; nil outside any loop
	isCall  bool
	section *SectionAccess // bounds when from a summarized call
	// subs holds the linearised subscripts once a pair has asked for
	// them.
	subs []subscript
}

// subscript is one subscript expression of a reference as an affine
// form, before constants are substituted (those belong to the source
// statement of the pair under test).
type subscript struct {
	lin        expr.Linear
	ok         bool // affine; lin is valid
	indexArray bool // not affine because it subscripts through an array
}

// stmtFacts is what a pair reads about its source statement: the test
// environment (constants at the statement, ranges of the enclosing
// loops, user assertions merged in) and the constants themselves.
type stmtFacts struct {
	env    *expr.Env       // nil until the first pair asks
	consts dataflow.Consts // nil with UseConstants off
}

// loopFacts is what a pair reads about its outermost common loop: the
// symbols written anywhere inside it.
type loopFacts struct {
	loop    *cfg.Loop
	written map[*fortran.Symbol]bool // nil until the first pair asks
}

// Analyzer runs dependence analysis over one unit.
//
// A fact that belongs to a statement, a loop or a reference is computed
// once, by the first reference pair that asks for it, and kept in the
// run's tables (stmts, loopFacts hung off the references, ref.subs)
// rather than rebuilt per pair. An Analyzer runs on one goroutine, and
// once an entry is filled nothing writes to it: the *expr.Env of a
// statement entry (factsAt) is shared by every pair with that source
// statement, so no test may call SetValue or SetRange on it.
// Entries are only ever filled for the statements and loops the run
// pairs up, so Patch, which tests a handful of pairs, does not pay for
// the unit's other statements.
//
// A graph run (Analyze, Patch) pairs two references only when they lie
// in the same outermost loop: those are the dependences a loop's pane,
// safety checks and the planner ask about, and the references of a
// statement outside every loop are not collected at all. In a
// call-heavy unit that is nearly all of the pairs the unit has. The
// pairs between two statements that share no loop are tested when a
// check asks for them (Between).
type Analyzer struct {
	DF         *dataflow.Analysis
	Assertions *expr.Env // user assertions; may be nil
	Summ       Summaries // may be nil
	Opts       Options

	stmts []stmtFacts
}

// Analyze computes the dependence graph of df's unit: the data
// dependences between references in one outermost loop — the ones a
// loop's pane, safety checks and the planner read — and every control
// dependence. Pairs with no common loop are left to Between.
func Analyze(df *dataflow.Analysis, assertions *expr.Env, summ Summaries, opts Options) *Graph {
	a := &Analyzer{DF: df, Assertions: assertions, Summ: summ, Opts: opts}
	g := a.newGraph()
	symOrder, bySym := a.collectRefs(nil, nil)
	t := tester{a: a, g: g}
	for _, sym := range symOrder {
		t.testSym(sym, bySym[sym], nil)
	}
	a.addControlDeps(g)
	a.finalize(g, 0)
	return g
}

// Between returns the data dependences between the statements nested in
// first and those nested in second, each included, in the order a run
// pairing every reference would list them. It is how a pair of
// statements that share no loop — adjacent statements at a unit's top
// level — is asked about: Analyze does not build those edges. The edges
// are tested on demand, have no ID and belong to no graph.
func Between(df *dataflow.Analysis, assertions *expr.Env, summ Summaries, opts Options, first, second fortran.Stmt) []*Dependence {
	a := &Analyzer{DF: df, Assertions: assertions, Summ: summ, Opts: opts}
	side := map[fortran.Stmt]int{}
	fortran.WalkStmts([]fortran.Stmt{first}, func(s fortran.Stmt) bool { side[s] = 1; return true })
	fortran.WalkStmts([]fortran.Stmt{second}, func(s fortran.Stmt) bool { side[s] = 2; return true })
	symOrder, bySym := a.collectRefs(nil, func(s fortran.Stmt) bool { return side[s] != 0 })
	t := tester{a: a, g: a.newGraph()}
	for _, sym := range symOrder {
		list := bySym[sym]
		for i, r1 := range list {
			for _, r2 := range list[i+1:] {
				if side[r1.stmt] != side[r2.stmt] {
					t.testRefPair(sym, r1, r2)
				}
			}
		}
	}
	return t.g.Deps
}

func (a *Analyzer) newGraph() *Graph {
	return &Graph{Unit: a.DF.Unit, Stats: newStats(), Assertions: a.Assertions}
}

// finalize assigns dependence IDs and enters the edges from index
// `from` on (all of them in a full run) into the per-loop index: an edge
// is listed under every loop enclosing both of its statements, the
// ancestors of the two innermost loops' meeting point.
func (a *Analyzer) finalize(g *Graph, from int) {
	if g.byLoop == nil {
		g.byLoop = map[*cfg.Loop][]*Dependence{}
	}
	tree := a.DF.Tree
	for i, d := range g.Deps {
		d.ID = i + 1
		if i < from {
			continue
		}
		l1, l2 := tree.Innermost(d.Src), tree.Innermost(d.Dst)
		for l1 != l2 && l1 != nil && l2 != nil {
			switch {
			case l1.Depth > l2.Depth:
				l1 = l1.Parent
			case l2.Depth > l1.Depth:
				l2 = l2.Parent
			default:
				l1, l2 = l1.Parent, l2.Parent
			}
		}
		if l1 != l2 {
			continue // one side outside any loop
		}
		for l := l1; l != nil; l = l.Parent {
			g.byLoop[l] = append(g.byLoop[l], d)
		}
	}
}

// collectRefs gathers the unit's variable accesses — with want set only
// those of the wanted symbols — attaching loop nests and section
// summaries, grouped by symbol. The references collected are those of
// statements inside a loop, or with in set those of the statements it
// accepts. Symbols come in order of first appearance in the whole unit,
// collected or not, so every run lists a symbol's edges where a run
// over all references would. It also lays out the statement and loop
// tables: one empty entry per statement and per outermost loop that has
// a collected reference.
func (a *Analyzer) collectRefs(want map[*fortran.Symbol]bool, in func(fortran.Stmt) bool) ([]*fortran.Symbol, map[*fortran.Symbol][]*ref) {
	var refs []ref
	if want == nil && in == nil {
		n := 0
		fortran.WalkStmts(a.DF.Unit.Body, func(s fortran.Stmt) bool {
			if a.DF.Tree.Innermost(s) != nil {
				n += len(a.DF.Accesses(s))
			}
			return true
		})
		refs = make([]ref, 0, n)
	}
	bySym := map[*fortran.Symbol][]*ref{}
	var symOrder []*fortran.Symbol
	loops := map[*cfg.Loop]*loopFacts{}
	nests := map[*cfg.Loop][]*cfg.Loop{} // by innermost loop
	fortran.WalkStmts(a.DF.Unit.Body, func(s fortran.Stmt) bool {
		inner := a.DF.Tree.Innermost(s)
		collect := inner != nil
		if in != nil {
			collect = in(s)
		}
		first := true
		var nest []*cfg.Loop
		var root *loopFacts
		var secs []SectionAccess
		askedSecs := !a.Opts.UseSections || a.Summ == nil
		for _, ac := range a.DF.Accesses(s) {
			if ac.Sym.Kind != fortran.SymScalar && ac.Sym.Kind != fortran.SymArray {
				continue
			}
			if want != nil && !want[ac.Sym] {
				continue
			}
			if _, ok := bySym[ac.Sym]; !ok {
				symOrder = append(symOrder, ac.Sym)
				bySym[ac.Sym] = nil
			}
			if !collect {
				continue
			}
			if first {
				first = false
				a.stmts = append(a.stmts, stmtFacts{})
				if inner != nil {
					if nest = nests[inner]; nest == nil {
						nest = inner.Nest()
						nests[inner] = nest
					}
					if root = loops[nest[0]]; root == nil {
						root = &loopFacts{loop: nest[0]}
						loops[nest[0]] = root
					}
				}
			}
			r := ref{stmt: s, acc: ac, nest: nest, facts: len(a.stmts) - 1, root: root}
			// Synthesized call effects and whole-array actual
			// arguments stand for everything the call touches.
			if ac.Ref == nil || (ac.Sym.IsArray() && len(ac.Ref.Subs) == 0) {
				r.isCall = true
				if !askedSecs {
					askedSecs = true
					secs, _ = a.Summ.CallSections(s)
				}
				for k := range secs {
					if secs[k].Sym == ac.Sym && secs[k].Write == ac.Write {
						r.section = &secs[k]
					}
				}
			}
			refs = append(refs, r)
		}
		return true
	})
	for i := range refs {
		r := &refs[i]
		bySym[r.acc.Sym] = append(bySym[r.acc.Sym], r)
	}
	return symOrder, bySym
}

// factsAt returns the table entry of r's statement, filling it on
// first use: loop ranges, constants at the statement, plus user
// assertions.
func (a *Analyzer) factsAt(r *ref) *stmtFacts {
	f := &a.stmts[r.facts]
	if f.env == nil {
		if a.Opts.UseConstants {
			f.env = a.DF.EnvAt(r.stmt)
			f.consts = a.DF.ConstsAt(r.stmt)
		} else {
			f.env = a.DF.EnvLoopsOnly(r.stmt)
		}
		if a.Assertions != nil {
			// The last write: from here on the environment is shared
			// and read-only.
			mergeEnv(f.env, a.Assertions)
		}
	}
	return f
}

// mergeEnv intersects src's knowledge into dst.
func mergeEnv(dst, src *expr.Env) {
	for _, sym := range src.Symbols() {
		dst.SetRange(sym, src.RangeOf(sym))
	}
}

// writtenIn returns the symbols written anywhere inside the loop.
func (a *Analyzer) writtenIn(f *loopFacts) map[*fortran.Symbol]bool {
	if f.written == nil {
		f.written = map[*fortran.Symbol]bool{}
		fortran.WalkStmts(f.loop.Do.Body, func(s fortran.Stmt) bool {
			for _, ac := range a.DF.Accesses(s) {
				if ac.Write {
					f.written[ac.Sym] = true
				}
			}
			return true
		})
	}
	return f.written
}

// subsOf returns r's subscripts as affine forms.
func (a *Analyzer) subsOf(r *ref) []subscript {
	if r.subs == nil && r.acc.Ref != nil && len(r.acc.Ref.Subs) > 0 {
		r.subs = make([]subscript, len(r.acc.Ref.Subs))
		for d, e := range r.acc.Ref.Subs {
			lin, ok := expr.Linearize(a.DF.Unit, e)
			indexArray := !ok && fortran.AnyExpr(e, func(x fortran.Expr) bool {
				vr, isRef := x.(*fortran.VarRef)
				return isRef && len(vr.Subs) > 0
			})
			r.subs[d] = subscript{lin: lin, ok: ok, indexArray: indexArray}
		}
	}
	return r.subs
}

// pairCtx is what one reference pair is tested under.
type pairCtx struct {
	nest   []*cfg.Loop // the loops enclosing both references
	env    *expr.Env   // read-only: shared by every pair with this source statement
	consts dataflow.Consts
	// variant reports whether a symbol's value can change between the
	// two reference instances within the common nest.
	variant func(*fortran.Symbol) bool
}

// tester is a run's working state: the graph it emits into and the
// vectors it reuses from pair to pair.
type tester struct {
	a   *Analyzer
	g   *Graph
	res pairResult

	beforeKnown []bool
	beforeDist  []int64

	verdicts map[[2]string]*Verdict // by test and reason; see verdict
	indep    []*Vectors             // by nest depth; see independent
}

// testSym tests every reference pair of one symbol whose references lie
// in the same outermost loop, in collection order, applying the
// standard skip rules. The references of one outermost loop are
// consecutive in list, so a reference's partners end at the first one
// with another root. With only set, just the pairs with a reference in
// one of those statements are tested — in the same relative order, so a
// patched graph lists the edges as a full run would.
func (t *tester) testSym(sym *fortran.Symbol, list []*ref, only []fortran.Stmt) {
	var inOnly []int
	if only != nil {
		for j, r := range list {
			if among(only, r.stmt) {
				inOnly = append(inOnly, j)
			}
		}
		if len(inOnly) == 0 {
			return
		}
	}
	for i, r1 := range list {
		if only == nil || among(only, r1.stmt) {
			for _, r2 := range list[i:] {
				if r2.root != r1.root {
					break
				}
				t.testRefPair(sym, r1, r2)
			}
			continue
		}
		for _, j := range inOnly {
			if j > i && list[j].root == r1.root {
				t.testRefPair(sym, r1, list[j])
			}
		}
	}
}

func (t *tester) testRefPair(sym *fortran.Symbol, r1, r2 *ref) {
	a := t.a
	if !r1.acc.Write && !r2.acc.Write && !a.Opts.InputDeps {
		return
	}
	if r1 == r2 && !r1.acc.Write {
		return
	}
	// The common nest is the shared prefix of the two nests.
	n := 0
	for n < len(r1.nest) && n < len(r2.nest) && r1.nest[n] == r2.nest[n] {
		n++
	}
	nest := r1.nest[:n]
	// Scalars: dependences on every common level; privatization and
	// reduction recognition (not subscript tests) remove them.
	if sym.Kind == fortran.SymScalar {
		t.emitAllLevels(sym, r1, r2, nest, "scalar")
		return
	}
	// Calls with no section information touch the whole array.
	if (r1.isCall && r1.section == nil) || (r2.isCall && r2.section == nil) {
		t.emitAllLevels(sym, r1, r2, nest, "call")
		return
	}
	facts := a.factsAt(r1)
	ctx := pairCtx{nest: nest, env: facts.env, consts: facts.consts}
	if n == 0 {
		// No common loop (Between only): the references execute once
		// each; loop-variant values from sibling nests differ.
		ctx.variant = func(sym *fortran.Symbol) bool {
			if sym.Kind == fortran.SymParam {
				return false
			}
			return sym.Type != fortran.TypeInteger || a.DF.Assigned(sym)
		}
	} else {
		written := a.writtenIn(r1.root)
		ctx.variant = func(sym *fortran.Symbol) bool {
			if sym.Kind == fortran.SymParam {
				return false
			}
			for _, l := range nest {
				if l.Do.Var == sym {
					return false // common loop variables are handled separately
				}
			}
			return written[sym]
		}
	}
	var res *pairResult
	if r1.isCall || r2.isCall {
		res = t.testSections(sym, r1, r2, &ctx)
	} else {
		// Element references on both sides: the hierarchical suite.
		res = t.testSubscripts(r1, r2, &ctx)
	}
	if !res.independent {
		t.emit(sym, r1, r2, nest, res)
	}
}

// start resets the tester's pair result for a nest of n loops: every
// direction feasible, no distance known.
func (t *tester) start(n int) *pairResult {
	if cap(t.res.dirs) < n {
		t.res.dirs = make([]dirSet, n)
		t.res.dist = make([]int64, n)
		t.res.known = make([]bool, n)
		t.beforeKnown = make([]bool, n)
		t.beforeDist = make([]int64, n)
	}
	t.res = pairResult{dirs: t.res.dirs[:n], dist: t.res.dist[:n], known: t.res.known[:n]}
	for k := 0; k < n; k++ {
		t.res.dirs[k], t.res.dist[k], t.res.known[k] = dirAll, 0, false
	}
	return &t.res
}

// testSubscripts runs the dependence equation tests over every
// subscript dimension.
func (t *tester) testSubscripts(r1, r2 *ref, ctx *pairCtx) *pairResult {
	g := t.g
	g.Stats.PairsTested++
	n := len(ctx.nest)
	res := t.start(n)
	sub1, sub2 := t.a.subsOf(r1), t.a.subsOf(r2)
	dims := len(sub1)
	if len(sub2) < dims {
		dims = len(sub2)
	}
	provenAll := dims > 0
	for d := 0; d < dims; d++ {
		e := buildEqn(sub1[d], sub2[d], ctx)
		before, beforeDist := t.beforeKnown[:n], t.beforeDist[:n]
		copy(before, res.known)
		copy(beforeDist, res.dist)
		name, outcome := testDim(e, ctx.env, ctx.nest, res, t.a.Opts.UseRanges)
		if name != "" {
			g.Stats.merge(name, outcome)
		}
		if outcome == outcomeIndependent {
			res.independent = true
			res.decidedBy = name
			return res
		}
		if outcome != outcomeProven {
			provenAll = false
		}
		// Delta-style distance consistency between dimensions.
		for k := 0; k < n; k++ {
			if before[k] && res.known[k] && beforeDist[k] != res.dist[k] {
				res.independent = true
				res.decidedBy = "delta"
				g.Stats.merge("delta", outcomeIndependent)
				return res
			}
		}
		// An emptied direction set means no feasible relation.
		for k := 0; k < n; k++ {
			if res.dirs[k] == 0 {
				res.independent = true
				res.decidedBy = name
				return res
			}
		}
	}
	res.proven = provenAll && res.blockedBy == ""
	return res
}

// dirCases enumerates the three single directions with their set bits.
var dirCases = [...]struct {
	bit dirSet
	d   Direction
}{{dirBitLt, DirLt}, {dirBitEq, DirEq}, {dirBitGt, DirGt}}

// testSections tests a pair where at least one side is a call with a
// regular-section summary: exact (degenerate) section dimensions go
// through the full subscript suite; ranged ones through the
// direction-aware overlap test.
func (t *tester) testSections(sym *fortran.Symbol, r1, r2 *ref, ctx *pairCtx) *pairResult {
	g := t.g
	g.Stats.PairsTested++
	n := len(ctx.nest)
	res := t.start(n)
	res.decidedBy = "section"
	dims := len(sym.Dims)
	for d := 0; d < dims; d++ {
		var sd, dd dimDesc
		t.a.dimDescOf(&sd, r1, d, ctx.consts)
		t.a.dimDescOf(&dd, r2, d, ctx.consts)
		if !sd.known || !dd.known {
			if res.blockedBy == "" {
				res.blockedBy = firstNonEmpty(sd.blocked, dd.blocked, "symbolic")
			}
			continue
		}
		if sd.exact && dd.exact {
			e := eqnFromLinears(sd.lo, dd.lo, ctx.nest, ctx.env, ctx.variant)
			name, outcome := testDim(e, ctx.env, ctx.nest, res, t.a.Opts.UseRanges)
			if name != "" {
				g.Stats.merge(name, outcome)
			}
			if outcome == outcomeIndependent {
				res.independent = true
				res.decidedBy = name
				return res
			}
		} else {
			var ov overlap
			ov.init(&sd, &dd, ctx)
			if !ov.feasible(ctx, -1, DirStar) {
				res.independent = true
				g.Stats.merge("section", outcomeIndependent)
				return res
			}
			if t.a.Opts.UseRanges {
				for k := 0; k < n; k++ {
					for _, dir := range dirCases {
						if res.dirs[k].has(dir.bit) && !ov.feasible(ctx, k, dir.d) {
							res.dirs[k] &^= dir.bit
						}
					}
				}
			}
			g.Stats.merge("section", outcomeMaybe)
		}
		for k := 0; k < n; k++ {
			if res.dirs[k] == 0 {
				res.independent = true
				res.decidedBy = "section"
				return res
			}
		}
	}
	return res
}

// dimDescOf describes one dimension of a reference or section as
// linear bounds in out.
func (a *Analyzer) dimDescOf(out *dimDesc, r *ref, d int, consts dataflow.Consts) {
	if r.section != nil {
		if d >= len(r.section.Dims) || !r.section.Dims[d].Known {
			out.blocked = "symbolic"
			return
		}
		sd := &r.section.Dims[d]
		out.known = true
		out.exact = sd.Lo.Equal(sd.Hi)
		out.lo = substConsts(sd.Lo, consts)
		out.hi = substConsts(sd.Hi, consts)
		return
	}
	subs := a.subsOf(r)
	switch {
	case d >= len(subs):
		out.blocked = "symbolic"
	case !subs[d].ok:
		out.blocked = subs[d].blocked()
	default:
		out.known, out.exact = true, true
		out.lo = substConsts(subs[d].lin, consts)
		out.hi = out.lo
	}
}

func firstNonEmpty(ss ...string) string {
	for _, s := range ss {
		if s != "" {
			return s
		}
	}
	return ""
}

// ---------------------------------------------------------------------------
// Emission

// emitAllLevels emits a conservative dependence at every common level
// plus the loop-independent one; used for scalars and opaque calls.
func (t *tester) emitAllLevels(sym *fortran.Symbol, r1, r2 *ref, nest []*cfg.Loop, test string) {
	res := t.start(len(nest))
	res.decidedBy = test
	t.emit(sym, r1, r2, nest, res)
}

// emit converts a surviving pairResult into dependence edges: one per
// feasible carrier level in each direction, plus loop-independent
// edges following lexical order. The edges of a pair share what does
// not depend on the carrier: the verdict, one known vector, one distance
// vector per direction.
func (t *tester) emit(sym *fortran.Symbol, r1, r2 *ref, nest []*cfg.Loop, res *pairResult) {
	g := t.g
	n := len(nest)
	mark := MarkPending
	if res.proven {
		mark = MarkProven
	}
	verdict := t.verdict(res)
	add := func(src, dst *ref, level int, vec *Vectors) {
		d := &g.deps.take(1)[0]
		d.Sym, d.Src, d.Dst = sym, src.stmt, dst.stmt
		d.Class = classify(src.acc.Write, dst.acc.Write)
		d.Level, d.Vectors = level, vec
		d.Mark, d.Verdict = mark, verdict
		if level > 0 {
			d.Loop = nest[level-1]
		}
		g.Deps = append(g.Deps, d)
	}
	// carried returns the vectors of an edge carried at level k+1: its
	// own directions — '=' outside the carrier, '<' at it (after the
	// endpoint swap of a backward edge '>' becomes '<'), and the summary
	// of what remains feasible inside it — with the pair's distances.
	var known []bool
	carried := func(k int, backward bool, dist []int64) *Vectors {
		if known == nil {
			known = g.flags.take(n)
			copy(known, res.known)
		}
		v := &g.vecs.take(1)[0]
		v.Dirs, v.Dist, v.Known = g.dirs.take(n), dist, known
		for j := range v.Dirs {
			switch {
			case j < k:
				v.Dirs[j] = DirEq
			case j == k:
				v.Dirs[j] = DirLt
			case backward:
				v.Dirs[j] = summarize(invert(res.dirs[j]))
			default:
				v.Dirs[j] = summarize(res.dirs[j])
			}
		}
		return v
	}
	// Forward direction (r1 as source): carrier level k needs '=' on
	// all outer levels and '<' at k.
	var fwdDist []int64
	for k := 0; k < n; k++ {
		if res.dirs[k].has(dirBitLt) {
			if fwdDist == nil {
				fwdDist = g.dists.take(n)
				copy(fwdDist, res.dist)
			}
			add(r1, r2, k+1, carried(k, false, fwdDist))
		}
		if !res.dirs[k].has(dirBitEq) {
			break
		}
	}
	// Loop-independent: all levels '='.
	allEq := true
	for k := 0; k < n; k++ {
		if !res.dirs[k].has(dirBitEq) {
			allEq = false
		}
	}
	if allEq && r1.stmt != r2.stmt {
		if r1.stmt.ID() < r2.stmt.ID() {
			add(r1, r2, 0, t.independent(n))
		} else {
			add(r2, r1, 0, t.independent(n))
		}
	}
	// Backward direction (r2 as source): needs '>' at the carrier.
	if r1 != r2 {
		var bwdDist []int64
		for k := 0; k < n; k++ {
			if res.dirs[k].has(dirBitGt) {
				if bwdDist == nil {
					bwdDist = g.dists.take(n)
					for j, v := range res.dist {
						bwdDist[j] = -v
					}
				}
				add(r2, r1, k+1, carried(k, true, bwdDist))
			}
			if !res.dirs[k].has(dirBitEq) {
				break
			}
		}
	}
}

// independent returns the vectors every loop-independent edge under n
// common loops has: '=' at each level, no distances.
func (t *tester) independent(n int) *Vectors {
	for len(t.indep) <= n {
		dirs := make([]Direction, len(t.indep))
		for k := range dirs {
			dirs[k] = DirEq
		}
		t.indep = append(t.indep, &Vectors{Dirs: dirs})
	}
	return t.indep[n]
}

// verdict returns the shared Verdict of a surviving pair. Verdicts
// without blockers — nearly all of them — come from a handful of (test,
// reason) combinations and are kept one per combination.
func (t *tester) verdict(res *pairResult) *Verdict {
	test := res.decidedBy
	if test == "" {
		test = "subscript"
	}
	if res.blockSyms != nil {
		return &Verdict{Test: test, Reason: res.blockedBy, Blockers: res.blockSyms}
	}
	key := [2]string{test, res.blockedBy}
	v := t.verdicts[key]
	if v == nil {
		if t.verdicts == nil {
			t.verdicts = map[[2]string]*Verdict{}
		}
		v = &Verdict{Test: test, Reason: res.blockedBy}
		t.verdicts[key] = v
	}
	return v
}

func classify(srcWrite, dstWrite bool) Class {
	switch {
	case srcWrite && dstWrite:
		return ClassOutput
	case srcWrite:
		return ClassFlow
	case dstWrite:
		return ClassAnti
	default:
		return ClassInput
	}
}

func invert(s dirSet) dirSet {
	var out dirSet
	if s.has(dirBitLt) {
		out |= dirBitGt
	}
	if s.has(dirBitEq) {
		out |= dirBitEq
	}
	if s.has(dirBitGt) {
		out |= dirBitLt
	}
	return out
}

func summarize(s dirSet) Direction {
	switch s {
	case dirBitLt:
		return DirLt
	case dirBitEq:
		return DirEq
	case dirBitGt:
		return DirGt
	case dirBitLt | dirBitEq:
		return DirLe
	case dirBitGt | dirBitEq:
		return DirGe
	default:
		return DirStar
	}
}

// addControlDeps records control dependences for display and for
// transformation safety checks.
func (a *Analyzer) addControlDeps(g *Graph) {
	cd := a.DF.G.ComputeControlDeps()
	for _, node := range a.DF.G.Nodes {
		if node.Stmt == nil {
			continue
		}
		for _, br := range cd.DepsOf(node) {
			if br.Stmt == nil || br.Stmt == node.Stmt {
				continue
			}
			if _, isDo := br.Stmt.(*fortran.DoStmt); isDo {
				continue // loop structure, not a real branch
			}
			d := &g.deps.take(1)[0]
			*d = Dependence{
				Sym:     controlSym,
				Src:     br.Stmt,
				Dst:     node.Stmt,
				Class:   ClassControl,
				Mark:    MarkProven,
				Vectors: noVectors,
				Verdict: controlVerdict,
			}
			g.Deps = append(g.Deps, d)
		}
	}
}

// Every control dependence has the same verdict and no vectors.
var (
	controlVerdict = &Verdict{Test: "control"}
	noVectors      = &Vectors{}
)

// controlSym is the placeholder symbol for control dependences.
var controlSym = &fortran.Symbol{Name: "(control)", Kind: fortran.SymScalar}
