package interproc

import (
	"parascope/internal/cfg"
	"parascope/internal/dataflow"
	"parascope/internal/expr"
	"parascope/internal/fortran"
)

// Section is one bounded regular section of a callee-side array: the
// index range each dimension may touch, as linear forms over the
// callee's formals, parameters and globals.
type Section struct {
	Write bool
	Dims  []SecDim
}

// SecDim bounds one dimension; Known is false when unanalyzable.
type SecDim struct {
	Lo, Hi expr.Linear
	Known  bool
}

// Summary is the interprocedural summary of one unit: which visible
// variables (formals and COMMON members) it may reference or modify,
// which scalars it definitely kills, and the array sections it
// touches.
type Summary struct {
	Unit *fortran.Unit
	Mod  map[*fortran.Symbol]bool
	Ref  map[*fortran.Symbol]bool
	// UpRef is the subset of Ref whose values flow in from the
	// caller (upward-exposed uses): only these make a call a true
	// *reader* of the variable. For a routine that kills an array
	// before using it, the array is in Ref but not UpRef — the
	// distinction array privatization depends on.
	UpRef map[*fortran.Symbol]bool
	// Kill holds scalars definitely assigned on every control-flow
	// path through the unit.
	Kill map[*fortran.Symbol]bool
	// Sections maps arrays to their touched sections.
	Sections map[*fortran.Symbol][]Section
	// KillArrays holds arrays fully overwritten on every path (array
	// kill analysis, needed for array privatization in arc3d/slab2d).
	KillArrays map[*fortran.Symbol]bool
	// killLoop records the covering loop that kills each array, used
	// to decide whether the kill precedes every other access.
	killLoop map[*fortran.Symbol]*fortran.DoStmt
	// Conservative marks summaries degraded by recursion or
	// unanalyzable constructs: treat as mod/ref everything visible.
	Conservative bool
}

// Program bundles the file-level interprocedural results.
type Program struct {
	File      *fortran.File
	Graph     *CallGraph
	Summaries map[*fortran.Unit]*Summary
	// ConstFormals maps each unit's formal parameters to the constant
	// every call site passes (interprocedural constant propagation).
	ConstFormals map[*fortran.Unit]map[*fortran.Symbol]int64
	// solved holds the data-flow solve AnalyzeProgram summarized each
	// unit from, until TakeAnalyses hands them on.
	solved map[*fortran.Unit]*dataflow.Analysis
}

// AnalyzeProgram computes summaries bottom-up over the call graph.
func AnalyzeProgram(f *fortran.File) *Program {
	p := &Program{
		File:         f,
		Graph:        BuildCallGraph(f),
		Summaries:    map[*fortran.Unit]*Summary{},
		ConstFormals: map[*fortran.Unit]map[*fortran.Symbol]int64{},
		solved:       map[*fortran.Unit]*dataflow.Analysis{},
	}
	for _, u := range p.Graph.BottomUp {
		p.Summaries[u], p.solved[u] = p.summarize(u)
	}
	p.propagateConstFormals()
	return p
}

// TakeAnalyses returns, and forgets, the data-flow solve AnalyzeProgram
// summarized each unit from: dataflow.Analyze of the unit under
// &Effects{Prog: p}, since it read only final callee summaries. A unit
// on a recursion cycle is not solved, and neither is one whose solve met
// a call to a unit not yet summarized.
func (p *Program) TakeAnalyses() map[*fortran.Unit]*dataflow.Analysis {
	out := p.solved
	p.solved = nil
	return out
}

// summaryEffects is Effects that notes a call resolved to a unit with no
// summary yet (a CALL of a function is outside the call graph's order):
// the solve then saw conservative effects where the unit's own analysis,
// after the pass, sees the summary.
type summaryEffects struct {
	Effects
	early bool
}

func (e *summaryEffects) CallEffects(u *fortran.Unit, callee string, args []fortran.Expr, s fortran.Stmt) []dataflow.Access {
	if t := e.Prog.File.Unit(callee); t != nil && t.Kind != fortran.UnitProgram && e.Prog.Summaries[t] == nil {
		e.early = true
	}
	return e.Effects.CallEffects(u, callee, args, s)
}

// summarize computes unit u's summary; callee summaries are already
// available (bottom-up order). It returns the data-flow solve the
// summary was read from when that solve is the unit's own analysis
// (see TakeAnalyses), and nil otherwise.
func (p *Program) summarize(u *fortran.Unit) (*Summary, *dataflow.Analysis) {
	s := &Summary{
		Unit:       u,
		Mod:        map[*fortran.Symbol]bool{},
		Ref:        map[*fortran.Symbol]bool{},
		UpRef:      map[*fortran.Symbol]bool{},
		Kill:       map[*fortran.Symbol]bool{},
		Sections:   map[*fortran.Symbol][]Section{},
		KillArrays: map[*fortran.Symbol]bool{},
		killLoop:   map[*fortran.Symbol]*fortran.DoStmt{},
	}
	if p.Graph.Recursive[u] {
		s.Conservative = true
		for _, sym := range u.SymbolsSorted() {
			if visible(sym) {
				s.Mod[sym] = true
				s.Ref[sym] = true
				s.UpRef[sym] = true
			}
		}
		return s, nil
	}
	eff := &summaryEffects{Effects: Effects{Prog: p}}
	df := dataflow.Analyze(u, eff)
	// Mod/Ref from the statement accesses (which already include
	// translated callee effects via Effects).
	fortran.WalkStmts(u.Body, func(st fortran.Stmt) bool {
		for _, ac := range df.Accesses(st) {
			if !visible(ac.Sym) {
				continue
			}
			if ac.Write {
				s.Mod[ac.Sym] = true
			} else {
				s.Ref[ac.Sym] = true
			}
		}
		return true
	})
	for sym := range df.UpwardExposed() {
		if visible(sym) && s.Ref[sym] {
			s.UpRef[sym] = true
		}
	}
	p.computeKill(u, df, s)
	p.computeSections(u, df, s)
	// Element-granular liveness cannot see that a covering loop kills
	// a whole array: when the array-kill loop precedes every other
	// access to the array, the array is not really upward exposed.
	for arr, kill := range s.killLoop {
		if !s.UpRef[arr] {
			continue
		}
		if arrayKillIsFirstAccess(u, df, arr, kill) {
			delete(s.UpRef, arr)
		}
	}
	if eff.early {
		return s, nil
	}
	df.Eff = &eff.Effects
	return s, df
}

// visible reports whether a symbol is visible to callers: a dummy
// argument or a COMMON member.
func visible(sym *fortran.Symbol) bool {
	return sym.Dummy || sym.Common != ""
}

// computeKill finds visible scalars definitely assigned on every path
// from entry to exit (flow-sensitive Kill analysis) and arrays fully
// overwritten by unconditional covering loops (array kill).
func (p *Program) computeKill(u *fortran.Unit, df *dataflow.Analysis, s *Summary) {
	// Definite assignment: forward must-analysis over the CFG. Only
	// visible scalars reach Kill, and a must-analysis decides each
	// symbol apart, so no other symbol enters the sets.
	tracked := func(sym *fortran.Symbol) bool { return visible(sym) && sym.Kind == fortran.SymScalar }
	g := df.G
	assigned := map[*cfg.Node]map[*fortran.Symbol]bool{}
	order := g.Nodes
	changed := true
	for changed {
		changed = false
		for _, n := range order {
			var in map[*fortran.Symbol]bool
			first := true
			for _, pr := range n.Preds {
				po := assigned[pr]
				if po == nil {
					continue // unvisited: optimistic
				}
				if first {
					in = map[*fortran.Symbol]bool{}
					for k := range po {
						in[k] = true
					}
					first = false
				} else {
					for k := range in {
						if !po[k] {
							delete(in, k)
						}
					}
				}
			}
			if in == nil {
				in = map[*fortran.Symbol]bool{}
			}
			if n.Stmt != nil {
				for _, ac := range df.Accesses(n.Stmt) {
					if ac.Write && !ac.Partial && tracked(ac.Sym) {
						in[ac.Sym] = true
					}
				}
				// A call that kills a visible scalar kills it here too.
				if call, ok := n.Stmt.(*fortran.CallStmt); ok && call.Callee != nil {
					if cs := p.Summaries[call.Callee]; cs != nil {
						for formal := range cs.Kill {
							if actual := boundActual(call.Args, call.Callee, formal); actual != nil {
								if vr, ok := actual.(*fortran.VarRef); ok && vr.Sym != nil && len(vr.Subs) == 0 && tracked(vr.Sym) {
									in[vr.Sym] = true
								}
							}
						}
					}
				}
			}
			// An empty set must still be stored: a nil entry means
			// "unvisited" and is skipped by the meet above.
			if assigned[n] == nil || !sameSet(assigned[n], in) {
				assigned[n] = in
				changed = true
			}
		}
	}
	for sym := range assigned[g.Exit] {
		s.Kill[sym] = true
	}
	// Array kill: an unconditional top-level loop covering the full
	// declared extent with a direct write a(k).
	for _, st := range u.Body {
		do, ok := st.(*fortran.DoStmt)
		if !ok {
			continue
		}
		p.detectArrayKill(u, do, s)
	}
}

// arrayKillIsFirstAccess reports whether the covering kill loop is
// the first access to arr in the unit: no statement that executes
// before the kill loop (conservatively, any statement preceding it in
// the pre-order walk of the body) touches the array.
func arrayKillIsFirstAccess(u *fortran.Unit, df *dataflow.Analysis, arr *fortran.Symbol, kill *fortran.DoStmt) bool {
	// The kill loop itself must not read the array: a sweep like
	// x(i) = x(i) + 1 covers every element yet still consumes the
	// incoming values.
	readsInKill := false
	fortran.WalkStmts(kill.Body, func(s fortran.Stmt) bool {
		for _, ac := range df.Accesses(s) {
			if ac.Sym == arr && !ac.Write {
				readsInKill = true
			}
		}
		return !readsInKill
	})
	if readsInKill {
		return false
	}
	beforeKill := true
	clean := true
	fortran.WalkStmts(u.Body, func(s fortran.Stmt) bool {
		if s == kill {
			beforeKill = false
			return false // the kill loop itself was checked above
		}
		if !beforeKill {
			return false
		}
		for _, ac := range df.Accesses(s) {
			if ac.Sym == arr {
				clean = false
			}
		}
		return clean
	})
	return clean
}

func sameSet(a, b map[*fortran.Symbol]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// detectArrayKill recognizes loops (possibly nested) writing every
// element of a visible array: do k = 1, n ⇒ a(k) = … with the loop
// bounds matching the declared dimension.
func (p *Program) detectArrayKill(u *fortran.Unit, do *fortran.DoStmt, s *Summary) {
	// Collect the perfect nest.
	var loops []*fortran.DoStmt
	cur := do
	for {
		loops = append(loops, cur)
		if len(cur.Body) == 1 {
			if inner, ok := cur.Body[0].(*fortran.DoStmt); ok {
				cur = inner
				continue
			}
		}
		break
	}
	for _, st := range cur.Body {
		as, ok := st.(*fortran.AssignStmt)
		if !ok || as.Lhs.Sym == nil || !as.Lhs.Sym.IsArray() || !visible(as.Lhs.Sym) {
			continue
		}
		arr := as.Lhs.Sym
		if len(as.Lhs.Subs) != len(arr.Dims) || len(as.Lhs.Subs) > len(loops) {
			continue
		}
		// Each subscript must be exactly one loop variable whose
		// bounds span the declared dimension.
		covered := true
		for d, sub := range as.Lhs.Subs {
			vr, ok := sub.(*fortran.VarRef)
			if !ok || len(vr.Subs) != 0 {
				covered = false
				break
			}
			var loop *fortran.DoStmt
			for _, lp := range loops {
				if lp.Var == vr.Sym {
					loop = lp
				}
			}
			if loop == nil || !boundsMatchDim(u, loop, arr.Dims[d]) {
				covered = false
				break
			}
		}
		if covered {
			s.KillArrays[arr] = true
			s.Kill[arr] = true
			if s.killLoop[arr] == nil {
				s.killLoop[arr] = do
			}
		}
	}
}

func boundsMatchDim(u *fortran.Unit, do *fortran.DoStmt, dim fortran.Dimension) bool {
	if do.Step != nil {
		return false
	}
	lo, ok1 := expr.Linearize(u, do.Lo)
	hi, ok2 := expr.Linearize(u, do.Hi)
	if !ok1 || !ok2 {
		return false
	}
	dLo := expr.Con(1)
	if dim.Lo != nil {
		var ok bool
		dLo, ok = expr.Linearize(u, dim.Lo)
		if !ok {
			return false
		}
	}
	if dim.Hi == nil {
		return false
	}
	dHi, ok := expr.Linearize(u, dim.Hi)
	if !ok {
		return false
	}
	return lo.Equal(dLo) && hi.Equal(dHi)
}

// computeSections derives bounded regular sections for every visible
// array the unit touches directly.
func (p *Program) computeSections(u *fortran.Unit, df *dataflow.Analysis, s *Summary) {
	fortran.WalkStmts(u.Body, func(st fortran.Stmt) bool {
		for _, ac := range df.Accesses(st) {
			if !ac.Sym.IsArray() || !visible(ac.Sym) {
				continue
			}
			if ac.Ref == nil || len(ac.Ref.Subs) == 0 {
				// Call side effect or whole-array pass: translate the
				// callee's sections if this is a call we can see
				// through; otherwise mark unknown.
				s.addSection(ac.Sym, Section{Write: ac.Write, Dims: make([]SecDim, len(ac.Sym.Dims))})
				continue
			}
			sec := Section{Write: ac.Write}
			for _, sub := range ac.Ref.Subs {
				sec.Dims = append(sec.Dims, projectDim(u, df, sub))
			}
			s.addSection(ac.Sym, sec)
		}
		return true
	})
}

// projectDim turns a subscript into formal-only bounds by replacing
// each loop variable with its loop bounds.
func projectDim(u *fortran.Unit, df *dataflow.Analysis, sub fortran.Expr) SecDim {
	lin, ok := expr.Linearize(u, sub)
	if !ok {
		return SecDim{}
	}
	loopOf := map[*fortran.Symbol]*cfg.Loop{}
	for _, l := range df.Tree.All {
		loopOf[l.Do.Var] = l
	}
	lo, hi := lin, lin
	for iter := 0; iter < 10; iter++ {
		replaced := false
		for _, t := range lo.Terms {
			if l, isLV := loopOf[t.Sym]; isLV {
				b, ok := loopBoundLin(u, l, t.Coef > 0, true)
				if !ok {
					return SecDim{}
				}
				lo = lo.Subst(t.Sym, b)
				replaced = true
				break
			}
		}
		for _, t := range hi.Terms {
			if l, isLV := loopOf[t.Sym]; isLV {
				b, ok := loopBoundLin(u, l, t.Coef > 0, false)
				if !ok {
					return SecDim{}
				}
				hi = hi.Subst(t.Sym, b)
				replaced = true
				break
			}
		}
		if !replaced {
			break
		}
	}
	// All remaining symbols must be formals, params or commons.
	for _, t := range lo.Terms {
		if !visible(t.Sym) && t.Sym.Kind != fortran.SymParam {
			return SecDim{}
		}
	}
	for _, t := range hi.Terms {
		if !visible(t.Sym) && t.Sym.Kind != fortran.SymParam {
			return SecDim{}
		}
	}
	return SecDim{Lo: lo, Hi: hi, Known: true}
}

// loopBoundLin returns the loop's lower (forLo && positive coef) or
// upper bound as a linear form. Negative steps are rejected.
func loopBoundLin(u *fortran.Unit, l *cfg.Loop, coefPositive, forLo bool) (expr.Linear, bool) {
	if l.Do.Step != nil {
		st, ok := expr.Linearize(u, l.Do.Step)
		if !ok || !st.IsConst() || st.Const <= 0 {
			return expr.Linear{}, false
		}
	}
	wantLower := coefPositive == forLo
	var e fortran.Expr
	if wantLower {
		e = l.Do.Lo
	} else {
		e = l.Do.Hi
	}
	return expr.Linearize(u, e)
}

// addSection merges a new section into the summary, keeping one
// merged hull per (array, write) when bounds are comparable.
func (s *Summary) addSection(sym *fortran.Symbol, sec Section) {
	list := s.Sections[sym]
	for i := range list {
		if list[i].Write == sec.Write {
			list[i] = mergeSections(list[i], sec)
			s.Sections[sym] = list
			return
		}
	}
	s.Sections[sym] = append(list, sec)
}

func mergeSections(a, b Section) Section {
	n := len(a.Dims)
	if len(b.Dims) != n {
		return Section{Write: a.Write, Dims: make([]SecDim, max(len(a.Dims), len(b.Dims)))}
	}
	out := Section{Write: a.Write, Dims: make([]SecDim, n)}
	for i := 0; i < n; i++ {
		out.Dims[i] = mergeDims(a.Dims[i], b.Dims[i])
	}
	return out
}

// mergeDims widens two dimension bounds. Bounds whose difference is a
// known constant merge exactly; otherwise the dimension degrades to
// unknown.
func mergeDims(a, b SecDim) SecDim {
	if !a.Known || !b.Known {
		return SecDim{}
	}
	lo, ok1 := minLinear(a.Lo, b.Lo)
	hi, ok2 := maxLinear(a.Hi, b.Hi)
	if !ok1 || !ok2 {
		return SecDim{}
	}
	return SecDim{Lo: lo, Hi: hi, Known: true}
}

func minLinear(a, b expr.Linear) (expr.Linear, bool) {
	d := a.Sub(b)
	if !d.IsConst() {
		return expr.Linear{}, false
	}
	if d.Const <= 0 {
		return a, true
	}
	return b, true
}

func maxLinear(a, b expr.Linear) (expr.Linear, bool) {
	d := a.Sub(b)
	if !d.IsConst() {
		return expr.Linear{}, false
	}
	if d.Const >= 0 {
		return a, true
	}
	return b, true
}

// ---------------------------------------------------------------------------
// Interprocedural constants

// propagateConstFormals records formals that receive the same integer
// constant at every call site.
func (p *Program) propagateConstFormals() {
	for _, u := range p.File.Units {
		sites := p.Graph.Callers[u]
		if len(sites) == 0 {
			continue
		}
		vals := map[*fortran.Symbol]int64{}
		bad := map[*fortran.Symbol]bool{}
		for si, site := range sites {
			args := site.Args()
			for i, formal := range u.Args {
				if i >= len(args) {
					bad[formal] = true
					continue
				}
				il, ok := args[i].(*fortran.IntLit)
				if !ok {
					bad[formal] = true
					continue
				}
				if si == 0 {
					vals[formal] = il.Val
				} else if prev, seen := vals[formal]; !seen || prev != il.Val {
					bad[formal] = true
				}
			}
		}
		out := map[*fortran.Symbol]int64{}
		for sym, v := range vals {
			if !bad[sym] {
				out[sym] = v
			}
		}
		if len(out) > 0 {
			p.ConstFormals[u] = out
		}
	}
}

// ConstEnv returns an assertion environment seeding the unit's
// constant formals, or nil.
func (p *Program) ConstEnv(u *fortran.Unit) *expr.Env {
	vals := p.ConstFormals[u]
	if len(vals) == 0 {
		return nil
	}
	env := expr.NewEnv()
	for sym, v := range vals {
		env.SetValue(sym, v)
	}
	return env
}

// boundActual returns the actual expression bound to the callee's
// formal, or nil.
func boundActual(args []fortran.Expr, callee *fortran.Unit, formal *fortran.Symbol) fortran.Expr {
	for i, f := range callee.Args {
		if f == formal && i < len(args) {
			return args[i]
		}
	}
	return nil
}
