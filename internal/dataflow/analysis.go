package dataflow

import (
	"slices"

	"parascope/internal/cfg"
	"parascope/internal/fortran"
)

// Analysis bundles the scalar data-flow results for one unit.
//
// Every per-statement table is a slice indexed by cfg.Node.Index and
// every set is a bitset over the unit's dense symbol index, so each
// fact is stored once on the node it describes.
type Analysis struct {
	Unit *fortran.Unit
	G    *cfg.Graph
	Tree *cfg.LoopTree
	Eff  SideEffects

	accesses [][]Access // by node

	// symIndex numbers every accessed symbol densely; syms is its
	// inverse. The assigned flags and the liveness sets use it.
	symIndex map[*fortran.Symbol]int
	syms     []*fortran.Symbol

	assigned []bool // by symbol index: some statement of the unit writes it

	liveIn  []bitset // by node, over symIndex
	liveOut []bitset

	consts []Consts // by node: known constants at entry
}

// Analyze runs all scalar analyses on unit u. A nil eff defaults to
// conservative call effects.
func Analyze(u *fortran.Unit, eff SideEffects) *Analysis {
	a := newAnalysis(u, eff)
	a.markAssigned()
	a.solveLiveness()
	a.propagateConstants()
	return a
}

// AnalyzeConstants builds only what loop trip counts and statement
// costs are read from: the CFG, the loop tree, the per-statement
// accesses and constant propagation, which needs no liveness. The
// result answers Accesses, ConstAt, EnvAt and TripCount; Assigned and
// the liveness queries must not be called on it.
func AnalyzeConstants(u *fortran.Unit, eff SideEffects) *Analysis {
	a := newAnalysis(u, eff)
	a.propagateConstants()
	return a
}

// ConservativeConstants answers what AnalyzeConstants(a.Unit, nil)
// would — Accesses, ConstAt, EnvAt and TripCount under conservative call
// effects — from the analysis in hand. Only the statements that call out
// (CallsUser) have accesses that depend on the effects, so the analysis
// itself answers when its effects are conservative or no statement
// calls out. Otherwise the result is a view sharing the CFG, the loop
// tree and every other node's accesses, with the call nodes' accesses
// collected again under ConservativeEffects and constants propagated
// over them; like AnalyzeConstants' result it must not be asked Assigned
// or the liveness queries.
func (a *Analysis) ConservativeConstants() *Analysis {
	if _, ok := a.Eff.(ConservativeEffects); ok {
		return a
	}
	var v *Analysis
	for _, n := range a.G.Nodes {
		if n.Stmt == nil || !CallsUser(n.Stmt) {
			continue
		}
		if v == nil {
			v = &Analysis{Unit: a.Unit, G: a.G, Tree: a.Tree, Eff: ConservativeEffects{}, accesses: slices.Clone(a.accesses)}
		}
		v.accesses[n.Index] = StmtAccesses(a.Unit, n.Stmt, v.Eff)
	}
	if v == nil {
		return a
	}
	v.propagateConstants()
	return v
}

// newAnalysis builds the tables every solver starts from: CFG, loop
// tree and the accesses of every node.
func newAnalysis(u *fortran.Unit, eff SideEffects) *Analysis {
	if eff == nil {
		eff = ConservativeEffects{}
	}
	a := &Analysis{
		Unit:     u,
		G:        cfg.Build(u),
		Tree:     cfg.BuildLoopTree(u),
		Eff:      eff,
		symIndex: map[*fortran.Symbol]int{},
	}
	a.accesses = make([][]Access, len(a.G.Nodes))
	for _, n := range a.G.Nodes {
		if n.Stmt != nil {
			a.accesses[n.Index] = StmtAccesses(u, n.Stmt, eff)
		}
	}
	return a
}

// markAssigned numbers the accessed symbols and flags those some
// statement of the unit writes.
func (a *Analysis) markAssigned() {
	for _, acc := range a.accesses {
		a.indexSymbols(acc)
	}
	a.assigned = make([]bool, len(a.syms))
	for _, acc := range a.accesses {
		for _, ac := range acc {
			if ac.Write {
				a.assigned[a.symIndex[ac.Sym]] = true
			}
		}
	}
}

// indexSymbols gives every symbol of acc a dense index.
func (a *Analysis) indexSymbols(acc []Access) {
	for _, ac := range acc {
		if _, ok := a.symIndex[ac.Sym]; !ok {
			a.symIndex[ac.Sym] = len(a.syms)
			a.syms = append(a.syms, ac.Sym)
		}
	}
}

// Accesses returns the accesses of the statement's node.
func (a *Analysis) Accesses(s fortran.Stmt) []Access {
	if n := a.G.NodeFor(s); n != nil {
		return a.accesses[n.Index]
	}
	return nil
}

// Assigned reports whether some statement of the unit writes sym.
func (a *Analysis) Assigned(sym *fortran.Symbol) bool {
	// A symbol first read by a patched-in statement has an index past
	// the flags and is written nowhere.
	i, ok := a.symIndex[sym]
	return ok && i < len(a.assigned) && a.assigned[i]
}

// newBitsets carves count bitsets of n bits each from one allocation.
func newBitsets(count, n int) []bitset {
	words := (n + 63) / 64
	slab := make([]uint64, count*words)
	out := make([]bitset, count)
	for i := range out {
		out[i] = slab[i*words : (i+1)*words : (i+1)*words]
	}
	return out
}

// ---------------------------------------------------------------------------
// Liveness

func (a *Analysis) solveLiveness() {
	nodes := a.G.Nodes
	n := len(a.syms)
	sets := newBitsets(4*len(nodes), n)
	a.liveIn, a.liveOut = sets[:len(nodes)], sets[len(nodes):2*len(nodes)]
	// in = uses ∪ (out - full defs)
	use, def := sets[2*len(nodes):3*len(nodes)], sets[3*len(nodes):]
	for i, acc := range a.accesses {
		for _, ac := range acc {
			switch {
			case !ac.Write:
				use[i].set(a.symIndex[ac.Sym])
			case !ac.Partial:
				def[i].set(a.symIndex[ac.Sym])
			}
		}
	}
	tmp := newBitset(n)
	changed := true
	for changed {
		changed = false
		// Backward problem: iterate nodes in reverse index order as a
		// decent approximation of reverse program order.
		for i := len(nodes) - 1; i >= 0; i-- {
			out := a.liveOut[i]
			for _, s := range nodes[i].Succs {
				if out.orInto(a.liveIn[s.Index]) {
					changed = true
				}
			}
			tmp.copyFrom(out)
			tmp.andNotInto(def[i])
			tmp.orInto(use[i])
			if a.liveIn[i].orInto(tmp) {
				changed = true
			}
		}
	}
}

// live reports whether sym's bit is set in a liveness set.
func (a *Analysis) live(set bitset, sym *fortran.Symbol) bool {
	i, ok := a.symIndex[sym]
	return ok && set.has(i)
}

// UpwardExposed returns the variables whose values may be consumed
// before the unit assigns them — liveness at procedure entry. A call
// only truly *reads* its upward-exposed variables; reads satisfied by
// the callee's own writes stay internal.
func (a *Analysis) UpwardExposed() map[*fortran.Symbol]bool {
	out := map[*fortran.Symbol]bool{}
	a.liveIn[a.G.Entry.Index].forEach(func(i int) {
		out[a.syms[i]] = true
	})
	return out
}

// LiveOut reports whether sym is live after statement s.
func (a *Analysis) LiveOut(s fortran.Stmt, sym *fortran.Symbol) bool {
	node := a.G.NodeFor(s)
	return node != nil && a.live(a.liveOut[node.Index], sym)
}

// LiveOutOfLoop reports whether sym is live on any loop-exit edge of
// the loop (i.e. its value may be consumed after the loop finishes).
func (a *Analysis) LiveOutOfLoop(l *cfg.Loop, sym *fortran.Symbol) bool {
	header := a.G.NodeFor(l.Do)
	if header == nil {
		return true
	}
	inLoop := map[*cfg.Node]bool{header: true}
	for _, s := range l.Stmts() {
		if n := a.G.NodeFor(s); n != nil {
			inLoop[n] = true
		}
	}
	for n := range inLoop {
		for _, succ := range n.Succs {
			if !inLoop[succ] && a.live(a.liveIn[succ.Index], sym) {
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Constant propagation

type constVal struct {
	known bool // known constant (otherwise ⊥/⊤ collapsed to unknown)
	val   int64
}

// propagateConstants runs a forward integer constant propagation:
// state maps integer scalars to known values at node entry.
func (a *Analysis) propagateConstants() {
	// Iterate to fixpoint. The lattice per symbol is
	// unknown-top → const → bottom; we start optimistic at top
	// (absent) and meet over predecessors.
	//
	// A state, once stored in in or out, is never written again, so a
	// node whose meet or transfer changes nothing shares its
	// predecessor's map instead of copying it.
	in := make([]Consts, len(a.G.Nodes))
	out := make([]Consts, len(a.G.Nodes))
	visited := make([]bool, len(a.G.Nodes)) // out[i] holds a transfer result, possibly the empty state
	clone := func(src Consts) Consts {
		cp := make(Consts, len(src))
		for k, v := range src {
			cp[k] = v
		}
		return cp
	}
	empty := Consts{}
	// Evaluate an expression under a constant state.
	var eval func(state map[*fortran.Symbol]constVal, e fortran.Expr) (int64, bool)
	eval = func(state map[*fortran.Symbol]constVal, e fortran.Expr) (int64, bool) {
		switch x := e.(type) {
		case *fortran.IntLit:
			return x.Val, true
		case *fortran.VarRef:
			if len(x.Subs) > 0 || x.Sym == nil {
				return 0, false
			}
			if x.Sym.Kind == fortran.SymParam {
				if il, ok := x.Sym.Value.(*fortran.IntLit); ok {
					return il.Val, true
				}
				return 0, false
			}
			if cv, ok := state[x.Sym]; ok && cv.known {
				return cv.val, true
			}
			return 0, false
		case *fortran.Unary:
			if x.Op == fortran.TokMinus {
				if v, ok := eval(state, x.X); ok {
					return -v, true
				}
			}
			return 0, false
		case *fortran.Binary:
			lv, lok := eval(state, x.X)
			rv, rok := eval(state, x.Y)
			if !lok || !rok {
				return 0, false
			}
			switch x.Op {
			case fortran.TokPlus:
				return lv + rv, true
			case fortran.TokMinus:
				return lv - rv, true
			case fortran.TokStar:
				return lv * rv, true
			case fortran.TokSlash:
				if rv != 0 {
					return lv / rv, true
				}
			}
			return 0, false
		}
		return 0, false
	}
	transfer := func(node *cfg.Node, state Consts) Consts {
		if node.Stmt == nil {
			return state
		}
		switch st := node.Stmt.(type) {
		case *fortran.AssignStmt:
			sym := st.Lhs.Sym
			if sym != nil && sym.Kind == fortran.SymScalar && sym.Type == fortran.TypeInteger && len(st.Lhs.Subs) == 0 {
				old, had := state[sym]
				v, ok := eval(state, st.Rhs)
				switch {
				case ok && had && old.val == v, !ok && !had:
					return state
				case ok:
					res := clone(state)
					res[sym] = constVal{known: true, val: v}
					return res
				default:
					res := clone(state)
					delete(res, sym)
					return res
				}
			}
		}
		// Any other statement: invalidate symbols it may write.
		res, shared := state, true
		for _, ac := range a.accesses[node.Index] {
			if !ac.Write {
				continue
			}
			if _, had := res[ac.Sym]; had {
				if shared {
					res, shared = clone(state), false
				}
				delete(res, ac.Sym)
			}
		}
		return res
	}
	changedGlobal := true
	for iter := 0; changedGlobal && iter < 100; iter++ {
		changedGlobal = false
		for _, node := range a.G.Nodes {
			// Meet over the visited predecessors; an unvisited one is
			// optimistic TOP and skipped.
			var st Consts
			shared := false // st is a predecessor's own map
			for _, p := range node.Preds {
				if !visited[p.Index] {
					continue
				}
				po := out[p.Index]
				if st == nil {
					st, shared = po, true
					continue
				}
				for k, v := range st {
					if pv, ok := po[k]; ok && pv == v {
						continue
					}
					if shared {
						st, shared = clone(st), false
					}
					delete(st, k)
				}
			}
			if st == nil {
				st = empty
			}
			in[node.Index] = st
			newOut := transfer(node, st)
			if !visited[node.Index] || !constStateEqual(out[node.Index], newOut) {
				out[node.Index], visited[node.Index] = newOut, true
				changedGlobal = true
			}
		}
	}
	a.consts = in
}

func constStateEqual(a, b map[*fortran.Symbol]constVal) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// Consts is the set of integer scalars with a known constant value at
// entry to one statement. It is a view of the analysis's own table:
// read it, never write it.
type Consts map[*fortran.Symbol]constVal

// Value returns sym's constant value when known.
func (c Consts) Value(sym *fortran.Symbol) (int64, bool) {
	cv, ok := c[sym]
	return cv.val, ok && cv.known
}

// ConstsAt returns the constants known at entry to statement s.
func (a *Analysis) ConstsAt(s fortran.Stmt) Consts {
	node := a.G.NodeFor(s)
	if node == nil {
		return nil
	}
	return a.consts[node.Index]
}

// ConstAt returns sym's known constant value at entry to statement s.
func (a *Analysis) ConstAt(s fortran.Stmt, sym *fortran.Symbol) (int64, bool) {
	return a.ConstsAt(s).Value(sym)
}
