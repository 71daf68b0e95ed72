package dataflow

import (
	"parascope/internal/cfg"
	"parascope/internal/fortran"
)

// PrivResult describes whether a scalar may be made private to a loop.
type PrivResult struct {
	Privatizable bool
	// NeedsLastValue is set when the scalar is privatizable inside
	// the loop but its value is consumed after it, so parallelization
	// must copy the last iteration's value out.
	NeedsLastValue bool
	// Reason explains a negative verdict for the variable pane.
	Reason string
}

// Privatizable determines whether scalar sym can be made private to
// loop l: it must be (fully) assigned inside the loop on every path
// before any use, so no value flows between iterations. This is the
// scalar Kill analysis of the paper (§4): "recognizing scalars that
// are killed on every iteration of a loop and may be made private,
// thus eliminating dependences".
func (a *Analysis) Privatizable(l *cfg.Loop, sym *fortran.Symbol) PrivResult {
	if sym.Kind != fortran.SymScalar {
		return PrivResult{Reason: "not a scalar"}
	}
	return a.privatizableAny(l, sym)
}

// ArrayPrivatizable determines whether an array can be made private
// to the loop: some access must *kill* the whole array (a covering
// write, or a call whose interprocedural summary proves an array
// kill) before any use on every path of an iteration. This is the
// array privatization the paper identifies as required for arc3d and
// slab2d but absent from Ped — implemented here as an extension and
// exposed through the explicit privatize-array transformation.
func (a *Analysis) ArrayPrivatizable(l *cfg.Loop, sym *fortran.Symbol) PrivResult {
	if !sym.IsArray() {
		return PrivResult{Reason: "not an array"}
	}
	return a.privatizableAny(l, sym)
}

func (a *Analysis) privatizableAny(l *cfg.Loop, sym *fortran.Symbol) PrivResult {
	if sym == l.Do.Var {
		return PrivResult{Privatizable: true, Reason: "loop induction variable"}
	}
	hasDef := false
	for _, s := range l.Stmts() {
		for _, ac := range a.Accesses(s) {
			if ac.Sym == sym && ac.Write && !ac.Partial {
				hasDef = true
			}
		}
	}
	if !hasDef {
		return PrivResult{Reason: "never assigned in loop"}
	}
	if len(l.Do.Body) == 0 {
		return PrivResult{Reason: "empty loop body"}
	}
	entry := a.G.NodeFor(l.Do.Body[0])
	if entry == nil {
		return PrivResult{Reason: "no body entry"}
	}
	if a.live(a.liveIn[entry.Index], sym) {
		return PrivResult{Reason: "upward-exposed use: value flows into the iteration"}
	}
	res := PrivResult{Privatizable: true}
	if a.LiveOutOfLoop(l, sym) {
		res.NeedsLastValue = true
	}
	return res
}

// Reductions recognizes scalar reductions in loop l: every access to
// the reduction variable inside the loop occurs in statements of the
// form  s = s op e  (op in {+,-,*}) or  s = max(s,e) / min(s,e),
// with a single consistent operator. (§5 of the paper: "Five of the
// programs contain sum reductions which go unrecognized by Ped" — the
// enhancement implemented here.)
func (a *Analysis) Reductions(l *cfg.Loop) []fortran.Reduction {
	type cand struct {
		op     fortran.TokKind
		opName string
		stmts  map[fortran.Stmt]bool
		ok     bool
	}
	cands := map[*fortran.Symbol]*cand{}
	for _, s := range l.Stmts() {
		as, isAssign := s.(*fortran.AssignStmt)
		if !isAssign {
			continue
		}
		sym := as.Lhs.Sym
		if sym == nil || sym.Kind != fortran.SymScalar || !sym.Type.Numeric() {
			continue
		}
		op, opName, operand, ok := reductionShape(sym, as.Rhs)
		if !ok {
			continue
		}
		if fortran.Mentions(operand, sym) {
			continue
		}
		c := cands[sym]
		if c == nil {
			c = &cand{op: op, opName: opName, stmts: map[fortran.Stmt]bool{}, ok: true}
			cands[sym] = c
		}
		if c.op != op || c.opName != opName {
			c.ok = false
		}
		c.stmts[s] = true
	}
	var out []fortran.Reduction
	for _, s := range l.Stmts() {
		for _, ac := range a.Accesses(s) {
			c := cands[ac.Sym]
			if c == nil {
				continue
			}
			if !c.stmts[s] {
				c.ok = false // accessed outside its reduction statements
			}
		}
	}
	for sym, c := range cands {
		if c.ok {
			out = append(out, fortran.Reduction{Sym: sym, Op: c.op, OpName: c.opName})
		}
	}
	sortReductions(out)
	return out
}

func sortReductions(rs []fortran.Reduction) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Sym.Name < rs[j-1].Sym.Name; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// reductionShape matches rhs against reduction patterns: a +/- chain
// containing sym exactly once as a positive term (sum reduction,
// covering forms like s = s + a(i) + b(i) and s = s - e), a product
// chain containing sym once, and max/min(sym, e). It returns the
// reduction operator and a representative non-recurring operand.
func reductionShape(sym *fortran.Symbol, rhs fortran.Expr) (fortran.TokKind, string, fortran.Expr, bool) {
	isSym := func(e fortran.Expr) bool {
		vr, ok := e.(*fortran.VarRef)
		return ok && vr.Sym == sym && len(vr.Subs) == 0
	}
	// Sum chain: flatten over +/-.
	if op, operand, ok := matchChain(sym, rhs, fortran.TokPlus, isSym); ok {
		return op, "", operand, true
	}
	if op, operand, ok := matchChain(sym, rhs, fortran.TokStar, isSym); ok {
		return op, "", operand, true
	}
	switch x := rhs.(type) {
	case *fortran.FuncCall:
		if (x.Name == "max" || x.Name == "min" || x.Name == "amax1" || x.Name == "amin1") && len(x.Args) == 2 {
			name := x.Name
			if name == "amax1" {
				name = "max"
			}
			if name == "amin1" {
				name = "min"
			}
			if isSym(x.Args[0]) {
				return fortran.TokIdent, name, x.Args[1], true
			}
			if isSym(x.Args[1]) {
				return fortran.TokIdent, name, x.Args[0], true
			}
		}
	}
	return 0, "", nil, false
}

// matchChain flattens rhs over the associative operator (TokPlus
// flattens +/- with signs; TokStar flattens *) and reports a
// reduction when sym appears exactly once, positively, as a direct
// leaf and in no other leaf. The returned operand is the remaining
// chain's first leaf (used only for the self-reference check).
func matchChain(sym *fortran.Symbol, rhs fortran.Expr, op fortran.TokKind,
	isSym func(fortran.Expr) bool) (fortran.TokKind, fortran.Expr, bool) {

	type leaf struct {
		e   fortran.Expr
		pos bool
	}
	var leaves []leaf
	var flatten func(e fortran.Expr, pos bool)
	flatten = func(e fortran.Expr, pos bool) {
		if b, ok := e.(*fortran.Binary); ok {
			switch {
			case op == fortran.TokPlus && b.Op == fortran.TokPlus:
				flatten(b.X, pos)
				flatten(b.Y, pos)
				return
			case op == fortran.TokPlus && b.Op == fortran.TokMinus:
				flatten(b.X, pos)
				flatten(b.Y, !pos)
				return
			case op == fortran.TokStar && b.Op == fortran.TokStar:
				flatten(b.X, pos)
				flatten(b.Y, pos)
				return
			}
		}
		leaves = append(leaves, leaf{e: e, pos: pos})
	}
	flatten(rhs, true)
	if len(leaves) < 2 {
		return 0, nil, false
	}
	symCount := 0
	var operand fortran.Expr
	for _, l := range leaves {
		if isSym(l.e) {
			if !l.pos {
				return 0, nil, false // s = e - s is not a reduction
			}
			symCount++
			continue
		}
		if fortran.Mentions(l.e, sym) {
			return 0, nil, false // sym buried in another operand
		}
		if operand == nil {
			operand = l.e
		}
	}
	if symCount != 1 || operand == nil {
		return 0, nil, false
	}
	return op, operand, true
}
