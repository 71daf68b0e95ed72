package codegen

import (
	"fmt"

	"parascope/internal/fortran"
)

// genDo lowers a DO loop. The loop protocol is parrt's, the package
// the interpreter imports and every generated program requires: the
// emitted code asks it for the trip count (parrt.New through the
// prelude's Must — a zero step is a runtime error, as in the
// interpreter), the loop variable's values, and — for a loop marked
// `c$par doall` — whether and how wide to fork. Only storage and the
// counted for loop around the body are emitted here.
func (g *gen) genDo(st *fortran.DoStmt) {
	k := g.tmp
	g.tmp++
	ivar := st.Var
	if ivar == nil {
		g.decline("DO loop without a control variable")
	}
	if g.symType(ivar) != tInt {
		g.decline("non-integer DO variable %s", ivar.Name)
	}

	g.w("{")
	g.ind++
	// One statement per control expression keeps the interpreter's
	// evaluation order (lo, hi, step) whatever the expressions call.
	g.w("lo%d := %s", k, g.toInt(g.expr(st.Lo)))
	g.w("hi%d := %s", k, g.toInt(g.expr(st.Hi)))
	step := intLit(1)
	if st.Step != nil {
		g.w("st%d := %s", k, g.toInt(g.expr(st.Step)))
		step = fmt.Sprintf("st%d", k)
	}
	g.w("l%d := Must(parrt.New(lo%d, hi%d, %s))", k, k, k, step)
	if st.Parallel {
		g.w("if nw%d := l%d.Fork(*Workers); nw%d > 0 {", k, k, k)
		g.ind++
		g.genDoall(st, k)
		g.ind--
		g.w("} else {")
		g.ind++
		g.genSeqBody(st, k)
		g.ind--
		g.w("}")
	} else {
		g.genSeqBody(st, k)
	}
	g.ind--
	g.w("}")
}

func (g *gen) genSeqBody(st *fortran.DoStmt, k int) {
	iv := g.scalRef(st.Var)
	g.w("for n%d := %s; n%d < l%d.Trip; n%d++ {", k, intLit(0), k, k, k)
	g.ind++
	g.w("%s = l%d.Index(n%d)", iv, k, k)
	g.stmts(st.Body)
	g.ind--
	g.w("}")
	g.w("%s = l%d.Final()", iv, k)
}

// checkParallelBody declines constructs whose execution inside a
// DOALL worker the interpreter treats as an error (escaping control
// flow) or that would race on shared interpreter state (READ).
func (g *gen) checkParallelBody(body []fortran.Stmt, stack [][]fortran.Stmt) {
	for _, s := range body {
		switch st := s.(type) {
		case *fortran.ReturnStmt, *fortran.StopStmt:
			g.decline("control flow escaping a parallel loop")
		case *fortran.ReadStmt:
			g.decline("READ inside a parallel loop")
		case *fortran.GotoStmt:
			if !g.resolveGotoIn(stack, st.Target) {
				g.decline("control flow escaping a parallel loop")
			}
		case *fortran.IfStmt:
			g.checkParallelBody(st.Then, append(stack, st.Then))
			g.checkParallelBody(st.Else, append(stack, st.Else))
		case *fortran.DoStmt:
			g.checkParallelBody(st.Body, append(stack, st.Body))
		case *fortran.WhileStmt:
			g.checkParallelBody(st.Body, append(stack, st.Body))
		}
	}
}

// genDoall emits the forked branch of a marked loop: one closure
// handed to parrt's Run, holding the worker's private storage and a
// counted for loop over the iteration share Run passes in, then
// parrt's Reduce per reduction variable. What is decided here is
// representation only — privatized symbols become worker-local shadow
// declarations of the shared names, so the body text lowers
// identically in both branches — plus the static checkParallelBody
// decline.
func (g *gen) genDoall(st *fortran.DoStmt, k int) {
	g.checkParallelBody(st.Body, [][]fortran.Stmt{st.Body})

	// Privatized symbols: the Private list plus the loop variable;
	// reduction variables get identity-seeded storage instead.
	reduced := map[*fortran.Symbol]bool{}
	for _, r := range st.Reductions {
		if r.Sym.Kind != fortran.SymScalar {
			g.decline("non-scalar reduction variable %s", r.Sym.Name)
		}
		if t := g.symType(r.Sym); t != tInt && t != tFloat {
			g.decline("non-numeric reduction variable %s", r.Sym.Name)
		}
		reduced[r.Sym] = true
	}
	private := make([]*fortran.Symbol, 0, len(st.Private)+1)
	seen := map[*fortran.Symbol]bool{}
	for _, p := range append(append([]*fortran.Symbol{}, st.Private...), st.Var) {
		if seen[p] || reduced[p] {
			continue
		}
		if p.Kind != fortran.SymScalar && p.Kind != fortran.SymArray {
			continue
		}
		seen[p] = true
		private = append(private, p)
	}

	for ri, r := range st.Reductions {
		g.w("red%d_%d := make([]%s, nw%d)", ri, k, g.symType(r.Sym).goName(), k)
	}
	g.w("l%d.Run(nw%d, func(w%d, n%d, d%d int64) {", k, k, k, k, k)
	g.ind++
	for _, p := range private {
		name := g.arrName(p) // same mangling for scalars and arrays
		switch {
		case p.Kind == fortran.SymArray:
			g.w("%s := %s.Blank()", name, name)
		case p.Dummy:
			g.w("%s := %s(%s)", mangleVar(p.Name), refFn(g.symType(p)), zeroLit(g.symType(p)))
			name = mangleVar(p.Name)
		default:
			g.w("var %s %s", name, g.symType(p).goName())
		}
		g.w("_ = %s", name)
	}
	for _, r := range st.Reductions {
		ident := fmt.Sprintf("parrt.Identity[%s](%q)", g.symType(r.Sym).goName(), r.Operator())
		if r.Sym.Dummy {
			g.w("%s := %s(%s)", mangleVar(r.Sym.Name), refFn(g.symType(r.Sym)), ident)
		} else {
			g.w("%s := %s", g.arrName(r.Sym), ident)
		}
	}
	g.w("for ; n%d < l%d.Trip; n%d += d%d {", k, k, k, k)
	g.ind++
	g.w("%s = l%d.Index(n%d)", g.scalRef(st.Var), k, k)
	g.stmts(st.Body)
	g.ind--
	g.w("}")
	for ri, r := range st.Reductions {
		g.w("red%d_%d[w%d] = %s", ri, k, k, g.scalRef(r.Sym))
	}
	g.ind--
	g.w("})")
	for ri, r := range st.Reductions {
		outer := g.scalRef(r.Sym)
		g.w("%s = parrt.Reduce(%q, %s, red%d_%d)", outer, r.Operator(), outer, ri, k)
	}
	g.w("%s = l%d.Final()", g.scalRef(st.Var), k)
}
