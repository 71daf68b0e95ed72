package xform

import (
	"fmt"

	"parascope/internal/fortran"
)

// Inline substitutes a subroutine's body at a call site — the
// "embedding" (procedure integration) the paper lists among the
// desired capabilities, and the enabling step for interchanging loops
// across a procedure boundary ("a solution that combines the
// granularity of the outer loop with the parallelism of the inner
// loop is to perform loop interchange across the procedure
// boundary").
//
// Supported bindings: whole arrays (the formal aliases the actual),
// scalar variables (renamed to the actual), and arbitrary expressions
// for formals the callee never modifies (substituted textually).
type Inline struct {
	Call *fortran.CallStmt
}

// Name implements Transformation.
func (Inline) Name() string { return "inline" }

// bindingPlan describes how each formal maps to caller state.
type bindingPlan struct {
	// subst maps callee symbols to replacement caller expressions.
	subst map[*fortran.Symbol]fortran.Expr
	// locals lists callee locals needing fresh caller-side symbols.
	locals []*fortran.Symbol
}

func (t Inline) plan(c *Context) (*bindingPlan, error) {
	callee := t.Call.Callee
	if callee == nil {
		return nil, fmt.Errorf("callee is not in this file")
	}
	if callee.Kind != fortran.UnitSubroutine {
		return nil, fmt.Errorf("only subroutines can be inlined")
	}
	if len(t.Call.Args) != len(callee.Args) {
		return nil, fmt.Errorf("argument count mismatch")
	}
	// The callee must be simple: no RETURN in the middle (one at the
	// end is fine), no GOTO, no further calls to keep this one-level.
	exits := 0
	bad := ""
	fortran.WalkStmts(callee.Body, func(s fortran.Stmt) bool {
		switch s.(type) {
		case *fortran.ReturnStmt:
			exits++
			if s != callee.Body[len(callee.Body)-1] {
				bad = "early RETURN"
			}
		case *fortran.GotoStmt:
			bad = "GOTO"
		case *fortran.StopStmt:
			bad = "STOP"
		}
		return true
	})
	if bad != "" {
		return nil, fmt.Errorf("callee contains %s", bad)
	}
	// Writes to formals determine whether expression actuals are legal.
	writes := map[*fortran.Symbol]bool{}
	fortran.WalkStmts(callee.Body, func(s fortran.Stmt) bool {
		if as, ok := s.(*fortran.AssignStmt); ok && as.Lhs.Sym != nil {
			writes[as.Lhs.Sym] = true
		}
		if do, ok := s.(*fortran.DoStmt); ok {
			writes[do.Var] = true
		}
		if rd, ok := s.(*fortran.ReadStmt); ok {
			for _, it := range rd.Items {
				if vr, ok := it.(*fortran.VarRef); ok && vr.Sym != nil {
					writes[vr.Sym] = true
				}
			}
		}
		return true
	})
	p := &bindingPlan{subst: map[*fortran.Symbol]fortran.Expr{}}
	for i, formal := range callee.Args {
		actual := t.Call.Args[i]
		vr, isVar := actual.(*fortran.VarRef)
		switch {
		case formal.Kind == fortran.SymArray:
			if !isVar || vr.Sym == nil || !vr.Sym.IsArray() || len(vr.Subs) != 0 {
				return nil, fmt.Errorf("argument %d: array formal %s needs a whole-array actual", i+1, formal.Name)
			}
			p.subst[formal] = &fortran.VarRef{Sym: vr.Sym, Name: vr.Sym.Name}
		case isVar && vr.Sym != nil && len(vr.Subs) == 0 && vr.Sym.Kind == fortran.SymScalar:
			p.subst[formal] = &fortran.VarRef{Sym: vr.Sym, Name: vr.Sym.Name}
		default:
			if writes[formal] {
				return nil, fmt.Errorf("argument %d: callee writes formal %s but the actual is an expression", i+1, formal.Name)
			}
			p.subst[formal] = actual
		}
	}
	// COMMON members alias the caller's same-named commons; locals
	// get fresh names.
	for _, sym := range callee.SymbolsSorted() {
		if sym.Dummy {
			continue
		}
		switch sym.Kind {
		case fortran.SymScalar, fortran.SymArray:
			if sym.Common != "" {
				counterpart := c.Unit.Lookup(sym.Name)
				if counterpart == nil || counterpart.Common != sym.Common {
					return nil, fmt.Errorf("common member %s has no caller counterpart", sym.Name)
				}
				p.subst[sym] = &fortran.VarRef{Sym: counterpart, Name: counterpart.Name}
			} else {
				p.locals = append(p.locals, sym)
			}
		case fortran.SymParam:
			p.subst[sym] = fortran.CloneExpr(sym.Value)
		}
	}
	return p, nil
}

// Check implements Transformation.
func (t Inline) Check(c *Context) Verdict {
	var v Verdict
	if _, err := t.plan(c); err != nil {
		v.note("%v", err)
		return v
	}
	v.Applicable = true
	v.Safe = true // substitution with aliasing bindings preserves semantics
	// Profitable when the call sits inside a loop: it removes the
	// interprocedural barrier for dependence analysis and enables
	// cross-boundary transformations.
	if l := c.DF.Tree.Innermost(t.Call); l != nil {
		v.Profitable = true
		v.note("exposes the callee's loops to the enclosing nest")
	} else {
		v.note("call is not inside a loop; inlining only saves call overhead")
	}
	return v
}

// Apply implements Transformation.
func (t Inline) Apply(c *Context) error {
	p, err := t.plan(c)
	if err != nil {
		return fmt.Errorf("inline: %v", err)
	}
	callee := t.Call.Callee
	body := fortran.CloneBody(callee.Body)
	// Drop a trailing RETURN.
	if n := len(body); n > 0 {
		if _, ok := body[n-1].(*fortran.ReturnStmt); ok {
			body = body[:n-1]
		}
	}
	// Fresh caller symbols for callee locals.
	for _, local := range p.locals {
		var repl *fortran.Symbol
		if local.Kind == fortran.SymArray {
			// Reproduce the dimensions with formals substituted.
			repl = newScalar(c.Unit, local.Name, local.Type)
			repl.Kind = fortran.SymArray
			for _, d := range local.Dims {
				nd := fortran.Dimension{}
				if d.Lo != nil {
					nd.Lo = substAll(fortran.CloneExpr(d.Lo), p.subst)
				}
				if d.Hi != nil {
					nd.Hi = substAll(fortran.CloneExpr(d.Hi), p.subst)
				}
				repl.Dims = append(repl.Dims, nd)
			}
		} else {
			repl = newScalar(c.Unit, local.Name, local.Type)
		}
		p.subst[local] = &fortran.VarRef{Sym: repl, Name: repl.Name}
	}
	// Substitute every binding throughout the cloned body.
	for sym, repl := range p.subst {
		for _, s := range body {
			substStmtSym(s, sym, repl)
		}
	}
	if !ReplaceStmt(c.Unit, t.Call, body...) {
		return fmt.Errorf("inline: call not found in unit")
	}
	return nil
}

// substAll applies every binding to one expression.
func substAll(e fortran.Expr, subst map[*fortran.Symbol]fortran.Expr) fortran.Expr {
	for sym, repl := range subst {
		e = fortran.SubstVar(e, sym, repl)
	}
	return e
}

// substStmtSym substitutes sym throughout a statement, including
// array base names and DO-variable headers (which SubstVarStmt's
// value-substitution does not rewrite).
func substStmtSym(s fortran.Stmt, sym *fortran.Symbol, repl fortran.Expr) {
	// Value positions first.
	fortran.SubstVarStmt(s, sym, repl)
	// Base-name positions: array refs a(...)->b(...), DO variables.
	replVar, ok := repl.(*fortran.VarRef)
	if !ok {
		return
	}
	fortran.WalkStmts([]fortran.Stmt{s}, func(st fortran.Stmt) bool {
		if do, ok := st.(*fortran.DoStmt); ok && do.Var == sym {
			do.Var = replVar.Sym
		}
		fortran.WalkExprs(st, func(e fortran.Expr) {
			if x, ok := e.(*fortran.VarRef); ok && x.Sym == sym && len(x.Subs) > 0 {
				x.Sym, x.Name = replVar.Sym, replVar.Name
			}
		})
		return true
	})
}
