package xform

import (
	"fmt"

	"parascope/internal/fortran"
)

// ---------------------------------------------------------------------------
// Privatization

// Privatize declares a scalar private to a loop, eliminating its
// carried dependences.
type Privatize struct {
	Do  *fortran.DoStmt
	Sym *fortran.Symbol
}

// Name implements Transformation.
func (Privatize) Name() string { return "privatize" }

// Check implements Transformation.
func (t Privatize) Check(c *Context) Verdict {
	var v Verdict
	if staleLoop(c, t.Do, &v) {
		return v
	}
	if t.Sym.Kind != fortran.SymScalar {
		v.note("%s is not a scalar", t.Sym.Name)
		return v
	}
	v.Applicable = true
	res := c.DF.Privatizable(c.Loop(t.Do), t.Sym)
	v.Safe = res.Privatizable && !res.NeedsLastValue
	if !res.Privatizable {
		v.note("%s: %s", t.Sym.Name, res.Reason)
	}
	if res.NeedsLastValue {
		v.note("%s is live after the loop: needs last-value copy-out", t.Sym.Name)
	}
	v.Profitable = v.Safe
	return v
}

// Apply implements Transformation.
func (t Privatize) Apply(c *Context) error { return addPrivate(t.Do, t.Sym) }

// addPrivate lists sym among the loop's private variables, once.
func addPrivate(do *fortran.DoStmt, sym *fortran.Symbol) error {
	for _, p := range do.Private {
		if p == sym {
			return nil
		}
	}
	do.Private = append(do.Private, sym)
	return nil
}

// ---------------------------------------------------------------------------
// Array privatization (extension)

// PrivatizeArray declares a work array private to a loop. The paper
// identifies this capability as *required* for arc3d and slab2d but
// missing from Ped ("interprocedural array kill analysis is
// required… To perform array privatization in slab2d, kill analysis
// must be combined with loop transformations"); it is implemented
// here as the natural extension: safe when every iteration kills the
// whole array (directly or through a call whose summary proves an
// array kill) before reading it.
type PrivatizeArray struct {
	Do  *fortran.DoStmt
	Sym *fortran.Symbol
}

// Name implements Transformation.
func (PrivatizeArray) Name() string { return "privatize-array" }

// Check implements Transformation.
func (t PrivatizeArray) Check(c *Context) Verdict {
	var v Verdict
	if staleLoop(c, t.Do, &v) {
		return v
	}
	if !t.Sym.IsArray() {
		v.note("%s is not an array", t.Sym.Name)
		return v
	}
	v.Applicable = true
	l := c.Loop(t.Do)
	res := c.DF.ArrayPrivatizable(l, t.Sym)
	v.Safe = res.Privatizable && !res.NeedsLastValue
	if !res.Privatizable {
		v.note("%s: %s", t.Sym.Name, res.Reason)
	}
	if res.NeedsLastValue {
		v.note("%s is live after the loop: last-iteration copy-out not supported for arrays", t.Sym.Name)
	}
	v.Profitable = v.Safe
	if v.Safe {
		v.note("each iteration kills the whole array before using it")
	}
	return v
}

// Apply implements Transformation.
func (t PrivatizeArray) Apply(c *Context) error { return addPrivate(t.Do, t.Sym) }

// ---------------------------------------------------------------------------
// Reduction recognition

// RecognizeReductions attaches the loop's recognized reductions so
// parallelization can combine per-iteration partial results.
type RecognizeReductions struct {
	Do *fortran.DoStmt
}

// Name implements Transformation.
func (RecognizeReductions) Name() string { return "recognize-reductions" }

// Check implements Transformation.
func (t RecognizeReductions) Check(c *Context) Verdict {
	var v Verdict
	l := c.Loop(t.Do)
	if l == nil {
		v.note("not a loop")
		return v
	}
	reds := c.DF.Reductions(l)
	if len(reds) == 0 {
		v.note("no reductions recognized")
		return v
	}
	v.Applicable = true
	v.Safe = true
	v.Profitable = true
	for _, r := range reds {
		v.note("%s is a %s-reduction", r.Sym.Name, r.Operator())
	}
	return v
}

// Apply implements Transformation.
func (t RecognizeReductions) Apply(c *Context) error {
	l := c.Loop(t.Do)
	if l == nil {
		return fmt.Errorf("recognize-reductions: no loop")
	}
	t.Do.Reductions = c.DF.Reductions(l)
	return nil
}

// ---------------------------------------------------------------------------
// Scalar expansion

// ScalarExpand replaces a scalar with a per-iteration array element,
// removing carried anti/output dependences when privatization cannot
// apply (e.g. the value is live after the loop).
type ScalarExpand struct {
	Do  *fortran.DoStmt
	Sym *fortran.Symbol
}

// Name implements Transformation.
func (ScalarExpand) Name() string { return "scalar-expand" }

// Check implements Transformation.
func (t ScalarExpand) Check(c *Context) Verdict {
	var v Verdict
	if staleLoop(c, t.Do, &v) {
		return v
	}
	if t.Sym.Kind != fortran.SymScalar {
		v.note("%s is not a scalar", t.Sym.Name)
		return v
	}
	if t.Do.Step != nil {
		v.note("expansion requires unit step")
		return v
	}
	l := c.Loop(t.Do)
	trip, ok := c.DF.TripCount(l)
	if !ok {
		v.note("trip count unknown: cannot size the expansion array")
		return v
	}
	used := false
	for _, s := range l.Stmts() {
		for _, ac := range c.DF.Accesses(s) {
			if ac.Sym == t.Sym {
				used = true
			}
		}
	}
	if !used {
		v.note("%s is not used in the loop", t.Sym.Name)
		return v
	}
	v.Applicable = true
	res := c.DF.Privatizable(l, t.Sym)
	if !res.Privatizable {
		// Upward-exposed use: iteration i would need element i-1's
		// value, which expansion does not provide.
		v.note("%s: %s", t.Sym.Name, res.Reason)
		v.Safe = false
		return v
	}
	v.Safe = true
	v.Profitable = true
	v.note("expands %s into a %d-element array", t.Sym.Name, trip)
	if res.NeedsLastValue {
		v.note("last value copied out after the loop")
	}
	return v
}

// Apply implements Transformation.
func (t ScalarExpand) Apply(c *Context) error {
	l := c.Loop(t.Do)
	trip, ok := c.DF.TripCount(l)
	if !ok {
		return fmt.Errorf("scalar-expand: unknown trip count")
	}
	res := c.DF.Privatizable(l, t.Sym)
	arr := newArray(c.Unit, t.Sym.Name+"x", t.Sym.Type, trip)
	// Index: i - lo + 1.
	idx := func() fortran.Expr {
		lo := fortran.CloneExpr(t.Do.Lo)
		return &fortran.Binary{Op: fortran.TokPlus,
			X: &fortran.Binary{Op: fortran.TokMinus,
				X: &fortran.VarRef{Sym: t.Do.Var, Name: t.Do.Var.Name}, Y: lo},
			Y: &fortran.IntLit{Val: 1}}
	}
	for _, s := range t.Do.Body {
		fortran.SubstVarStmt(s, t.Sym, &fortran.VarRef{
			Sym: arr, Name: arr.Name, Subs: []fortran.Expr{idx()},
		})
	}
	if res.NeedsLastValue {
		last := &fortran.AssignStmt{
			Lhs: &fortran.VarRef{Sym: t.Sym, Name: t.Sym.Name},
			Rhs: &fortran.VarRef{Sym: arr, Name: arr.Name,
				Subs: []fortran.Expr{&fortran.IntLit{Val: trip}}},
		}
		if !ReplaceStmt(c.Unit, t.Do, t.Do, last) {
			return fmt.Errorf("scalar-expand: could not insert last-value store")
		}
	}
	return nil
}
