// Package dataflow implements ParaScope's scalar data-flow analyses:
// variable access extraction, which scalars the unit assigns, liveness,
// constant propagation, scalar privatizability (Kill), reduction
// recognition and the symbolic environment that feeds dependence
// testing. Def-use chains and auxiliary induction variables are not
// built: no verdict, pane or transformation reads them.
package dataflow

import (
	"math/bits"

	"parascope/internal/fortran"
)

// Access is one variable access made by a statement.
type Access struct {
	Sym   *fortran.Symbol
	Ref   *fortran.VarRef // the syntactic reference; nil for synthesized call effects
	Write bool
	// Partial marks writes that do not overwrite the whole variable
	// (array element stores, possible call side effects): they
	// generate a definition but kill nothing.
	Partial bool
	Stmt    fortran.Stmt
}

// SideEffects abstracts what a call statement may read and write.
// The conservative implementation assumes every actual argument and
// every COMMON variable is both referenced and modified; the
// interprocedural analysis provides a precise one.
type SideEffects interface {
	// CallEffects returns the accesses of a subroutine call or
	// function invocation in unit u with the given actual arguments.
	CallEffects(u *fortran.Unit, callee string, args []fortran.Expr, s fortran.Stmt) []Access
}

// ConservativeEffects treats calls as reading and writing every
// argument variable and every COMMON variable of the calling unit.
type ConservativeEffects struct{}

// CallEffects implements SideEffects.
func (ConservativeEffects) CallEffects(u *fortran.Unit, callee string, args []fortran.Expr, s fortran.Stmt) []Access {
	var out []Access
	for _, a := range args {
		if vr, ok := a.(*fortran.VarRef); ok && vr.Sym != nil &&
			(vr.Sym.Kind == fortran.SymScalar || vr.Sym.Kind == fortran.SymArray) {
			out = append(out,
				Access{Sym: vr.Sym, Ref: vr, Write: false, Stmt: s},
				Access{Sym: vr.Sym, Ref: vr, Write: true, Partial: true, Stmt: s})
		}
	}
	for _, sym := range u.SymbolsSorted() {
		if sym.Common != "" {
			out = append(out,
				Access{Sym: sym, Write: false, Stmt: s},
				Access{Sym: sym, Write: true, Partial: true, Stmt: s})
		}
	}
	return out
}

// StmtAccesses extracts the variable accesses of a single statement
// (not recursing into nested statement bodies). Call side effects are
// resolved through eff.
func StmtAccesses(u *fortran.Unit, s fortran.Stmt, eff SideEffects) []Access {
	var out []Access
	addReads := func(e fortran.Expr) {
		collectReads(u, e, s, eff, &out)
	}
	switch st := s.(type) {
	case *fortran.AssignStmt:
		addReads(st.Rhs)
		for _, sub := range st.Lhs.Subs {
			addReads(sub)
		}
		if st.Lhs.Sym != nil {
			out = append(out, Access{
				Sym: st.Lhs.Sym, Ref: st.Lhs, Write: true,
				Partial: st.Lhs.Sym.IsArray(), Stmt: s,
			})
		}
	case *fortran.IfStmt:
		addReads(st.Cond)
	case *fortran.DoStmt:
		addReads(st.Lo)
		addReads(st.Hi)
		if st.Step != nil {
			addReads(st.Step)
		}
		// The DO header fully defines its variable before any use (the
		// increment's read always follows the initial write), so the
		// loop variable is a pure definition here — making it
		// upward-exposed would wrongly block privatizing inner-loop
		// indices with respect to outer loops.
		out = append(out, Access{Sym: st.Var, Write: true, Stmt: s})
	case *fortran.WhileStmt:
		addReads(st.Cond)
	case *fortran.CallStmt:
		// Subscript expressions of arguments are read here; the rest
		// comes from the callee's side effects.
		for _, a := range st.Args {
			if vr, ok := a.(*fortran.VarRef); ok {
				for _, sub := range vr.Subs {
					addReads(sub)
				}
			} else {
				addReads(a)
			}
		}
		out = append(out, eff.CallEffects(u, st.Name, st.Args, s)...)
	case *fortran.PrintStmt:
		for _, it := range st.Items {
			addReads(it)
		}
	case *fortran.ReadStmt:
		for _, it := range st.Items {
			if vr, ok := it.(*fortran.VarRef); ok && vr.Sym != nil {
				for _, sub := range vr.Subs {
					addReads(sub)
				}
				out = append(out, Access{
					Sym: vr.Sym, Ref: vr, Write: true,
					Partial: vr.Sym.IsArray() && len(vr.Subs) > 0, Stmt: s,
				})
			}
		}
	}
	return out
}

// CallsUser reports whether the statement is a CALL or invokes a user
// function in one of its own expressions: the statements whose accesses
// depend on the side effects calls are resolved through.
func CallsUser(st fortran.Stmt) bool {
	if _, ok := st.(*fortran.CallStmt); ok {
		return true
	}
	found := false
	fortran.WalkExprs(st, func(e fortran.Expr) {
		if fc, ok := e.(*fortran.FuncCall); ok && fc.Callee != nil {
			found = true
		}
	})
	return found
}

func collectReads(u *fortran.Unit, e fortran.Expr, s fortran.Stmt, eff SideEffects, out *[]Access) {
	switch x := e.(type) {
	case nil:
	case *fortran.VarRef:
		if x.Sym != nil && (x.Sym.Kind == fortran.SymScalar || x.Sym.Kind == fortran.SymArray) {
			*out = append(*out, Access{Sym: x.Sym, Ref: x, Write: false, Stmt: s})
		}
		for _, sub := range x.Subs {
			collectReads(u, sub, s, eff, out)
		}
	case *fortran.FuncCall:
		for _, a := range x.Args {
			collectReads(u, a, s, eff, out)
		}
		if x.Callee != nil {
			*out = append(*out, eff.CallEffects(u, x.Name, x.Args, s)...)
		}
	case *fortran.Unary:
		collectReads(u, x.X, s, eff, out)
	case *fortran.Binary:
		collectReads(u, x.X, s, eff, out)
		collectReads(u, x.Y, s, eff, out)
	}
}

// bitset is a fixed-capacity bit vector used by the liveness solver.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

func (b bitset) orInto(src bitset) bool {
	changed := false
	for i := range b {
		old := b[i]
		b[i] |= src[i]
		if b[i] != old {
			changed = true
		}
	}
	return changed
}

func (b bitset) andNotInto(src bitset) {
	for i := range b {
		b[i] &^= src[i]
	}
}

func (b bitset) copyFrom(src bitset) { copy(b, src) }

func (b bitset) forEach(fn func(i int)) {
	for w, word := range b {
		for word != 0 {
			bit := word & -word
			i := w*64 + bits.TrailingZeros64(word)
			fn(i)
			word ^= bit
		}
	}
}
