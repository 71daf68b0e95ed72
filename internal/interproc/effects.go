package interproc

import (
	"slices"
	"strings"

	"parascope/internal/dataflow"
	"parascope/internal/dep"
	"parascope/internal/expr"
	"parascope/internal/fortran"
)

// Effects implements dataflow.SideEffects using the program's
// interprocedural summaries: calls touch exactly the Mod/Ref sets,
// translated through the formal/actual binding, and scalar arguments
// the callee definitely kills produce full (killing) definitions.
type Effects struct {
	Prog *Program
}

var _ dataflow.SideEffects = (*Effects)(nil)

// CallEffects implements dataflow.SideEffects.
func (e *Effects) CallEffects(u *fortran.Unit, callee string, args []fortran.Expr, s fortran.Stmt) []dataflow.Access {
	target := e.Prog.File.Unit(callee)
	var summ *Summary
	if target != nil && target.Kind != fortran.UnitProgram { // `call <main program>` resolves to no callee
		summ = e.Prog.Summaries[target]
	}
	if summ == nil || summ.Conservative {
		return dataflow.ConservativeEffects{}.CallEffects(u, callee, args, s)
	}
	var out []dataflow.Access
	emit := func(sym *fortran.Symbol, ref *fortran.VarRef, write, partial bool) {
		out = append(out, dataflow.Access{Sym: sym, Ref: ref, Write: write, Partial: partial, Stmt: s})
	}
	handle := func(calleeSym *fortran.Symbol, write bool) {
		if calleeSym.Dummy {
			actual := boundActual(args, target, calleeSym)
			if actual == nil {
				return
			}
			if vr, ok := actual.(*fortran.VarRef); ok && vr.Sym != nil {
				partial := true
				if vr.Sym.Kind == fortran.SymScalar && summ.Kill[calleeSym] {
					partial = false
				}
				if vr.Sym.IsArray() && summ.KillArrays[calleeSym] && len(vr.Subs) == 0 {
					partial = false
				}
				if !write {
					emit(vr.Sym, vr, false, false)
				} else {
					emit(vr.Sym, vr, true, partial)
				}
				return
			}
			// Expression actual: reads of its variables only.
			if !write {
				fortran.WalkExpr(actual, func(e fortran.Expr) {
					if x, ok := e.(*fortran.VarRef); ok && x.Sym != nil && (x.Sym.Kind == fortran.SymScalar || x.Sym.Kind == fortran.SymArray) {
						out = append(out, dataflow.Access{Sym: x.Sym, Ref: x, Stmt: s})
					}
				})
			}
			return
		}
		if calleeSym.Common != "" {
			if callerSym := commonCounterpart(u, calleeSym); callerSym != nil {
				partial := write && !(callerSym.Kind == fortran.SymScalar && summ.Kill[calleeSym])
				emit(callerSym, nil, write, partial)
			}
		}
	}
	// Only upward-exposed reads make the call a true reader; reads
	// satisfied by the callee's own writes stay internal to it.
	for _, sym := range sortedSyms(summ.UpRef) {
		handle(sym, false)
	}
	for _, sym := range sortedSyms(summ.Mod) {
		handle(sym, true)
	}
	return out
}

// commonCounterpart finds the caller-side symbol sharing the callee
// symbol's COMMON block slot (matched by block and name, the layout
// convention the workloads follow).
func commonCounterpart(u *fortran.Unit, calleeSym *fortran.Symbol) *fortran.Symbol {
	if s := u.Lookup(calleeSym.Name); s != nil && s.Common == calleeSym.Common {
		return s
	}
	return nil
}

// sortedSyms returns the symbols m maps, ordered by name.
func sortedSyms[V any](m map[*fortran.Symbol]V) []*fortran.Symbol {
	out := make([]*fortran.Symbol, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	slices.SortFunc(out, func(a, b *fortran.Symbol) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// ---------------------------------------------------------------------------
// dep.Summaries adapter

// SectionProvider implements dep.Summaries by translating callee
// regular sections through the call binding.
type SectionProvider struct {
	Prog *Program
}

var _ dep.Summaries = (*SectionProvider)(nil)

// CallSections implements dep.Summaries.
func (sp *SectionProvider) CallSections(s fortran.Stmt) ([]dep.SectionAccess, bool) {
	call, ok := s.(*fortran.CallStmt)
	if !ok || call.Callee == nil {
		return nil, false
	}
	summ := sp.Prog.Summaries[call.Callee]
	if summ == nil || summ.Conservative {
		return nil, false
	}
	caller := sp.Prog.Graph.callerOf(call)
	if caller == nil {
		return nil, false
	}
	var out []dep.SectionAccess
	for _, arrSym := range sortedSyms(summ.Sections) {
		secs := summ.Sections[arrSym]
		// Resolve the caller-side array.
		var callerArr *fortran.Symbol
		switch {
		case arrSym.Dummy:
			actual := boundActual(call.Args, call.Callee, arrSym)
			vr, ok := actual.(*fortran.VarRef)
			if !ok || vr.Sym == nil || !vr.Sym.IsArray() || len(vr.Subs) != 0 {
				// Element-offset or non-array binding: unknown.
				continue
			}
			callerArr = vr.Sym
		case arrSym.Common != "":
			callerArr = commonCounterpart(caller, arrSym)
		}
		if callerArr == nil {
			continue
		}
		for _, sec := range secs {
			sa := dep.SectionAccess{Sym: callerArr, Write: sec.Write}
			for _, d := range sec.Dims {
				sa.Dims = append(sa.Dims, sp.translateDim(caller, call, d))
			}
			out = append(out, sa)
		}
	}
	if len(out) == 0 {
		return nil, false
	}
	return out, true
}

// translateDim rewrites a callee-side linear bound into caller
// symbols by substituting formals with the linearized actuals.
func (sp *SectionProvider) translateDim(caller *fortran.Unit, call *fortran.CallStmt, d SecDim) dep.SectionDim {
	if !d.Known {
		return dep.SectionDim{}
	}
	lo, ok1 := sp.translateLinear(caller, call, d.Lo)
	hi, ok2 := sp.translateLinear(caller, call, d.Hi)
	if !ok1 || !ok2 {
		return dep.SectionDim{}
	}
	return dep.SectionDim{Lo: lo, Hi: hi, Known: true}
}

func (sp *SectionProvider) translateLinear(caller *fortran.Unit, call *fortran.CallStmt, l expr.Linear) (expr.Linear, bool) {
	out := expr.Con(l.Const)
	for _, t := range l.Terms {
		switch {
		case t.Sym.Dummy:
			actual := boundActual(call.Args, call.Callee, t.Sym)
			if actual == nil {
				return expr.Linear{}, false
			}
			lin, ok := expr.Linearize(caller, actual)
			if !ok {
				return expr.Linear{}, false
			}
			out = out.Add(lin.Scale(t.Coef))
		case t.Sym.Common != "":
			cs := commonCounterpart(caller, t.Sym)
			if cs == nil {
				return expr.Linear{}, false
			}
			out = out.Add(expr.Var(cs).Scale(t.Coef))
		case t.Sym.Kind == fortran.SymParam:
			lin, ok := expr.Linearize(t.Sym.Unit, t.Sym.Value)
			if !ok {
				return expr.Linear{}, false
			}
			out = out.Add(lin.Scale(t.Coef))
		default:
			return expr.Linear{}, false
		}
	}
	return out, true
}
