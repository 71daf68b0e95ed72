package dataflow

import (
	"parascope/internal/cfg"
	"parascope/internal/expr"
	"parascope/internal/fortran"
)

// EnvAt builds the symbolic environment in effect at statement s:
// integer constants known by constant propagation, plus ranges for
// every enclosing DO loop's induction variable derived from its
// bounds. Dependence testing layers user assertions on top.
func (a *Analysis) EnvAt(s fortran.Stmt) *expr.Env {
	env := expr.NewEnv()
	a.setConsts(env, s)
	l := a.Tree.Innermost(s)
	if do, ok := s.(*fortran.DoStmt); ok {
		if own := a.Tree.LoopOf(do); own != nil {
			l = own
		}
	}
	if l != nil {
		for _, loop := range l.Nest() {
			a.addLoopRange(env, loop)
		}
	}
	return env
}

// setConsts records every constant known at entry to s in env.
func (a *Analysis) setConsts(env *expr.Env, s fortran.Stmt) {
	for sym, cv := range a.ConstsAt(s) {
		if cv.known {
			env.SetValue(sym, cv.val)
		}
	}
}

// addLoopRange bounds loop.Do.Var using the loop bounds when they can
// be evaluated (possibly symbolically through env itself).
func (a *Analysis) addLoopRange(env *expr.Env, loop *cfg.Loop) {
	do := loop.Do
	// Constants known at the loop header help evaluate the bounds.
	a.setConsts(env, do)
	loLin, loOK := expr.Linearize(a.Unit, do.Lo)
	hiLin, hiOK := expr.Linearize(a.Unit, do.Hi)
	step := int64(1)
	if do.Step != nil {
		sLin, sOK := expr.Linearize(a.Unit, do.Step)
		if !sOK {
			return
		}
		sr := env.EvalRange(sLin)
		if !sr.IsExact() {
			return
		}
		step = sr.Lo
	}
	if step == 0 {
		return
	}
	var lo, hi expr.Range = expr.FullRange, expr.FullRange
	if loOK {
		lo = env.EvalRange(loLin)
	}
	if hiOK {
		hi = env.EvalRange(hiLin)
	}
	r := expr.FullRange
	if step > 0 {
		// i from lo upward, bounded by hi.
		r = expr.Range{Lo: lo.Lo, LoInf: lo.LoInf, Hi: hi.Hi, HiInf: hi.HiInf}
	} else {
		r = expr.Range{Lo: hi.Lo, LoInf: hi.LoInf, Hi: lo.Hi, HiInf: lo.HiInf}
	}
	env.SetRange(do.Var, r)
}

// EnvLoopsOnly builds the environment at s from literal loop bounds
// only, without constant propagation — the "no constants" ablation.
func (a *Analysis) EnvLoopsOnly(s fortran.Stmt) *expr.Env {
	env := expr.NewEnv()
	l := a.Tree.Innermost(s)
	if do, ok := s.(*fortran.DoStmt); ok {
		if own := a.Tree.LoopOf(do); own != nil {
			l = own
		}
	}
	if l == nil {
		return env
	}
	for _, loop := range l.Nest() {
		do := loop.Do
		loLin, loOK := expr.Linearize(a.Unit, do.Lo)
		hiLin, hiOK := expr.Linearize(a.Unit, do.Hi)
		if do.Step != nil {
			continue // non-unit step without constants: stay unbounded
		}
		var lo, hi expr.Range = expr.FullRange, expr.FullRange
		if loOK {
			lo = env.EvalRange(loLin)
		}
		if hiOK {
			hi = env.EvalRange(hiLin)
		}
		env.SetRange(do.Var, expr.Range{Lo: lo.Lo, LoInf: lo.LoInf, Hi: hi.Hi, HiInf: hi.HiInf})
	}
	return env
}

// TripCount evaluates the loop's iteration count when it is a known
// constant: (hi - lo + step) / step for positive step.
func (a *Analysis) TripCount(loop *cfg.Loop) (int64, bool) {
	if loop == nil {
		return 0, false
	}
	env := a.EnvAt(loop.Do)
	do := loop.Do
	loLin, ok1 := expr.Linearize(a.Unit, do.Lo)
	hiLin, ok2 := expr.Linearize(a.Unit, do.Hi)
	if !ok1 || !ok2 {
		return 0, false
	}
	lo := env.EvalRange(loLin)
	hi := env.EvalRange(hiLin)
	if !lo.IsExact() || !hi.IsExact() {
		return 0, false
	}
	step := int64(1)
	if do.Step != nil {
		sLin, ok := expr.Linearize(a.Unit, do.Step)
		if !ok {
			return 0, false
		}
		sr := env.EvalRange(sLin)
		if !sr.IsExact() || sr.Lo == 0 {
			return 0, false
		}
		step = sr.Lo
	}
	n := (hi.Lo - lo.Lo + step) / step
	if n < 0 {
		n = 0
	}
	return n, true
}
