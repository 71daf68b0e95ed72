package expr

import (
	"parascope/internal/fortran"
)

// Fold simplifies an expression by constant folding and algebraic
// identities (x+0, x*1, x*0, x-x …). The input is not modified.
func Fold(e fortran.Expr) fortran.Expr {
	switch x := e.(type) {
	case *fortran.Unary:
		inner := Fold(x.X)
		if x.Op == fortran.TokMinus {
			if il, ok := inner.(*fortran.IntLit); ok {
				return &fortran.IntLit{Val: -il.Val}
			}
			if rl, ok := inner.(*fortran.RealLit); ok {
				return &fortran.RealLit{Val: -rl.Val, Double: rl.Double}
			}
			if u, ok := inner.(*fortran.Unary); ok && u.Op == fortran.TokMinus {
				return u.X
			}
		}
		return &fortran.Unary{Op: x.Op, X: inner}
	case *fortran.Binary:
		lhs := Fold(x.X)
		rhs := Fold(x.Y)
		if out, ok := foldInts(x.Op, lhs, rhs); ok {
			return out
		}
		if out, ok := foldIdentity(x.Op, lhs, rhs); ok {
			return out
		}
		return &fortran.Binary{Op: x.Op, X: lhs, Y: rhs}
	case *fortran.VarRef:
		if len(x.Subs) == 0 {
			return x
		}
		c := &fortran.VarRef{Sym: x.Sym, Name: x.Name}
		for _, s := range x.Subs {
			c.Subs = append(c.Subs, Fold(s))
		}
		return c
	case *fortran.FuncCall:
		c := &fortran.FuncCall{Sym: x.Sym, Name: x.Name, Callee: x.Callee}
		for _, a := range x.Args {
			c.Args = append(c.Args, Fold(a))
		}
		return c
	}
	return e
}

func foldInts(op fortran.TokKind, lhs, rhs fortran.Expr) (fortran.Expr, bool) {
	a, okA := lhs.(*fortran.IntLit)
	b, okB := rhs.(*fortran.IntLit)
	if !okA || !okB {
		return nil, false
	}
	switch op {
	case fortran.TokPlus:
		return &fortran.IntLit{Val: a.Val + b.Val}, true
	case fortran.TokMinus:
		return &fortran.IntLit{Val: a.Val - b.Val}, true
	case fortran.TokStar:
		return &fortran.IntLit{Val: a.Val * b.Val}, true
	case fortran.TokSlash:
		if b.Val != 0 {
			return &fortran.IntLit{Val: a.Val / b.Val}, true
		}
	case fortran.TokPower:
		if b.Val >= 0 && b.Val < 16 {
			v := int64(1)
			for i := int64(0); i < b.Val; i++ {
				v *= a.Val
			}
			return &fortran.IntLit{Val: v}, true
		}
	}
	return nil, false
}

func foldIdentity(op fortran.TokKind, lhs, rhs fortran.Expr) (fortran.Expr, bool) {
	isInt := func(e fortran.Expr, v int64) bool {
		il, ok := e.(*fortran.IntLit)
		return ok && il.Val == v
	}
	switch op {
	case fortran.TokPlus:
		if isInt(lhs, 0) {
			return rhs, true
		}
		if isInt(rhs, 0) {
			return lhs, true
		}
		// a + (-b) => a - b for tidier printing.
		if u, ok := rhs.(*fortran.Unary); ok && u.Op == fortran.TokMinus {
			return &fortran.Binary{Op: fortran.TokMinus, X: lhs, Y: u.X}, true
		}
		if il, ok := rhs.(*fortran.IntLit); ok && il.Val < 0 {
			return &fortran.Binary{Op: fortran.TokMinus, X: lhs, Y: &fortran.IntLit{Val: -il.Val}}, true
		}
	case fortran.TokMinus:
		if isInt(rhs, 0) {
			return lhs, true
		}
		if sameScalar(lhs, rhs) {
			return &fortran.IntLit{Val: 0}, true
		}
	case fortran.TokStar:
		if isInt(lhs, 1) {
			return rhs, true
		}
		if isInt(rhs, 1) {
			return lhs, true
		}
		if isInt(lhs, 0) || isInt(rhs, 0) {
			return &fortran.IntLit{Val: 0}, true
		}
	case fortran.TokSlash:
		if isInt(rhs, 1) {
			return lhs, true
		}
	}
	return nil, false
}

func sameScalar(a, b fortran.Expr) bool {
	ra, okA := a.(*fortran.VarRef)
	rb, okB := b.(*fortran.VarRef)
	return okA && okB && len(ra.Subs) == 0 && len(rb.Subs) == 0 && ra.Name == rb.Name
}
