package codegen

import (
	"strconv"
	"strings"

	"parascope/internal/fortran"
	"parascope/internal/interp"
)

// expr lowers an expression, returning Go source text and the static
// type. Static types are decidable because Generate declined every
// program in which the interpreter's proof marks a storage that may
// hold another type than declared; the one expression whose type only
// the run can tell (INTEGER ** non-constant INTEGER) is declined.
func (g *gen) expr(e fortran.Expr) xpr {
	switch x := e.(type) {
	case *fortran.IntLit:
		return xpr{intLit(x.Val), tInt}
	case *fortran.RealLit:
		return xpr{floatLit(x.Val), tFloat}
	case *fortran.LogLit:
		return xpr{strconv.FormatBool(x.Val), tBool}
	case *fortran.StrLit:
		return xpr{strconv.Quote(x.Val), tStr}
	case *fortran.VarRef:
		return g.ref(x)
	case *fortran.FuncCall:
		return g.call(x)
	case *fortran.Unary:
		v := g.expr(x.X)
		switch x.Op {
		case fortran.TokMinus:
			if v.t != tInt && v.t != tFloat {
				g.decline("unary minus on non-numeric value")
			}
			return xpr{"(-" + v.c + ")", v.t}
		case fortran.TokNot:
			if v.t != tBool {
				g.decline(".not. on non-logical value")
			}
			return xpr{"(!" + v.c + ")", tBool}
		default: // unary plus: the interpreter returns the operand unchanged
			return v
		}
	case *fortran.Binary:
		return g.binary(x)
	}
	g.decline("cannot lower expression %T", e)
	return xpr{}
}

func (g *gen) ref(x *fortran.VarRef) xpr {
	sym := x.Sym
	if sym == nil {
		g.decline("unresolved name %s", x.Name)
	}
	if sym.Kind == fortran.SymParam {
		v, ok := interp.Fold(x)
		if !ok {
			g.decline("PARAMETER %s is not a foldable constant", sym.Name)
		}
		return lit(v, g.symType(sym))
	}
	if sym.IsArray() {
		if len(x.Subs) == 0 {
			g.decline("whole-array reference %s in expression", sym.Name)
		}
		a := g.arrName(sym)
		return xpr{a + ".Data[" + a + ".Idx(" + g.subs(x.Subs) + ")]", g.symType(sym)}
	}
	return xpr{g.scalRef(sym), g.symType(sym)}
}

func (g *gen) binary(x *fortran.Binary) xpr {
	a := g.expr(x.X)
	// && and || short-circuit exactly like the interpreter's .and./.or.
	switch x.Op {
	case fortran.TokAnd, fortran.TokOr:
		b := g.expr(x.Y)
		if a.t != tBool || b.t != tBool {
			g.decline("logical operator on non-logical operands")
		}
		op := "&&"
		if x.Op == fortran.TokOr {
			op = "||"
		}
		return xpr{"(" + a.c + " " + op + " " + b.c + ")", tBool}
	}
	b := g.expr(x.Y)
	bothInt := a.t == tInt && b.t == tInt
	numeric := func() {
		if (a.t != tInt && a.t != tFloat) || (b.t != tInt && b.t != tFloat) {
			g.decline("arithmetic on non-numeric operands")
		}
	}
	switch x.Op {
	case fortran.TokPlus:
		numeric()
		if bothInt {
			return xpr{"(" + a.c + " + " + b.c + ")", tInt}
		}
		return xpr{"(" + g.toF(a) + " + " + g.toF(b) + ")", tFloat}
	case fortran.TokMinus:
		numeric()
		if bothInt {
			return xpr{"(" + a.c + " - " + b.c + ")", tInt}
		}
		return xpr{"(" + g.toF(a) + " - " + g.toF(b) + ")", tFloat}
	case fortran.TokStar:
		numeric()
		if bothInt {
			return xpr{"(" + a.c + " * " + b.c + ")", tInt}
		}
		return xpr{"(" + g.toF(a) + " * " + g.toF(b) + ")", tFloat}
	case fortran.TokSlash:
		numeric()
		if bothInt {
			return xpr{"Idiv(" + a.c + ", " + b.c + ")", tInt}
		}
		return xpr{"(" + g.toF(a) + " / " + g.toF(b) + ")", tFloat}
	case fortran.TokPower:
		numeric()
		if bothInt {
			// The result's *type* depends on the exponent's run-time
			// sign, so the interpreter's typing must know it.
			switch g.typing.TypeOf(x) {
			case fortran.TypeInteger:
				k, _ := interp.Fold(x.Y)
				return xpr{"Ipow(" + a.c + ", " + intLit(k.I) + ")", tInt}
			case fortran.TypeUnknown:
				g.decline("INTEGER ** non-constant INTEGER exponent")
			}
		}
		return xpr{"math.Pow(" + g.toF(a) + ", " + g.toF(b) + ")", tFloat}
	case fortran.TokLt:
		return g.compare(a, b, "<")
	case fortran.TokLe:
		return g.compare(a, b, "<=")
	case fortran.TokGt:
		return g.compare(a, b, ">")
	case fortran.TokGe:
		return g.compare(a, b, ">=")
	case fortran.TokEqEq:
		return g.compare(a, b, "==")
	case fortran.TokNe:
		return g.compare(a, b, "!=")
	case fortran.TokConcat:
		if a.t != tStr || b.t != tStr {
			g.decline("// concatenation of non-character operands")
		}
		return xpr{"(" + a.c + " + " + b.c + ")", tStr}
	}
	g.decline("unknown operator")
	return xpr{}
}

func (g *gen) compare(a, b xpr, op string) xpr {
	switch {
	case a.t == tInt && b.t == tInt:
		return xpr{"(" + a.c + " " + op + " " + b.c + ")", tBool}
	case a.t == tStr && b.t == tStr:
		return xpr{"(" + a.c + " " + op + " " + b.c + ")", tBool}
	case a.t == tStr || b.t == tStr || a.t == tBool || b.t == tBool:
		g.decline("comparison of mixed or non-orderable types")
	}
	// A NaN is neither below nor above anything, so it compares as
	// equal: only < and > are Go's.
	x, y := g.toF(a), g.toF(b)
	switch op {
	case "<=":
		return xpr{"(!(" + x + " > " + y + "))", tBool}
	case ">=":
		return xpr{"(!(" + x + " < " + y + "))", tBool}
	case "==":
		return xpr{"Feq(" + x + ", " + y + ")", tBool}
	case "!=":
		return xpr{"Fne(" + x + ", " + y + ")", tBool}
	}
	return xpr{"(" + x + " " + op + " " + y + ")", tBool}
}

// ---------------------------------------------------------------------------
// Calls

func (g *gen) call(x *fortran.FuncCall) xpr {
	if x.Callee != nil {
		res := x.Callee.Lookup(x.Callee.Name)
		if res == nil || res.Kind != fortran.SymScalar {
			g.decline("function %s has no scalar result variable", x.Callee.Name)
		}
		return xpr{mangleUnit(x.Callee.Name) + "(" + g.bindArgs(x.Callee, x.Args) + ")", g.symType(res)}
	}
	row, ok := interp.Intrinsics[x.Name]
	if !ok {
		g.decline("call to external function %s", x.Name)
	}
	// An intrinsic: the type the proof gives the call, and the Go names
	// of the row's operations.
	args := make([]xpr, len(x.Args))
	for i, a := range x.Args {
		args[i] = g.expr(a)
	}
	if err := row.Arity(x.Name, len(args)); err != nil {
		g.decline("%v", err)
	}
	switch t := g.typing.TypeOf(x); {
	case t == fortran.TypeInteger && !row.Int.Empty():
		return xpr{goCall(row.Int.Go, args, g.toInt), tInt}
	case t == fortran.TypeInteger:
		return xpr{"int64(" + goCall(row.Float.Go, args, g.toF) + ")", tInt}
	case t.Numeric():
		return xpr{goCall(row.Float.Go, args, g.toF), tFloat}
	}
	g.decline("%s on non-numeric argument", x.Name)
	return xpr{}
}

// goCall renders a call of the Go function name on args, each converted
// by conv; an operation with no name is its one argument.
func goCall(name string, args []xpr, conv func(xpr) string) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = conv(a)
	}
	if name == "" {
		return parts[0]
	}
	return name + "(" + strings.Join(parts, ", ") + ")"
}

// bindArgs lowers an actual-argument list following the interpreter's
// binding rules: variable scalars by reference, whole arrays and
// array-element tails by storage sharing, everything else into a
// fresh cell. Every binding's storage type agrees with the formal's:
// where it would not, the proof marks the formal and Generate has
// declined.
func (g *gen) bindArgs(callee *fortran.Unit, actuals []fortran.Expr) string {
	if len(actuals) < len(callee.Args) {
		g.decline("%s: call with %d args for %d formals", callee.Name, len(actuals), len(callee.Args))
	}
	parts := make([]string, 0, len(callee.Args))
	// Actuals beyond the formal list are dropped unevaluated, exactly
	// like the interpreter's binder.
	for i, formal := range callee.Args {
		a := actuals[i]
		if vr, ok := a.(*fortran.VarRef); ok && vr.Sym != nil && vr.Sym.Kind != fortran.SymParam {
			switch {
			case vr.Sym.IsArray() && len(vr.Subs) == 0:
				if formal.Kind != fortran.SymArray {
					g.decline("%s: whole array %s passed to scalar formal", callee.Name, vr.Sym.Name)
				}
				parts = append(parts, g.arrName(vr.Sym))
				continue
			case vr.Sym.IsArray() && len(vr.Subs) > 0 && formal.Kind == fortran.SymArray:
				// Sequence association: alias the tail of the storage.
				parts = append(parts, g.arrName(vr.Sym)+".Tail("+g.subs(vr.Subs)+")")
				continue
			case !vr.Sym.IsArray() && len(vr.Subs) == 0:
				if formal.Kind != fortran.SymScalar {
					g.decline("%s: scalar %s passed to array formal", callee.Name, vr.Sym.Name)
				}
				if vr.Sym.Dummy {
					parts = append(parts, mangleVar(vr.Sym.Name))
				} else {
					parts = append(parts, "&"+g.scalRef(vr.Sym))
				}
				continue
			}
		}
		// Expression actual: evaluated into a fresh cell (by value).
		if formal.Kind != fortran.SymScalar {
			g.decline("%s: expression passed to array formal %s", callee.Name, formal.Name)
		}
		parts = append(parts, refFn(g.symType(formal))+"("+g.expr(a).c+")")
	}
	return strings.Join(parts, ", ")
}
