package codegen

import (
	"strconv"
	"strings"

	"parascope/internal/fortran"
)

// expr lowers an expression, returning Go source text and the static
// type. Static types are decidable because every storage location has
// a declared type and the interpreter's convert-on-store keeps the
// dynamic type equal to it; the only runtime-type-dependent construct
// (INTEGER ** non-constant INTEGER) is declined.
func (g *gen) expr(e fortran.Expr) xpr {
	switch x := e.(type) {
	case *fortran.IntLit:
		return xpr{intLit(x.Val), tInt}
	case *fortran.RealLit:
		return xpr{floatLit(x.Val), tFloat}
	case *fortran.LogLit:
		if x.Val {
			return xpr{"true", tBool}
		}
		return xpr{"false", tBool}
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
		v, ok := g.fold(sym.Value, 0)
		if !ok {
			g.decline("PARAMETER %s is not a foldable constant", sym.Name)
		}
		return convertC(v, g.symType(sym)).lit()
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
			// The result's *type* depends on the exponent's runtime
			// sign in the interpreter, so the exponent must fold.
			k, ok := g.fold(x.Y, 0)
			if !ok || k.t != tInt {
				g.decline("INTEGER ** non-constant INTEGER exponent")
			}
			if k.i >= 0 {
				return xpr{"Ipow(" + a.c + ", " + intLit(k.i) + ")", tInt}
			}
			return xpr{"math.Pow(" + g.toF(a) + ", " + g.toF(b) + ")", tFloat}
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
	return xpr{"(" + g.toF(a) + " " + op + " " + g.toF(b) + ")", tBool}
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
	if _, ok := fortran.Intrinsics[x.Name]; ok {
		return g.intrinsic(x)
	}
	g.decline("call to external function %s", x.Name)
	return xpr{}
}

// bindArgs lowers an actual-argument list following the interpreter's
// binding rules: variable scalars by reference, whole arrays and
// array-element tails by storage sharing, everything else into a
// fresh cell. Static types must agree with the formals; otherwise the
// callee's statically-typed code would diverge from the
// interpreter's dynamic typing.
func (g *gen) bindArgs(callee *fortran.Unit, actuals []fortran.Expr) string {
	if len(actuals) < len(callee.Args) {
		g.decline("%s: call with %d args for %d formals", callee.Name, len(actuals), len(callee.Args))
	}
	parts := make([]string, 0, len(callee.Args))
	// Actuals beyond the formal list are dropped unevaluated, exactly
	// like the interpreter's binder.
	for i, formal := range callee.Args {
		a := actuals[i]
		ft := g.symType(formal)
		if vr, ok := a.(*fortran.VarRef); ok && vr.Sym != nil && vr.Sym.Kind != fortran.SymParam {
			switch {
			case vr.Sym.IsArray() && len(vr.Subs) == 0:
				if formal.Kind != fortran.SymArray {
					g.decline("%s: whole array %s passed to scalar formal", callee.Name, vr.Sym.Name)
				}
				if g.symType(vr.Sym) != ft {
					g.decline("%s: array %s element type mismatch at call boundary", callee.Name, vr.Sym.Name)
				}
				parts = append(parts, g.arrName(vr.Sym))
				continue
			case vr.Sym.IsArray() && len(vr.Subs) > 0 && formal.Kind == fortran.SymArray:
				// Sequence association: alias the tail of the storage.
				if g.symType(vr.Sym) != ft {
					g.decline("%s: array %s element type mismatch at call boundary", callee.Name, vr.Sym.Name)
				}
				parts = append(parts, g.arrName(vr.Sym)+".Tail("+g.subs(vr.Subs)+")")
				continue
			case !vr.Sym.IsArray() && len(vr.Subs) == 0:
				if formal.Kind != fortran.SymScalar {
					g.decline("%s: scalar %s passed to array formal", callee.Name, vr.Sym.Name)
				}
				if g.symType(vr.Sym) != ft {
					g.decline("%s: scalar %s type mismatch at call boundary", callee.Name, vr.Sym.Name)
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
		v := g.expr(a)
		if v.t != ft {
			g.decline("%s: expression argument type mismatch (want %s, got %s)",
				callee.Name, ft.goName(), v.t.goName())
		}
		parts = append(parts, refFn(ft)+"("+v.c+")")
	}
	return strings.Join(parts, ", ")
}

// ---------------------------------------------------------------------------
// Intrinsics — one case per entry in fortran.Intrinsics, replicating
// the interpreter's result-type and conversion rules.

func (g *gen) intrinsic(x *fortran.FuncCall) xpr {
	name := x.Name
	args := make([]xpr, len(x.Args))
	for i, a := range x.Args {
		args[i] = g.expr(a)
	}
	need := func(n int) {
		if len(args) != n {
			g.decline("%s expects %d args, got %d", name, n, len(args))
		}
	}
	one := func(fn string) xpr {
		need(1)
		return xpr{fn + "(" + g.toF(args[0]) + ")", tFloat}
	}
	switch name {
	case "abs":
		need(1)
		if args[0].t == tInt {
			return xpr{"Iabs(" + args[0].c + ")", tInt}
		}
		return xpr{"math.Abs(" + g.toF(args[0]) + ")", tFloat}
	case "iabs":
		need(1)
		return xpr{"Iabs(" + g.toInt(args[0]) + ")", tInt}
	case "sqrt":
		return one("math.Sqrt")
	case "exp":
		return one("math.Exp")
	case "log":
		return one("math.Log")
	case "log10":
		return one("math.Log10")
	case "sin":
		return one("math.Sin")
	case "cos":
		return one("math.Cos")
	case "tan":
		return one("math.Tan")
	case "atan":
		return one("math.Atan")
	case "asin":
		return one("math.Asin")
	case "acos":
		return one("math.Acos")
	case "sinh":
		return one("math.Sinh")
	case "cosh":
		return one("math.Cosh")
	case "tanh":
		return one("math.Tanh")
	case "atan2":
		need(2)
		return xpr{"math.Atan2(" + g.toF(args[0]) + ", " + g.toF(args[1]) + ")", tFloat}
	case "max", "amax1", "max0":
		return g.minMax(name, args, true)
	case "min", "amin1", "min0":
		return g.minMax(name, args, false)
	case "mod", "amod":
		need(2)
		if args[0].t == tInt && args[1].t == tInt {
			return xpr{"Imod(" + args[0].c + ", " + args[1].c + ")", tInt}
		}
		return xpr{"math.Mod(" + g.toF(args[0]) + ", " + g.toF(args[1]) + ")", tFloat}
	case "sign":
		need(2)
		c := "Fsign(" + g.toF(args[0]) + ", " + g.toF(args[1]) + ")"
		if args[0].t == tInt {
			return xpr{"int64(" + c + ")", tInt}
		}
		return xpr{c, tFloat}
	case "dim":
		need(2)
		c := "Fdim(" + g.toF(args[0]) + ", " + g.toF(args[1]) + ")"
		if args[0].t == tInt {
			return xpr{"int64(" + c + ")", tInt}
		}
		return xpr{c, tFloat}
	case "int", "ifix":
		need(1)
		return xpr{"int64(" + g.toF(args[0]) + ")", tInt}
	case "nint":
		need(1)
		return xpr{"int64(math.Round(" + g.toF(args[0]) + "))", tInt}
	case "real", "float", "sngl", "dble":
		need(1)
		return xpr{g.toF(args[0]), tFloat}
	}
	g.decline("unknown intrinsic %s", name)
	return xpr{}
}

func (g *gen) minMax(name string, args []xpr, wantMax bool) xpr {
	if len(args) < 2 {
		g.decline("%s needs at least 2 args", name)
	}
	allInt := true
	for _, a := range args {
		if a.t != tInt {
			allInt = false
		}
		if a.t != tInt && a.t != tFloat {
			g.decline("%s on non-numeric argument", name)
		}
	}
	if name == "max0" || name == "min0" {
		allInt = true
	}
	if name == "amax1" || name == "amin1" {
		allInt = false
	}
	fn := map[bool]map[bool]string{
		true:  {true: "Imax", false: "Imin"},
		false: {true: "Fmax", false: "Fmin"},
	}[allInt][wantMax]
	parts := make([]string, len(args))
	for i, a := range args {
		if allInt {
			parts[i] = g.toInt(a)
		} else {
			parts[i] = g.toF(a)
		}
	}
	t := tFloat
	if allInt {
		t = tInt
	}
	return xpr{fn + "(" + strings.Join(parts, ", ") + ")", t}
}
