package codegen

import (
	"strconv"
	"strings"

	"parascope/internal/fortran"
	"parascope/internal/interp"
)

// expr lowers an expression to Go source text, typed as Proof.TypeOf
// types it. Every storage holds its declared type, because Generate
// declined each program in which the proof marks one; an expression
// whose type only the run can tell — INTEGER ** non-constant INTEGER —
// is declined here.
func (g *gen) expr(e fortran.Expr) xpr {
	ft := g.typing.TypeOf(e)
	var c string
	switch x := e.(type) {
	case *fortran.IntLit:
		c = intLit(x.Val)
	case *fortran.RealLit:
		c = floatLit(x.Val)
	case *fortran.LogLit:
		c = strconv.FormatBool(x.Val)
	case *fortran.StrLit:
		c = strconv.Quote(x.Val)
	case *fortran.VarRef:
		c = g.ref(x)
	case *fortran.FuncCall:
		c = g.call(x, ft)
	case *fortran.Unary:
		c = g.unary(x)
	case *fortran.Binary:
		c = g.binary(x, ft)
	default:
		g.decline("cannot lower expression %T", e)
	}
	t, ok := goType(ft)
	if !ok {
		g.decline("the type of %s only the run can tell", e)
	}
	return xpr{c, t}
}

func (g *gen) ref(x *fortran.VarRef) string {
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
		return a + ".Data[" + a + ".Idx(" + g.subs(x.Subs) + ")]"
	}
	return g.scalRef(sym)
}

func (g *gen) unary(x *fortran.Unary) string {
	v := g.expr(x.X)
	switch x.Op {
	case fortran.TokMinus:
		if v.t != tInt && v.t != tFloat {
			g.decline("unary minus on non-numeric value")
		}
		return "(-" + v.c + ")"
	case fortran.TokNot:
		if v.t != tBool {
			g.decline(".not. on non-logical value")
		}
		return "(!" + v.c + ")"
	}
	return v.c // unary plus: the interpreter returns the operand unchanged
}

// binary writes an operator's Go form from its row: the integer one
// where TypeOf types an arithmetic result INTEGER or a comparison's
// operands both INTEGER or both CHARACTER, the float one on any other
// numeric operands.
func (g *gen) binary(x *fortran.Binary, t fortran.Type) string {
	a, b := g.expr(x.X), g.expr(x.Y)
	numeric := (a.t == tInt || a.t == tFloat) && (b.t == tInt || b.t == tFloat)
	if o := interp.Arithmetic[x.Op]; o != nil {
		switch {
		case !numeric:
			g.decline("arithmetic on non-numeric operands")
		case t == fortran.TypeInteger:
			return form(o.GoInt, a.c, b.c)
		case t.Numeric():
			return form(o.GoFloat, g.toF(a), g.toF(b))
		}
		g.decline("INTEGER ** non-constant INTEGER exponent")
	}
	if r := interp.Relations[x.Op]; r != nil {
		switch {
		case a.t == b.t && (a.t == tInt || a.t == tStr):
			return form(r.GoInt, a.c, b.c)
		case numeric:
			return form(r.GoFloat, g.toF(a), g.toF(b))
		}
		g.decline("comparison of mixed or non-orderable types")
	}
	switch x.Op {
	case fortran.TokAnd, fortran.TokOr:
		// && and || short-circuit exactly like the interpreter's .and./.or.
		if a.t != tBool || b.t != tBool {
			g.decline("logical operator on non-logical operands")
		}
		op := "&&"
		if x.Op == fortran.TokOr {
			op = "||"
		}
		return "(" + a.c + " " + op + " " + b.c + ")"
	case fortran.TokConcat:
		if a.t != tStr || b.t != tStr {
			g.decline("// concatenation of non-character operands")
		}
		return "(" + a.c + " + " + b.c + ")"
	}
	g.decline("unknown operator")
	return ""
}

// form writes an operator row's Go form, two %s verbs, around the text
// of its operands: what fmt.Sprintf would, without boxing the operands.
func form(f, a, b string) string {
	pre, rest, _ := strings.Cut(f, "%s")
	mid, post, _ := strings.Cut(rest, "%s")
	return pre + a + mid + b + post
}

// ---------------------------------------------------------------------------
// Calls

func (g *gen) call(x *fortran.FuncCall, t fortran.Type) string {
	if x.Callee != nil {
		res := x.Callee.Lookup(x.Callee.Name)
		if res == nil || res.Kind != fortran.SymScalar {
			g.decline("function %s has no scalar result variable", x.Callee.Name)
		}
		return mangleUnit(x.Callee.Name) + "(" + g.bindArgs(x.Callee, x.Args) + ")"
	}
	row, ok := interp.Intrinsics[x.Name]
	if !ok {
		g.decline("call to external function %s", x.Name)
	}
	// An intrinsic: the Go names of its row's operations.
	args := make([]xpr, len(x.Args))
	for i, a := range x.Args {
		args[i] = g.expr(a)
	}
	if err := row.Arity(x.Name, len(args)); err != nil {
		g.decline("%v", err)
	}
	switch {
	case t == fortran.TypeInteger && !row.Int.Empty():
		return goCall(row.Int.Go, args, g.toInt)
	case t == fortran.TypeInteger:
		return "int64(" + goCall(row.Float.Go, args, g.toF) + ")"
	case t.Numeric():
		return goCall(row.Float.Go, args, g.toF)
	}
	g.decline("%s on non-numeric argument", x.Name)
	return ""
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
