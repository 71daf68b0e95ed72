package interp

import "parascope/internal/fortran"

// proof is the set of symbols whose storage may come to hold a value
// of another type than the symbol declares. The tree walker this
// package once was tagged every value and decided arithmetic from the
// tags; compiled code takes those decisions once, at compile time, but
// only for the symbols outside this set — for the rest, and for
// LOGICAL and CHARACTER data, it still works on tagged values.
//
// A store converts to the type of the symbol it names, so a tag can
// differ from a declaration only where two symbols name one storage:
// a dummy argument and the variable, array or element passed to it, a
// COMMON member declared in two units, and a dummy bound to the value
// of an expression — which arrives unconverted. A DO variable is the
// one store that does not convert: it is INTEGER whatever its symbol
// says.
type proof map[*fortran.Symbol]bool

// prove computes the proof for a whole file: the least set closed
// under "two symbols that may share storage are both in it when their
// types differ or either is in it", starting from the non-INTEGER DO
// variables and the dummies some call hands a value of another type.
func prove(file *fortran.File) proof {
	p := proof{}
	for changed := true; changed; {
		changed = false
		mark := func(syms ...*fortran.Symbol) {
			for _, s := range syms {
				if !p[s] {
					p[s], changed = true, true
				}
			}
		}
		share := func(a, b *fortran.Symbol) {
			if a.Type != b.Type || p[a] || p[b] {
				mark(a, b)
			}
		}
		bind := func(callee *fortran.Unit, args []fortran.Expr) {
			for i, a := range args {
				if i >= len(callee.Args) {
					break
				}
				formal := callee.Args[i]
				switch actualKind(a, formal) {
				case actualArray, actualTail:
					if formal.Kind == fortran.SymArray {
						share(a.(*fortran.VarRef).Sym, formal)
					}
				case actualCell:
					if formal.Kind == fortran.SymScalar {
						share(a.(*fortran.VarRef).Sym, formal)
					}
				case actualValue:
					if formal.Kind == fortran.SymScalar && p.typeOf(a) != formal.Type {
						mark(formal)
					}
				}
			}
		}
		common := map[string]*fortran.Symbol{}
		for _, u := range file.Units {
			for _, sym := range u.Syms {
				if key := commonKey(sym); key != "" {
					if first, ok := common[key]; ok {
						share(first, sym)
					} else {
						common[key] = sym
					}
				}
			}
			fortran.WalkStmts(u.Body, func(s fortran.Stmt) bool {
				switch st := s.(type) {
				case *fortran.DoStmt:
					if st.Var.Type != fortran.TypeInteger {
						mark(st.Var)
					}
				case *fortran.CallStmt:
					if st.Callee != nil {
						bind(st.Callee, st.Args)
					}
				}
				fortran.WalkExprs(s, func(e fortran.Expr) {
					if call, ok := e.(*fortran.FuncCall); ok && call.Callee != nil {
						bind(call.Callee, call.Args)
					}
				})
				return true
			})
		}
	}
	return p
}

// commonKey names the COMMON storage of a scalar or array that lives
// in a block, "" for any other symbol. Scalars and arrays are kept
// apart: a name that is one in one unit and the other in another names
// two storages.
func commonKey(sym *fortran.Symbol) string {
	if sym.Common == "" || sym.Dummy {
		return ""
	}
	switch sym.Kind {
	case fortran.SymScalar:
		return sym.Common + "/" + sym.Name
	case fortran.SymArray:
		return sym.Common + "/" + sym.Name + "()"
	}
	return ""
}

// How a call passes one actual argument.
const (
	actualValue = iota // the value of an expression, in a fresh cell
	actualCell         // a scalar variable's own cell
	actualArray        // a whole array
	actualTail         // an array from one element on (sequence association)
)

func actualKind(a fortran.Expr, formal *fortran.Symbol) int {
	if vr, ok := a.(*fortran.VarRef); ok && vr.Sym != nil {
		switch {
		case vr.Sym.IsArray() && len(vr.Subs) == 0:
			return actualArray
		case vr.Sym.IsArray() && formal.Kind == fortran.SymArray:
			return actualTail
		case vr.Sym.Kind == fortran.SymScalar && len(vr.Subs) == 0:
			return actualCell
		}
	}
	return actualValue
}

// typed reports whether sym's storage is proven to hold its declared
// type, and that type is one compiled code keeps unboxed.
func (p proof) typed(sym *fortran.Symbol) bool {
	return sym.Type.Numeric() && !p[sym]
}

// typeOf is the type e's value is proven to have — INTEGER, REAL,
// DOUBLE PRECISION or LOGICAL — or TypeUnknown when only the run can
// tell (and for CHARACTER values, which stay tagged). It is the
// tree walker's typing, not Fortran's: mod of an integer and a real is
// REAL, max of doubles is REAL, an INTEGER raised to an INTEGER is REAL
// when the exponent turns out negative.
func (p proof) typeOf(e fortran.Expr) fortran.Type {
	switch x := e.(type) {
	case *fortran.IntLit:
		return fortran.TypeInteger
	case *fortran.RealLit:
		if x.Double {
			return fortran.TypeDouble
		}
		return fortran.TypeReal
	case *fortran.LogLit:
		return fortran.TypeLogical
	case *fortran.VarRef:
		switch sym := x.Sym; {
		case sym == nil:
		case sym.Kind == fortran.SymParam:
			// A named constant's value is converted to its type on
			// every reference.
			if sym.Type.Numeric() {
				return sym.Type
			}
		case sym.Kind == fortran.SymScalar || sym.IsArray() && len(x.Subs) > 0:
			if p.typed(sym) {
				return sym.Type
			}
		}
	case *fortran.FuncCall:
		if x.Callee != nil {
			if ret := x.Callee.Lookup(x.Callee.Name); ret != nil && ret.Kind == fortran.SymScalar && p.typed(ret) {
				return ret.Type
			}
			return fortran.TypeUnknown
		}
		return p.intrinsicType(x)
	case *fortran.Unary:
		t := p.typeOf(x.X)
		switch {
		case x.Op == fortran.TokNot:
			return fortran.TypeLogical
		case t.Numeric():
			return t
		case x.Op != fortran.TokMinus:
			return t // +x, or an operator that leaves x alone
		}
	case *fortran.Binary:
		switch x.Op {
		case fortran.TokLt, fortran.TokLe, fortran.TokGt, fortran.TokGe, fortran.TokEqEq, fortran.TokNe,
			fortran.TokAnd, fortran.TokOr:
			return fortran.TypeLogical
		case fortran.TokPlus, fortran.TokMinus, fortran.TokStar, fortran.TokSlash, fortran.TokPower:
			a, b := p.typeOf(x.X), p.typeOf(x.Y)
			if !a.Numeric() || !b.Numeric() {
				return fortran.TypeUnknown
			}
			if x.Op == fortran.TokPower && a == fortran.TypeInteger && b == fortran.TypeInteger {
				if k, ok := x.Y.(*fortran.IntLit); !ok || k.Val < 0 {
					return fortran.TypeUnknown
				}
			}
			return promote(a, b)
		}
	}
	return fortran.TypeUnknown
}

// promote is the type of an arithmetic result on two numeric types.
func promote(a, b fortran.Type) fortran.Type {
	switch {
	case a == fortran.TypeInteger && b == fortran.TypeInteger:
		return fortran.TypeInteger
	case a == fortran.TypeDouble || b == fortran.TypeDouble:
		return fortran.TypeDouble
	}
	return fortran.TypeReal
}

// intrinsicType is typeOf for a call of an intrinsic with arguments of
// proven numeric types; every other call — an unknown name, a wrong
// argument count, the rarer intrinsics — goes through intrinsic on
// tagged values.
func (p proof) intrinsicType(x *fortran.FuncCall) fortran.Type {
	n, first, allInt := len(x.Args), fortran.TypeUnknown, true
	for i, a := range x.Args {
		t := p.typeOf(a)
		if !t.Numeric() {
			return fortran.TypeUnknown
		}
		if i == 0 {
			first = t
		}
		allInt = allInt && t == fortran.TypeInteger
	}
	if _, ok := oneArg[x.Name]; ok && n == 1 {
		return promote(first, fortran.TypeReal)
	}
	switch x.Name {
	case "abs":
		if n == 1 {
			return first
		}
	case "int", "ifix", "nint":
		if n == 1 {
			return fortran.TypeInteger
		}
	case "real", "float", "sngl":
		if n == 1 {
			return fortran.TypeReal
		}
	case "dble":
		if n == 1 {
			return fortran.TypeDouble
		}
	case "mod", "amod":
		if n == 2 {
			if allInt {
				return fortran.TypeInteger
			}
			return fortran.TypeReal
		}
	case "max", "min", "max0", "min0", "amax1", "amin1":
		if n >= 2 {
			if x.Name[len(x.Name)-1] == '0' || allInt && x.Name[0] != 'a' {
				return fortran.TypeInteger
			}
			return fortran.TypeReal
		}
	}
	return fortran.TypeUnknown
}
