package interp

import (
	"fmt"

	"parascope/internal/fortran"
)

// Proof is the typing both backends read. Its keys are the symbols
// whose storage may come to hold a value of another storage type than
// the symbol declares, each with the rule that put it there. The tree
// walker this package once was tagged every value and decided
// arithmetic from the tags; compiled code takes those decisions once,
// at compile time, but only for the symbols outside this set — for the
// rest, and for LOGICAL and CHARACTER data, it still works on tagged
// values. The code generator has no tags: it declines a program with a
// symbol in the set.
//
// A store converts to the type of the symbol it names, so a tag can
// differ from a declaration only where two symbols name one storage:
// a dummy argument and the variable, array or element passed to it, a
// COMMON member declared in two units, and a dummy bound to the value
// of an expression — which arrives unconverted. A DO variable is the
// one store that does not convert: it is INTEGER whatever its symbol
// says.
type Proof map[*fortran.Symbol]string

// Prove computes the proof for a whole file: the least set closed
// under "two symbols that may share storage are both in it when their
// storage types differ or either is in it", starting from the
// non-INTEGER DO variables and the dummies some call hands a value of
// another storage type. A symbol the closure adds records the symbol it
// shares storage with, and that symbol's rule.
func Prove(file *fortran.File) Proof {
	p := Proof{}
	for changed := true; changed; {
		changed = false
		mark := func(origin string, syms ...*fortran.Symbol) {
			for _, s := range syms {
				if p[s] == "" {
					p[s], changed = origin, true
				}
			}
		}
		share := func(a, b *fortran.Symbol) {
			switch {
			case p[a] != "" && p[b] != "":
			case storage(a.Type) != storage(b.Type):
				mark(shared(a, b), a, b)
			case p[a] != "":
				mark(p.via(a), b)
			case p[b] != "":
				mark(p.via(b), a)
			}
		}
		bind := func(caller, callee *fortran.Unit, args []fortran.Expr) {
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
					if formal.Kind != fortran.SymScalar || p[formal] != "" {
						break
					}
					if t := p.TypeOf(a); storage(t) != storage(formal.Type) {
						what := "a value of a type only the run tells"
						if t != fortran.TypeUnknown {
							what = "a value of type " + t.String()
						}
						mark(fmt.Sprintf("%s passes %s to %s %s of %s", caller.Name, what, formal.Type, formal.Name, callee.Name), formal)
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
						mark("a DO variable holds integers", st.Var)
					}
				case *fortran.CallStmt:
					if st.Callee != nil {
						bind(u, st.Callee, st.Args)
					}
				}
				fortran.WalkExprs(s, func(e fortran.Expr) {
					if call, ok := e.(*fortran.FuncCall); ok && call.Callee != nil {
						bind(u, call.Callee, call.Args)
					}
				})
				return true
			})
		}
	}
	return p
}

// storage is the type a value is stored and printed as by both
// backends: REAL and DOUBLE PRECISION are one float64, formatted alike,
// so no result can tell them apart.
func storage(t fortran.Type) fortran.Type {
	if t == fortran.TypeDouble {
		return fortran.TypeReal
	}
	return t
}

// shared is the rule that marks a and b, two symbols of different
// storage types naming one storage: b is the dummy a is passed to, or
// the COMMON member a is declared as in another unit.
func shared(a, b *fortran.Symbol) string {
	if b.Dummy {
		return fmt.Sprintf("%s passes %s %s to %s %s of %s", a.Unit.Name, a.Type, a.Name, b.Type, b.Name, b.Unit.Name)
	}
	return fmt.Sprintf("COMMON /%s/ %s is %s in %s and %s in %s", a.Common, a.Name, a.Type, a.Unit.Name, b.Type, b.Unit.Name)
}

// via is the rule that marks a symbol for sharing storage with the
// marked symbol a: a's own rule, one step further from it.
func (p Proof) via(a *fortran.Symbol) string {
	return fmt.Sprintf("shares storage with %s of %s; %s", a.Name, a.Unit.Name, p[a])
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
func (p Proof) typed(sym *fortran.Symbol) bool {
	return sym.Type.Numeric() && p[sym] == ""
}

// TypeOf is the type e's value is proven to have, or TypeUnknown when
// only the run can tell. It is the tree walker's typing, not Fortran's:
// an intrinsic's is its row's Rule and an operator's its row's Result,
// so an INTEGER raised to an INTEGER is INTEGER only when the exponent
// folds to a constant that is not negative.
func (p Proof) TypeOf(e fortran.Expr) fortran.Type {
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
	case *fortran.StrLit:
		return fortran.TypeCharacter
	case *fortran.VarRef:
		switch sym := x.Sym; {
		case sym == nil:
		case sym.Kind == fortran.SymParam:
			// A named constant's value is converted to its type on
			// every reference.
			return sym.Type
		case sym.Kind == fortran.SymScalar || sym.IsArray() && len(x.Subs) > 0:
			if p[sym] == "" {
				return sym.Type
			}
		}
	case *fortran.FuncCall:
		if x.Callee != nil {
			if ret := x.Callee.Lookup(x.Callee.Name); ret != nil && ret.Kind == fortran.SymScalar && p[ret] == "" {
				return ret.Type
			}
			return fortran.TypeUnknown
		}
		return p.intrinsicType(x)
	case *fortran.Unary:
		t := p.TypeOf(x.X)
		switch {
		case x.Op == fortran.TokNot:
			return fortran.TypeLogical
		case t.Numeric():
			return t
		case x.Op != fortran.TokMinus:
			return t // +x, or an operator that leaves x alone
		}
	case *fortran.Binary:
		switch o := Arithmetic[x.Op]; {
		case o != nil:
			a, b := p.TypeOf(x.X), p.TypeOf(x.Y)
			if !a.Numeric() || !b.Numeric() {
				return fortran.TypeUnknown
			}
			negative := false
			if o.Natural && a == fortran.TypeInteger && b == fortran.TypeInteger {
				k, ok := Fold(x.Y)
				if !ok {
					return fortran.TypeUnknown
				}
				negative = k.I < 0
			}
			return o.Result(a, b, negative)
		case Relations[x.Op] != nil, x.Op == fortran.TokAnd, x.Op == fortran.TokOr:
			return fortran.TypeLogical
		case x.Op == fortran.TokConcat:
			return fortran.TypeCharacter
		}
	}
	return fortran.TypeUnknown
}

// intrinsicType is TypeOf for a call of an intrinsic: its row's rule on
// the arguments' types when they are all proven numeric. Every other
// call — an unknown name, a wrong argument count — is made on tagged
// values, where it fails.
func (p Proof) intrinsicType(x *fortran.FuncCall) fortran.Type {
	row, ok := Intrinsics[x.Name]
	if !ok || row.Arity(x.Name, len(x.Args)) != nil {
		return fortran.TypeUnknown
	}
	first, allInt := fortran.TypeUnknown, true
	for i, a := range x.Args {
		t := p.TypeOf(a)
		if !t.Numeric() {
			return fortran.TypeUnknown
		}
		if i == 0 {
			first = t
		}
		allInt = allInt && t == fortran.TypeInteger
	}
	return row.Result(first, allInt)
}

// Fold evaluates a constant expression — literals, PARAMETERs and the
// operators on them — with the operations a run applies to tagged
// values, so a folded value is the value the run computes. ok is false
// for any other expression, and for one whose evaluation would be a
// run-time error.
func Fold(e fortran.Expr) (v Value, ok bool) {
	err := try(func() { v, ok = fold(e) })
	return v, ok && err == nil
}

func fold(e fortran.Expr) (Value, bool) {
	switch x := e.(type) {
	case *fortran.IntLit:
		return IntVal(x.Val), true
	case *fortran.RealLit:
		if x.Double {
			return DoubleVal(x.Val), true
		}
		return RealVal(x.Val), true
	case *fortran.LogLit:
		return LogVal(x.Val), true
	case *fortran.StrLit:
		return Value{Type: fortran.TypeCharacter, S: x.Val}, true
	case *fortran.VarRef:
		if x.Sym != nil && x.Sym.Kind == fortran.SymParam && x.Sym.Value != nil {
			v, ok := fold(x.Sym.Value)
			return convert(v, x.Sym.Type), ok
		}
	case *fortran.Unary:
		v, ok := fold(x.X)
		return unaryOp(x.Op, v), ok
	case *fortran.Binary:
		if a, ok := fold(x.X); ok {
			if b, ok := fold(x.Y); ok {
				return binary(x.Op)(a, b), true
			}
		}
	}
	return Value{}, false
}
