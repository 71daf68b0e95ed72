package fortran

// Intrinsic function names understood by the front end, estimator and
// interpreter. The value is the result-type rule: TypeUnknown means
// "same as first argument".
var Intrinsics = map[string]Type{
	"abs":   TypeUnknown,
	"iabs":  TypeInteger,
	"sqrt":  TypeUnknown,
	"exp":   TypeUnknown,
	"log":   TypeUnknown,
	"log10": TypeUnknown,
	"sin":   TypeUnknown,
	"cos":   TypeUnknown,
	"tan":   TypeUnknown,
	"atan":  TypeUnknown,
	"atan2": TypeUnknown,
	"max":   TypeUnknown,
	"amax1": TypeReal,
	"max0":  TypeInteger,
	"min":   TypeUnknown,
	"amin1": TypeReal,
	"min0":  TypeInteger,
	"mod":   TypeUnknown,
	"amod":  TypeReal,
	"sign":  TypeUnknown,
	"int":   TypeInteger,
	"ifix":  TypeInteger,
	"nint":  TypeInteger,
	"real":  TypeReal,
	"float": TypeReal,
	"dble":  TypeDouble,
	"sngl":  TypeReal,
	"dim":   TypeUnknown,
	"sinh":  TypeUnknown,
	"cosh":  TypeUnknown,
	"tanh":  TypeUnknown,
	"asin":  TypeUnknown,
	"acos":  TypeUnknown,
}

// resolve binds names to symbols across the file: VarRefs whose name
// denotes a function become FuncCalls, call statements are linked to
// their defining units, and simple semantic checks run.
func resolve(f *File, errs *ErrorList) {
	units := unitsByName(f)
	for _, u := range f.Units {
		r := &resolver{file: f, unit: u, units: units, errs: errs}
		r.stmts(u.Body)
	}
}

func unitsByName(f *File) map[string]*Unit {
	units := make(map[string]*Unit, len(f.Units))
	for _, u := range f.Units {
		units[u.Name] = u
	}
	return units
}

type resolver struct {
	file  *File
	unit  *Unit
	units map[string]*Unit
	errs  *ErrorList
}

func (r *resolver) stmts(body []Stmt) {
	WalkStmts(body, func(s Stmt) bool {
		if as, ok := s.(*AssignStmt); ok {
			as.Rhs = r.expr(as.Rhs)
			r.resolveLhs(as)
			return true
		}
		EditExprs(s, r.expr)
		if c, ok := s.(*CallStmt); ok {
			if callee, ok := r.units[c.Name]; ok && callee.Kind == UnitSubroutine {
				c.Callee = callee
			}
		}
		return true
	})
}

// resolveLhs binds the assignment target, which must be a variable.
func (r *resolver) resolveLhs(st *AssignStmt) {
	ref := st.Lhs
	sym := r.lookupOrCreate(ref.Name)
	ref.Sym = sym
	for i, sub := range ref.Subs {
		ref.Subs[i] = r.expr(sub)
	}
	if sym.Kind == SymArray && len(ref.Subs) != 0 && len(ref.Subs) != len(sym.Dims) {
		r.errs.add(Pos{st.Line(), 1}, "%s: %d subscripts for %d-dimensional array",
			ref.Name, len(ref.Subs), len(sym.Dims))
	}
	if sym.Kind == SymScalar && len(ref.Subs) > 0 {
		// An undeclared name used with subscripts on the LHS must be
		// an array the user forgot to declare; treat as array with
		// assumed dims to continue.
		r.errs.add(Pos{st.Line(), 1}, "%s: subscripted but not declared as an array", ref.Name)
	}
	if sym.Kind == SymParam {
		r.errs.add(Pos{st.Line(), 1}, "%s: assignment to PARAMETER constant", ref.Name)
	}
}

// expr resolves names inside an expression, rewriting VarRef nodes
// that actually denote function calls.
func (r *resolver) expr(e Expr) Expr { return RewriteExpr(e, r.ref) }

// ref resolves one reference whose subscripts are resolved already.
func (r *resolver) ref(e Expr) Expr {
	x, ok := e.(*VarRef)
	if !ok {
		return e
	}
	// A parenthesized name can be: array element, user function
	// call, or intrinsic call.
	if sym, ok := r.unit.Syms[x.Name]; ok {
		x.Sym = sym
		if len(x.Subs) > 0 && sym.Kind != SymArray {
			// Scalar or anything else with parens: must be a function.
			return r.makeCall(x)
		}
		return x
	}
	if len(x.Subs) > 0 {
		return r.makeCall(x)
	}
	// Bare name: create implicit scalar.
	x.Sym = r.lookupOrCreate(x.Name)
	return x
}

func (r *resolver) makeCall(x *VarRef) Expr {
	call := &FuncCall{Name: x.Name, Args: x.Subs}
	if _, ok := Intrinsics[x.Name]; ok {
		return call
	}
	if u, ok := r.units[x.Name]; ok && u.Kind == UnitFunction {
		call.Callee = u
		return call
	}
	// Unknown name used as f(args): register as external function.
	if old := r.unit.Syms[x.Name]; old != nil && old.Kind != SymFunc {
		r.unit.KindChanges++
	}
	sym := r.lookupOrCreate(x.Name)
	sym.Kind = SymFunc
	call.Sym = sym
	return call
}

func (r *resolver) lookupOrCreate(name string) *Symbol {
	if s, ok := r.unit.Syms[name]; ok {
		return s
	}
	s := &Symbol{Name: name, Kind: SymScalar, Type: implicitType(name), Unit: r.unit}
	r.unit.Syms[name] = s
	return s
}

// ExprType computes the static type of an expression within unit u.
func ExprType(u *Unit, e Expr) Type {
	switch x := e.(type) {
	case *IntLit:
		return TypeInteger
	case *RealLit:
		if x.Double {
			return TypeDouble
		}
		return TypeReal
	case *LogLit:
		return TypeLogical
	case *StrLit:
		return TypeCharacter
	case *VarRef:
		if x.Sym != nil {
			return x.Sym.Type
		}
		if s, ok := u.Syms[x.Name]; ok {
			return s.Type
		}
		return implicitType(x.Name)
	case *FuncCall:
		if x.Callee != nil {
			if x.Callee.RetType != TypeUnknown {
				return x.Callee.RetType
			}
			return implicitType(x.Callee.Name)
		}
		if t, ok := Intrinsics[x.Name]; ok {
			if t != TypeUnknown {
				return t
			}
			if len(x.Args) > 0 {
				return ExprType(u, x.Args[0])
			}
			return TypeReal
		}
		return implicitType(x.Name)
	case *Unary:
		if x.Op == TokNot {
			return TypeLogical
		}
		return ExprType(u, x.X)
	case *Binary:
		switch x.Op {
		case TokLt, TokLe, TokGt, TokGe, TokEqEq, TokNe, TokAnd, TokOr:
			return TypeLogical
		}
		tx, ty := ExprType(u, x.X), ExprType(u, x.Y)
		return promote(tx, ty)
	}
	return TypeUnknown
}

func promote(a, b Type) Type {
	if a == TypeDouble || b == TypeDouble {
		return TypeDouble
	}
	if a == TypeReal || b == TypeReal {
		return TypeReal
	}
	if a == TypeInteger && b == TypeInteger {
		return TypeInteger
	}
	if a == TypeLogical && b == TypeLogical {
		return TypeLogical
	}
	return TypeReal
}
