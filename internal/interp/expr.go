package interp

import (
	"math"
	"strings"

	"parascope/internal/codegen/prelude"
	"parascope/internal/fortran"
)

// An expression compiles to one closure, of the kind its consumer
// asks for: int, float and bool are the value as Value.Int, Value.Float
// and Value.B would give it, value is the tagged value itself. Where
// typeOf proves the expression's type the closure computes in int64,
// float64 or bool throughout; where it does not, the closure evaluates
// tagged values with the operations of value.go and converts at the
// end. Operands evaluate left to right, as the tree walker's did — an
// expression can call a function, and any part of it can fail.

func (c *compiler) int(e fortran.Expr) func(*frame) int64 {
	switch t := c.typeOf(e); {
	case t == fortran.TypeInteger:
		return c.intOp(e)
	case t.Numeric():
		x := c.floatOp(e)
		return func(f *frame) int64 { return int64(x(f)) }
	case t == fortran.TypeLogical:
		x := c.boolOp(e)
		return func(f *frame) int64 { x(f); return 0 }
	}
	x := c.valueOp(e)
	return func(f *frame) int64 { return x(f).Int() }
}

func (c *compiler) float(e fortran.Expr) func(*frame) float64 {
	switch t := c.typeOf(e); {
	case t == fortran.TypeInteger:
		x := c.intOp(e)
		return func(f *frame) float64 { return float64(x(f)) }
	case t.Numeric():
		return c.floatOp(e)
	case t == fortran.TypeLogical:
		x := c.boolOp(e)
		return func(f *frame) float64 { x(f); return 0 }
	}
	x := c.valueOp(e)
	return func(f *frame) float64 { return x(f).Float() }
}

func (c *compiler) bool(e fortran.Expr) func(*frame) bool {
	switch t := c.typeOf(e); {
	case t == fortran.TypeLogical:
		return c.boolOp(e)
	case t.Numeric():
		x := c.value(e)
		return func(f *frame) bool { x(f); return false }
	}
	x := c.valueOp(e)
	return func(f *frame) bool { return x(f).B }
}

func (c *compiler) value(e fortran.Expr) func(*frame) Value {
	switch t := c.typeOf(e); {
	case t == fortran.TypeInteger:
		x := c.intOp(e)
		return func(f *frame) Value { return IntVal(x(f)) }
	case t.Numeric():
		x := c.floatOp(e)
		return func(f *frame) Value { return Value{Type: t, R: x(f)} }
	case t == fortran.TypeLogical:
		x := c.boolOp(e)
		return func(f *frame) Value { return LogVal(x(f)) }
	}
	return c.valueOp(e)
}

// element compiles the address of the array element ref names: the
// array bound to the symbol's slot in this activation and the offset
// of the element in its storage, bounds-checked. It is the only
// constructor of element addresses — loads, stores, READ targets and
// sequence association all come here — so an observer of a run's reads
// and writes is a wrap of the closure this returns, chosen when the
// unit is compiled, and costs nothing when it is not chosen.
func (c *compiler) element(ref *fortran.VarRef) func(*frame) (*array, int64) {
	sym := ref.Sym
	slot, ok := c.array(sym)
	if !ok {
		return func(*frame) (*array, int64) {
			raise("interp: array %s has no storage", sym.Name)
			return nil, 0
		}
	}
	subs := make([]func(*frame) int64, len(ref.Subs))
	for i, s := range ref.Subs {
		subs[i] = c.int(s)
	}
	// The array's shape belongs to the storage, not to the symbol: a
	// dummy sees its caller's, a COMMON member its first declarer's.
	// Ranks 1 and 2 check the common case in line and leave the rest —
	// a rank mismatch, a subscript out of bounds — to index.
	switch len(subs) {
	case 1:
		s0 := subs[0]
		return func(f *frame) (*array, int64) {
			a, i := f.arrays[slot], s0(f)
			if off := i - a.lo[0]; len(a.ext) == 1 && uint64(off) < uint64(a.ext[0]) {
				return a, off
			}
			return a, a.mustIndex(i)
		}
	case 2:
		s0, s1 := subs[0], subs[1]
		return func(f *frame) (*array, int64) {
			a, i, j := f.arrays[slot], s0(f), s1(f)
			if len(a.ext) == 2 {
				oi, oj := i-a.lo[0], j-a.lo[1]
				if uint64(oi) < uint64(a.ext[0]) && uint64(oj) < uint64(a.ext[1]) {
					return a, oi + oj*a.ext[0]
				}
			}
			return a, a.mustIndex(i, j)
		}
	}
	return func(f *frame) (*array, int64) {
		a := f.arrays[slot]
		var buf [maxRank]int64
		vals := buf[:0]
		for _, s := range subs {
			vals = append(vals, s(f))
		}
		return a, a.mustIndex(vals...)
	}
}

// maxRank is Fortran 77's cap on the rank of an array, and so on the
// subscripts of a reference: they fit a buffer on the stack.
const maxRank = 7

func (a *array) mustIndex(subs ...int64) int64 {
	off, err := a.index(subs)
	if err != nil {
		panic(abort{err})
	}
	return off
}

// intOp compiles an expression typeOf proves INTEGER.
func (c *compiler) intOp(e fortran.Expr) func(*frame) int64 {
	switch x := e.(type) {
	case *fortran.IntLit:
		k := x.Val
		return func(*frame) int64 { return k }
	case *fortran.VarRef:
		switch {
		case x.Sym.Kind == fortran.SymParam:
			return c.int(x.Sym.Value)
		case x.Sym.IsArray():
			at := c.element(x)
			return func(f *frame) int64 {
				a, off := at(f)
				return a.i[off]
			}
		}
		if slot, ok := c.cell(x.Sym); ok {
			return func(f *frame) int64 { return f.cells[slot].v.I }
		}
	case *fortran.FuncCall:
		if x.Callee != nil {
			call := c.function(x)
			return func(f *frame) int64 { return call(f).v.I }
		}
		return c.intIntrinsic(x)
	case *fortran.Unary:
		a := c.intOp(x.X)
		if x.Op == fortran.TokMinus {
			return func(f *frame) int64 { return -a(f) }
		}
		return a
	case *fortran.Binary:
		a, b := c.intOp(x.X), c.intOp(x.Y)
		switch x.Op {
		case fortran.TokPlus:
			return func(f *frame) int64 { return a(f) + b(f) }
		case fortran.TokMinus:
			return func(f *frame) int64 { return a(f) - b(f) }
		case fortran.TokStar:
			return func(f *frame) int64 { return a(f) * b(f) }
		case fortran.TokSlash:
			return func(f *frame) int64 { return intDiv(a(f), b(f)) }
		case fortran.TokPower:
			return func(f *frame) int64 { return prelude.Ipow(a(f), b(f)) }
		}
	}
	// A proven scalar that does not exist where this runs (a bound
	// expression naming a later local): the general path reports it.
	v := c.valueOp(e)
	return func(f *frame) int64 { return v(f).Int() }
}

func (c *compiler) intIntrinsic(x *fortran.FuncCall) func(*frame) int64 {
	switch x.Name {
	case "abs":
		a := c.intOp(x.Args[0])
		return func(f *frame) int64 {
			v := a(f)
			if v < 0 {
				v = -v
			}
			return v
		}
	case "int", "ifix":
		a := c.float(x.Args[0])
		return func(f *frame) int64 { return int64(a(f)) }
	case "nint":
		a := c.float(x.Args[0])
		return func(f *frame) int64 { return int64(math.Round(a(f))) }
	case "mod", "amod":
		a, b := c.intOp(x.Args[0]), c.intOp(x.Args[1])
		return func(f *frame) int64 { return intMod(a(f), b(f)) }
	}
	// max, min, max0, min0: the first of equal values stays.
	args := make([]func(*frame) int64, len(x.Args))
	for i, a := range x.Args {
		args[i] = c.int(a)
	}
	wantMax := strings.Contains(x.Name, "max")
	return func(f *frame) int64 {
		best := args[0](f)
		for _, a := range args[1:] {
			if v := a(f); wantMax && v > best || !wantMax && v < best {
				best = v
			}
		}
		return best
	}
}

// floatOp compiles an expression typeOf proves REAL or DOUBLE
// PRECISION. Every operation is its own closure, so no product feeds
// a sum inside one Go expression and nothing fuses into a
// multiply-add the tree walker would not have computed.
func (c *compiler) floatOp(e fortran.Expr) func(*frame) float64 {
	switch x := e.(type) {
	case *fortran.RealLit:
		k := x.Val
		return func(*frame) float64 { return k }
	case *fortran.VarRef:
		switch {
		case x.Sym.Kind == fortran.SymParam:
			return c.float(x.Sym.Value)
		case x.Sym.IsArray():
			at := c.element(x)
			return func(f *frame) float64 {
				a, off := at(f)
				return a.r[off]
			}
		}
		if slot, ok := c.cell(x.Sym); ok {
			return func(f *frame) float64 { return f.cells[slot].v.R }
		}
	case *fortran.FuncCall:
		if x.Callee != nil {
			call := c.function(x)
			return func(f *frame) float64 { return call(f).v.R }
		}
		return c.floatIntrinsic(x)
	case *fortran.Unary:
		a := c.floatOp(x.X)
		if x.Op == fortran.TokMinus {
			return func(f *frame) float64 { return -a(f) }
		}
		return a
	case *fortran.Binary:
		a, b := c.float(x.X), c.float(x.Y)
		switch x.Op {
		case fortran.TokPlus:
			return func(f *frame) float64 { return a(f) + b(f) }
		case fortran.TokMinus:
			return func(f *frame) float64 { return a(f) - b(f) }
		case fortran.TokStar:
			return func(f *frame) float64 { return a(f) * b(f) }
		case fortran.TokSlash:
			return func(f *frame) float64 { return a(f) / b(f) }
		case fortran.TokPower:
			return func(f *frame) float64 { return math.Pow(a(f), b(f)) }
		}
	}
	v := c.valueOp(e)
	return func(f *frame) float64 { return v(f).Float() }
}

func (c *compiler) floatIntrinsic(x *fortran.FuncCall) func(*frame) float64 {
	if fn, ok := oneArg[x.Name]; ok {
		a := c.float(x.Args[0])
		return func(f *frame) float64 { return fn(a(f)) }
	}
	switch x.Name {
	case "abs":
		a := c.floatOp(x.Args[0])
		return func(f *frame) float64 { return math.Abs(a(f)) }
	case "real", "float", "sngl", "dble":
		return c.float(x.Args[0])
	case "mod", "amod":
		a, b := c.float(x.Args[0]), c.float(x.Args[1])
		return func(f *frame) float64 { return math.Mod(a(f), b(f)) }
	}
	// max, min, amax1, amin1 by plain comparison: a NaN never wins.
	args := make([]func(*frame) float64, len(x.Args))
	for i, a := range x.Args {
		args[i] = c.float(a)
	}
	wantMax := strings.Contains(x.Name, "max")
	return func(f *frame) float64 {
		best := args[0](f)
		for _, a := range args[1:] {
			if v := a(f); wantMax && v > best || !wantMax && v < best {
				best = v
			}
		}
		return best
	}
}

// boolOp compiles an expression typeOf proves LOGICAL: a literal, a
// comparison, .and., .or., .not. — LOGICAL variables stay tagged.
func (c *compiler) boolOp(e fortran.Expr) func(*frame) bool {
	switch x := e.(type) {
	case *fortran.LogLit:
		k := x.Val
		return func(*frame) bool { return k }
	case *fortran.Unary:
		if x.Op != fortran.TokNot {
			return c.boolOp(x.X)
		}
		a := c.bool(x.X)
		return func(f *frame) bool { return !a(f) }
	case *fortran.Binary:
		switch x.Op {
		case fortran.TokAnd:
			// Short-circuit (Fortran does not require it, but it is
			// compatible and faster).
			a, b := c.bool(x.X), c.bool(x.Y)
			return func(f *frame) bool { return a(f) && b(f) }
		case fortran.TokOr:
			a, b := c.bool(x.X), c.bool(x.Y)
			return func(f *frame) bool { return a(f) || b(f) }
		}
		return c.comparison(x)
	}
	v := c.valueOp(e)
	return func(f *frame) bool { return v(f).B }
}

// comparison compiles a relational operator: on integers when both
// operands are proven INTEGER, on floats when both are proven numeric
// or LOGICAL (which compares as 0), on tagged values otherwise — a
// CHARACTER operand makes it a string comparison.
func (c *compiler) comparison(x *fortran.Binary) func(*frame) bool {
	op, tx, ty := x.Op, c.typeOf(x.X), c.typeOf(x.Y)
	switch {
	case tx == fortran.TypeInteger && ty == fortran.TypeInteger:
		a, b := c.intOp(x.X), c.intOp(x.Y)
		switch op {
		case fortran.TokLt:
			return func(f *frame) bool { return a(f) < b(f) }
		case fortran.TokLe:
			return func(f *frame) bool { return a(f) <= b(f) }
		case fortran.TokGt:
			return func(f *frame) bool { return a(f) > b(f) }
		case fortran.TokGe:
			return func(f *frame) bool { return a(f) >= b(f) }
		case fortran.TokEqEq:
			return func(f *frame) bool { return a(f) == b(f) }
		}
		return func(f *frame) bool { return a(f) != b(f) }
	case tx != fortran.TypeUnknown && ty != fortran.TypeUnknown:
		// A NaN is neither below nor above: it compares as equal.
		a, b := c.float(x.X), c.float(x.Y)
		switch op {
		case fortran.TokLt:
			return func(f *frame) bool { return a(f) < b(f) }
		case fortran.TokGt:
			return func(f *frame) bool { return a(f) > b(f) }
		}
		return func(f *frame) bool { return ordered(op, compareFloats(a(f), b(f))) }
	}
	a, b := c.value(x.X), c.value(x.Y)
	return func(f *frame) bool { return compare(op, a(f), b(f)) }
}

// valueOp compiles an expression on tagged values: one whose type only
// the run can tell.
func (c *compiler) valueOp(e fortran.Expr) func(*frame) Value {
	fail := func(format string, args ...any) func(*frame) Value {
		return func(*frame) Value {
			raise(format, args...)
			return Value{}
		}
	}
	switch x := e.(type) {
	case *fortran.IntLit, *fortran.RealLit, *fortran.LogLit:
		return c.value(e)
	case *fortran.StrLit:
		v := Value{Type: fortran.TypeCharacter, S: x.Val}
		return func(*frame) Value { return v }
	case *fortran.VarRef:
		sym := x.Sym
		switch {
		case sym == nil:
			return fail("interp: unresolved name %s", x.Name)
		case sym.Kind == fortran.SymParam:
			v := c.value(sym.Value)
			return func(f *frame) Value { return convert(v(f), sym.Type) }
		case sym.IsArray() && len(x.Subs) == 0:
			return fail("interp: whole-array reference %s in expression", sym.Name)
		case sym.IsArray():
			at := c.element(x)
			switch {
			case !c.typed(sym):
				return func(f *frame) Value {
					a, off := at(f)
					return a.v[off]
				}
			case sym.Type == fortran.TypeInteger:
				return func(f *frame) Value {
					a, off := at(f)
					return IntVal(a.i[off])
				}
			}
			return func(f *frame) Value {
				a, off := at(f)
				return Value{Type: sym.Type, R: a.r[off]}
			}
		}
		slot, ok := c.cell(x.Sym)
		if !ok {
			return fail("interp: scalar %s has no storage", sym.Name)
		}
		return func(f *frame) Value { return f.cells[slot].v }
	case *fortran.FuncCall:
		if x.Callee != nil {
			call := c.function(x)
			return func(f *frame) Value { return call(f).v }
		}
		args := make([]func(*frame) Value, len(x.Args))
		for i, a := range x.Args {
			args[i] = c.value(a)
		}
		return func(f *frame) Value {
			// Intrinsics take one or two arguments, max and min a few more.
			var buf [4]Value
			vals := buf[:0]
			for _, a := range args {
				vals = append(vals, a(f))
			}
			v, err := intrinsic(x.Name, vals)
			if err != nil {
				panic(abort{err})
			}
			return v
		}
	case *fortran.Unary:
		a := c.value(x.X)
		return func(f *frame) Value { return unaryOp(x.Op, a(f)) }
	case *fortran.Binary:
		if x.Op == fortran.TokAnd || x.Op == fortran.TokOr {
			return c.value(e)
		}
		a, b := c.value(x.X), c.value(x.Y)
		return func(f *frame) Value { return binaryOp(x.Op, a(f), b(f)) }
	}
	return fail("interp: cannot evaluate %T", e)
}

// function compiles a reference to a user function: it runs the body
// in a fresh activation and returns the cell of the result variable.
// The callee's statements count towards the statement total; its
// simulated time does not enter the caller's.
func (c *compiler) function(x *fortran.FuncCall) func(*frame) *cell {
	site, name := c.callSite(x.Callee, x.Args), x.Callee.Name
	return func(f *frame) *cell {
		cu, nf := site.enter(f)
		defer func() { f.localStmts += nf.localStmts }()
		if cu.body.run(nf) == sigStop {
			raise("interp: STOP inside function %s", name)
		}
		if cu.result < 0 {
			raise("interp: function %s never set its result", name)
		}
		return nf.cells[cu.result]
	}
}
