package interp

import (
	"fmt"
	"math"

	"parascope/internal/fortran"
)

func (f *frame) eval(e fortran.Expr) (Value, error) {
	switch x := e.(type) {
	case *fortran.IntLit:
		return IntVal(x.Val), nil
	case *fortran.RealLit:
		if x.Double {
			return DoubleVal(x.Val), nil
		}
		return RealVal(x.Val), nil
	case *fortran.LogLit:
		return LogVal(x.Val), nil
	case *fortran.StrLit:
		return Value{Type: fortran.TypeCharacter, S: x.Val}, nil
	case *fortran.VarRef:
		return f.evalRef(x)
	case *fortran.FuncCall:
		return f.evalCall(x)
	case *fortran.Unary:
		v, err := f.eval(x.X)
		if err != nil {
			return Value{}, err
		}
		switch x.Op {
		case fortran.TokMinus:
			if v.Type == fortran.TypeInteger {
				return IntVal(-v.I), nil
			}
			return Value{Type: v.Type, R: -v.R}, nil
		case fortran.TokNot:
			return LogVal(!v.B), nil
		}
		return v, nil
	case *fortran.Binary:
		return f.evalBinary(x)
	}
	return Value{}, fmt.Errorf("interp: cannot evaluate %T", e)
}

func (f *frame) evalRef(x *fortran.VarRef) (Value, error) {
	sym := x.Sym
	if sym == nil {
		return Value{}, fmt.Errorf("interp: unresolved name %s", x.Name)
	}
	if sym.Kind == fortran.SymParam {
		v, err := f.eval(sym.Value)
		if err != nil {
			return Value{}, err
		}
		return convert(v, sym.Type), nil
	}
	if sym.IsArray() {
		if len(x.Subs) == 0 {
			return Value{}, fmt.Errorf("interp: whole-array reference %s in expression", sym.Name)
		}
		a := f.arrays[sym]
		if a == nil {
			return Value{}, fmt.Errorf("interp: array %s has no storage", sym.Name)
		}
		off, err := f.offset(a, x.Subs)
		if err != nil {
			return Value{}, err
		}
		return a.data[off], nil
	}
	c := f.scalars[sym]
	if c == nil {
		return Value{}, fmt.Errorf("interp: scalar %s has no storage", sym.Name)
	}
	return c.v, nil
}

// maxRank is Fortran 77's cap on the rank of an array, and so on the
// subscripts of a reference: they fit a buffer on the stack.
const maxRank = 7

// offset evaluates the subscripts of a reference to a and returns the
// offset of the element they name.
func (f *frame) offset(a *array, subs []fortran.Expr) (int64, error) {
	var buf [maxRank]int64
	vals := buf[:0]
	if len(subs) > maxRank {
		vals = make([]int64, 0, len(subs))
	}
	for _, e := range subs {
		sv, err := f.eval(e)
		if err != nil {
			return 0, err
		}
		vals = append(vals, sv.Int())
	}
	return a.index(vals)
}

func (f *frame) evalBinary(x *fortran.Binary) (Value, error) {
	a, err := f.eval(x.X)
	if err != nil {
		return Value{}, err
	}
	// Short-circuit logicals (Fortran does not require it, but it is
	// compatible and faster).
	switch x.Op {
	case fortran.TokAnd:
		if !a.B {
			return LogVal(false), nil
		}
		b, err := f.eval(x.Y)
		return LogVal(a.B && b.B), err
	case fortran.TokOr:
		if a.B {
			return LogVal(true), nil
		}
		b, err := f.eval(x.Y)
		return LogVal(a.B || b.B), err
	}
	b, err := f.eval(x.Y)
	if err != nil {
		return Value{}, err
	}
	bothInt := a.Type == fortran.TypeInteger && b.Type == fortran.TypeInteger
	switch x.Op {
	case fortran.TokPlus:
		if bothInt {
			return IntVal(a.I + b.I), nil
		}
		return numeric(a, b, a.Float()+b.Float()), nil
	case fortran.TokMinus:
		if bothInt {
			return IntVal(a.I - b.I), nil
		}
		return numeric(a, b, a.Float()-b.Float()), nil
	case fortran.TokStar:
		if bothInt {
			return IntVal(a.I * b.I), nil
		}
		return numeric(a, b, a.Float()*b.Float()), nil
	case fortran.TokSlash:
		if bothInt {
			if b.I == 0 {
				return Value{}, fmt.Errorf("interp: integer division by zero")
			}
			return IntVal(a.I / b.I), nil
		}
		return numeric(a, b, a.Float()/b.Float()), nil
	case fortran.TokPower:
		if bothInt && b.I >= 0 {
			r := int64(1)
			for k := int64(0); k < b.I; k++ {
				r *= a.I
			}
			return IntVal(r), nil
		}
		return numeric(a, b, math.Pow(a.Float(), b.Float())), nil
	case fortran.TokLt:
		return compare(a, b, func(c int) bool { return c < 0 }), nil
	case fortran.TokLe:
		return compare(a, b, func(c int) bool { return c <= 0 }), nil
	case fortran.TokGt:
		return compare(a, b, func(c int) bool { return c > 0 }), nil
	case fortran.TokGe:
		return compare(a, b, func(c int) bool { return c >= 0 }), nil
	case fortran.TokEqEq:
		return compare(a, b, func(c int) bool { return c == 0 }), nil
	case fortran.TokNe:
		return compare(a, b, func(c int) bool { return c != 0 }), nil
	case fortran.TokConcat:
		return Value{Type: fortran.TypeCharacter, S: a.S + b.S}, nil
	}
	return Value{}, fmt.Errorf("interp: unknown operator %v", x.Op)
}

func numeric(a, b Value, r float64) Value {
	t := fortran.TypeReal
	if a.Type == fortran.TypeDouble || b.Type == fortran.TypeDouble {
		t = fortran.TypeDouble
	}
	return Value{Type: t, R: r}
}

func compare(a, b Value, ok func(int) bool) Value {
	var c int
	if a.Type == fortran.TypeInteger && b.Type == fortran.TypeInteger {
		switch {
		case a.I < b.I:
			c = -1
		case a.I > b.I:
			c = 1
		}
	} else if a.Type == fortran.TypeCharacter || b.Type == fortran.TypeCharacter {
		switch {
		case a.S < b.S:
			c = -1
		case a.S > b.S:
			c = 1
		}
	} else {
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			c = -1
		case af > bf:
			c = 1
		}
	}
	return LogVal(ok(c))
}

func (f *frame) evalCall(x *fortran.FuncCall) (Value, error) {
	if x.Callee != nil {
		return f.userFunc(x)
	}
	// Intrinsics take one or two arguments, max and min a few more.
	var buf [4]Value
	args := buf[:0]
	if len(x.Args) > len(buf) {
		args = make([]Value, 0, len(x.Args))
	}
	for _, a := range x.Args {
		v, err := f.eval(a)
		if err != nil {
			return Value{}, err
		}
		args = append(args, v)
	}
	return intrinsic(x.Name, args)
}

func (f *frame) userFunc(x *fortran.FuncCall) (Value, error) {
	callee := x.Callee
	cells, arrays, err := f.bindArgs(callee, x.Args)
	if err != nil {
		return Value{}, err
	}
	nf, err := f.m.newFrame(callee, cells, arrays)
	if err != nil {
		return Value{}, err
	}
	sig, err := nf.execBody(callee.Body)
	f.localStmts += nf.localStmts
	if err != nil {
		return Value{}, err
	}
	if sig == sigStop {
		return Value{}, fmt.Errorf("interp: STOP inside function %s", callee.Name)
	}
	ret := callee.Lookup(callee.Name)
	if ret == nil || nf.scalars[ret] == nil {
		return Value{}, fmt.Errorf("interp: function %s never set its result", callee.Name)
	}
	return nf.scalars[ret].v, nil
}

func intrinsic(name string, args []Value) (Value, error) {
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("interp: %s expects %d args, got %d", name, n, len(args))
		}
		return nil
	}
	one := func(fn func(float64) float64) (Value, error) {
		if err := need(1); err != nil {
			return Value{}, err
		}
		t := args[0].Type
		if t == fortran.TypeInteger {
			t = fortran.TypeReal
		}
		return Value{Type: t, R: fn(args[0].Float())}, nil
	}
	switch name {
	case "abs":
		if err := need(1); err != nil {
			return Value{}, err
		}
		if args[0].Type == fortran.TypeInteger {
			v := args[0].I
			if v < 0 {
				v = -v
			}
			return IntVal(v), nil
		}
		return Value{Type: args[0].Type, R: math.Abs(args[0].R)}, nil
	case "iabs":
		if err := need(1); err != nil {
			return Value{}, err
		}
		v := args[0].Int()
		if v < 0 {
			v = -v
		}
		return IntVal(v), nil
	case "sqrt":
		return one(math.Sqrt)
	case "exp":
		return one(math.Exp)
	case "log":
		return one(math.Log)
	case "log10":
		return one(math.Log10)
	case "sin":
		return one(math.Sin)
	case "cos":
		return one(math.Cos)
	case "tan":
		return one(math.Tan)
	case "atan":
		return one(math.Atan)
	case "asin":
		return one(math.Asin)
	case "acos":
		return one(math.Acos)
	case "sinh":
		return one(math.Sinh)
	case "cosh":
		return one(math.Cosh)
	case "tanh":
		return one(math.Tanh)
	case "atan2":
		if err := need(2); err != nil {
			return Value{}, err
		}
		return RealVal(math.Atan2(args[0].Float(), args[1].Float())), nil
	case "max", "amax1", "max0":
		return minMax(name, args, true)
	case "min", "amin1", "min0":
		return minMax(name, args, false)
	case "mod", "amod":
		if err := need(2); err != nil {
			return Value{}, err
		}
		if args[0].Type == fortran.TypeInteger && args[1].Type == fortran.TypeInteger {
			if args[1].I == 0 {
				return Value{}, fmt.Errorf("interp: mod by zero")
			}
			return IntVal(args[0].I % args[1].I), nil
		}
		return RealVal(math.Mod(args[0].Float(), args[1].Float())), nil
	case "sign":
		if err := need(2); err != nil {
			return Value{}, err
		}
		mag := math.Abs(args[0].Float())
		if args[1].Float() < 0 {
			mag = -mag
		}
		if args[0].Type == fortran.TypeInteger {
			return IntVal(int64(mag)), nil
		}
		return Value{Type: args[0].Type, R: mag}, nil
	case "dim":
		if err := need(2); err != nil {
			return Value{}, err
		}
		d := args[0].Float() - args[1].Float()
		if d < 0 {
			d = 0
		}
		if args[0].Type == fortran.TypeInteger {
			return IntVal(int64(d)), nil
		}
		return Value{Type: args[0].Type, R: d}, nil
	case "int", "ifix", "nint":
		if err := need(1); err != nil {
			return Value{}, err
		}
		v := args[0].Float()
		if name == "nint" {
			return IntVal(int64(math.Round(v))), nil
		}
		return IntVal(int64(v)), nil
	case "real", "float", "sngl":
		if err := need(1); err != nil {
			return Value{}, err
		}
		return RealVal(args[0].Float()), nil
	case "dble":
		if err := need(1); err != nil {
			return Value{}, err
		}
		return DoubleVal(args[0].Float()), nil
	}
	return Value{}, fmt.Errorf("interp: unknown intrinsic %s", name)
}

func minMax(name string, args []Value, wantMax bool) (Value, error) {
	if len(args) < 2 {
		return Value{}, fmt.Errorf("interp: %s needs at least 2 args", name)
	}
	allInt := true
	for _, a := range args {
		if a.Type != fortran.TypeInteger {
			allInt = false
		}
	}
	if name == "max0" || name == "min0" {
		allInt = true
	}
	if name == "amax1" || name == "amin1" {
		allInt = false
	}
	if allInt {
		best := args[0].Int()
		for _, a := range args[1:] {
			v := a.Int()
			if (wantMax && v > best) || (!wantMax && v < best) {
				best = v
			}
		}
		return IntVal(best), nil
	}
	best := args[0].Float()
	for _, a := range args[1:] {
		v := a.Float()
		if (wantMax && v > best) || (!wantMax && v < best) {
			best = v
		}
	}
	return RealVal(best), nil
}
