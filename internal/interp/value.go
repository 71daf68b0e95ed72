// Package interp executes parsed Fortran programs. It provides the
// execution substrate the original ParaScope work ran on shared-
// memory multiprocessors: sequential semantics for validation, and a
// goroutine-backed parallel executor for loops the editor marked
// DOALL, with private variables and reductions. The interpreter is
// used both to check that transformations preserve program meaning
// and to measure parallel speedups for the evaluation harness.
//
// A run compiles each unit it activates, once, to closures over
// slot-indexed frames (compile.go, expr.go) and executes those; what a
// value's type decides is decided at compile time where the
// declarations prove the type (prove.go) and by the operations on
// tagged values in this file where they do not.
package interp

import (
	"fmt"
	"math"

	"parascope/internal/codegen/prelude"
	"parascope/internal/codegen/runfmt"
	"parascope/internal/fortran"
)

// Value is one scalar runtime value.
type Value struct {
	Type fortran.Type
	I    int64
	R    float64
	B    bool
	S    string
}

// IntVal makes an integer value.
func IntVal(v int64) Value { return Value{Type: fortran.TypeInteger, I: v} }

// RealVal makes a real value.
func RealVal(v float64) Value { return Value{Type: fortran.TypeReal, R: v} }

// DoubleVal makes a double-precision value.
func DoubleVal(v float64) Value { return Value{Type: fortran.TypeDouble, R: v} }

// LogVal makes a logical value.
func LogVal(v bool) Value { return Value{Type: fortran.TypeLogical, B: v} }

// Float returns the value as float64.
func (v Value) Float() float64 {
	if v.Type == fortran.TypeInteger {
		return float64(v.I)
	}
	return v.R
}

// Int returns the value as int64 (reals truncate, as in Fortran
// assignment to INTEGER).
func (v Value) Int() int64 {
	if v.Type == fortran.TypeInteger {
		return v.I
	}
	return int64(v.R)
}

// Bool returns the logical value.
func (v Value) Bool() bool { return v.B }

// String formats the value for list-directed output. The formatting
// itself lives in runfmt, shared with the compiled backend so both
// produce byte-identical records.
func (v Value) String() string {
	switch v.Type {
	case fortran.TypeInteger:
		return runfmt.Int(v.I)
	case fortran.TypeLogical:
		return runfmt.Logical(v.B)
	case fortran.TypeCharacter:
		return v.S
	default:
		return runfmt.Real(v.R)
	}
}

// convert coerces a value to the target type, following Fortran
// assignment conversion rules.
func convert(v Value, t fortran.Type) Value {
	if v.Type == t || t == fortran.TypeUnknown {
		return v
	}
	switch t {
	case fortran.TypeInteger:
		return IntVal(v.Int())
	case fortran.TypeReal:
		return Value{Type: fortran.TypeReal, R: v.Float()}
	case fortran.TypeDouble:
		return Value{Type: fortran.TypeDouble, R: v.Float()}
	case fortran.TypeLogical:
		return LogVal(v.B)
	case fortran.TypeCharacter:
		return Value{Type: fortran.TypeCharacter, S: v.S}
	}
	return v
}

func zeroOf(t fortran.Type) Value {
	switch t {
	case fortran.TypeInteger:
		return IntVal(0)
	case fortran.TypeLogical:
		return LogVal(false)
	case fortran.TypeCharacter:
		return Value{Type: fortran.TypeCharacter}
	case fortran.TypeDouble:
		return DoubleVal(0)
	default:
		return RealVal(0)
	}
}

// cell is one storage location (scalar). Sharing cells implements
// Fortran's by-reference argument passing. Where the declarations
// prove a scalar's type, compiled code reads and writes v.I or v.R and
// leaves the tag alone.
type cell struct {
	v Value
}

// array is the storage of one array variable. Exactly one of i, r and
// v holds the elements: i or r when every symbol that can name the
// storage is proven INTEGER, or REAL or DOUBLE PRECISION, v — tagged
// values — otherwise.
type array struct {
	sym *fortran.Symbol
	lo  []int64 // per-dim lower bound
	ext []int64 // per-dim extent
	i   []int64
	r   []float64
	v   []Value
}

// newArray allocates zeroed storage of the given shape for sym; typed
// says whether sym's type is proven.
func newArray(sym *fortran.Symbol, typed bool, lo, ext []int64) *array {
	a := &array{sym: sym, lo: lo, ext: ext}
	n := int64(1)
	for _, e := range ext {
		n *= e
	}
	switch {
	case typed && sym.Type == fortran.TypeInteger:
		a.i = make([]int64, n)
	case typed:
		a.r = make([]float64, n)
	default:
		a.v = make([]Value, n)
		zero := zeroOf(sym.Type)
		for k := range a.v {
			a.v[k] = zero
		}
	}
	return a
}

func (a *array) size() int64 { return int64(len(a.i) + len(a.r) + len(a.v)) }

// tail is the storage from offset off on, as the rank-1 array a dummy
// argument sees it when an element is passed where an array is
// expected (sequence association).
func (a *array) tail(formal *fortran.Symbol, off int64) *array {
	t := &array{sym: formal, lo: []int64{1}, ext: []int64{a.size() - off}}
	switch {
	case a.i != nil:
		t.i = a.i[off:]
	case a.r != nil:
		t.r = a.r[off:]
	default:
		t.v = a.v[off:]
	}
	return t
}

// index computes the column-major linear offset of the subscripts.
func (a *array) index(subs []int64) (int64, error) {
	if len(subs) != len(a.ext) {
		// Fortran allows linearized access to multi-d arrays through
		// a single subscript in some legacy code; support 1-sub form.
		if len(subs) == 1 {
			off := subs[0] - a.lo[0]
			if off < 0 || off >= a.size() {
				return 0, fmt.Errorf("subscript %d out of bounds for %s", subs[0], a.sym.Name)
			}
			return off, nil
		}
		return 0, fmt.Errorf("%s: %d subscripts for %d dims", a.sym.Name, len(subs), len(a.ext))
	}
	var off, stride int64 = 0, 1
	for d := 0; d < len(subs); d++ {
		i := subs[d] - a.lo[d]
		if i < 0 || i >= a.ext[d] {
			return 0, fmt.Errorf("%s: subscript %d (dim %d) out of bounds [%d,%d]",
				a.sym.Name, subs[d], d+1, a.lo[d], a.lo[d]+a.ext[d]-1)
		}
		off += i * stride
		stride *= a.ext[d]
	}
	return off, nil
}

// ---------------------------------------------------------------------------
// Operations on tagged values: what an operator or intrinsic does when
// its operands' types are known only at run time. The typed closures
// of expr.go are these same rules with the type tests taken at compile
// time.

func unaryOp(op fortran.TokKind, v Value) Value {
	switch op {
	case fortran.TokMinus:
		if v.Type == fortran.TypeInteger {
			return IntVal(-v.I)
		}
		return Value{Type: v.Type, R: -v.R}
	case fortran.TokNot:
		return LogVal(!v.B)
	}
	return v
}

// binaryOp applies every binary operator but .and. and .or., which
// evaluate their right operand only when they need it.
func binaryOp(op fortran.TokKind, a, b Value) Value {
	bothInt := a.Type == fortran.TypeInteger && b.Type == fortran.TypeInteger
	switch op {
	case fortran.TokPlus:
		if bothInt {
			return IntVal(a.I + b.I)
		}
		return numeric(a, b, a.Float()+b.Float())
	case fortran.TokMinus:
		if bothInt {
			return IntVal(a.I - b.I)
		}
		return numeric(a, b, a.Float()-b.Float())
	case fortran.TokStar:
		if bothInt {
			return IntVal(a.I * b.I)
		}
		return numeric(a, b, a.Float()*b.Float())
	case fortran.TokSlash:
		if bothInt {
			return IntVal(intDiv(a.I, b.I))
		}
		return numeric(a, b, a.Float()/b.Float())
	case fortran.TokPower:
		if bothInt && b.I >= 0 {
			return IntVal(prelude.Ipow(a.I, b.I))
		}
		return numeric(a, b, math.Pow(a.Float(), b.Float()))
	case fortran.TokLt, fortran.TokLe, fortran.TokGt, fortran.TokGe, fortran.TokEqEq, fortran.TokNe:
		return LogVal(compare(op, a, b))
	case fortran.TokConcat:
		return Value{Type: fortran.TypeCharacter, S: a.S + b.S}
	}
	panic(abort{fmt.Errorf("interp: unknown operator %v", op)})
}

func intDiv(a, b int64) int64 {
	if b == 0 {
		panic(abort{fmt.Errorf("interp: integer division by zero")})
	}
	return a / b
}

func intMod(a, b int64) int64 {
	if b == 0 {
		panic(abort{fmt.Errorf("interp: mod by zero")})
	}
	return a % b
}

func numeric(a, b Value, r float64) Value {
	t := fortran.TypeReal
	if a.Type == fortran.TypeDouble || b.Type == fortran.TypeDouble {
		t = fortran.TypeDouble
	}
	return Value{Type: t, R: r}
}

// ordered reports whether the relational operator op holds of two
// operands that compare as c (negative, zero, positive).
func ordered(op fortran.TokKind, c int) bool {
	switch op {
	case fortran.TokLt:
		return c < 0
	case fortran.TokLe:
		return c <= 0
	case fortran.TokGt:
		return c > 0
	case fortran.TokGe:
		return c >= 0
	case fortran.TokEqEq:
		return c == 0
	}
	return c != 0
}

func compare(op fortran.TokKind, a, b Value) bool {
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
		c = compareFloats(a.Float(), b.Float())
	}
	return ordered(op, c)
}

// compareFloats orders two floats the way compare does: a NaN is
// neither below nor above anything, so it compares as equal.
func compareFloats(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// oneArg are the intrinsics of one argument whose result has the
// argument's type, REAL for an INTEGER argument.
var oneArg = map[string]func(float64) float64{
	"sqrt": math.Sqrt, "exp": math.Exp, "log": math.Log, "log10": math.Log10,
	"sin": math.Sin, "cos": math.Cos, "tan": math.Tan, "atan": math.Atan,
	"asin": math.Asin, "acos": math.Acos, "sinh": math.Sinh, "cosh": math.Cosh, "tanh": math.Tanh,
}

func intrinsic(name string, args []Value) (Value, error) {
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("interp: %s expects %d args, got %d", name, n, len(args))
		}
		return nil
	}
	if fn, ok := oneArg[name]; ok {
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
