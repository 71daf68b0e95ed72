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
// Operations on tagged values: what an operator does when its operands'
// types are known only at run time. The typed closures of expr.go are
// these same rules with the type tests taken at compile time; an
// arithmetic or relational operator (operator.go) and an intrinsic
// (intrinsic.go) are rows of tables both read.

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

// binary is the operation on tagged values of every binary operator but
// .and. and .or., which evaluate their right operand only when they
// need it: an arithmetic or relational one is its row's.
func binary(op fortran.TokKind) func(a, b Value) Value {
	if o := Arithmetic[op]; o != nil {
		return o.apply
	}
	if r := Relations[op]; r != nil {
		return func(a, b Value) Value { return LogVal(r.apply(a, b)) }
	}
	if op == fortran.TokConcat {
		return func(a, b Value) Value { return Value{Type: fortran.TypeCharacter, S: a.S + b.S} }
	}
	return func(Value, Value) Value { panic(abort{fmt.Errorf("interp: unknown operator %v", op)}) }
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
