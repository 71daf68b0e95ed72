package interp

import (
	"math"

	"parascope/internal/codegen/prelude"
	"parascope/internal/fortran"
)

// An Operator is one row of the arithmetic operator table: all that
// either backend knows of one of + - * / **. Proof.TypeOf types it with
// Result; the interpreter applies its integer operation when Result is
// INTEGER and its float operation otherwise — to run-time tags on
// tagged values, compiled over typed closures where TypeOf proves the
// types — and the code generator writes GoInt or GoFloat around its
// operands' text. As for an intrinsic, what stays per backend is how an
// operand is converted and how a run-time error is raised: intDiv
// aborts with the interpreter's text, generated code calls Idiv.
type Operator struct {
	ints   operation[int64]
	floats operation[float64]
	// Natural marks ** : the result of two INTEGER operands is INTEGER
	// only when the right one is not negative.
	Natural bool
	// GoInt and GoFloat format the two operands' Go text.
	GoInt, GoFloat string
}

// An operation is an arithmetic operator on one representation: of
// applies it to two numbers, over compiles it over two typed closures.
// Each is a type of its own, so that over builds a closure of its own
// with of in line: one closure calling every operation through a
// function value made an arithmetic-heavy program's typed closures a
// sixth slower. over has a pointer receiver and calls of on a zero
// value, so no method wrapper copies its closure (the copy would call
// of out of line) and the closure holds its two operands only.
type operation[T int64 | float64] interface {
	of(a, b T) T
	over(a, b func(*frame) T) func(*frame) T
}

type (
	intAdd   struct{}
	intSub   struct{}
	intMul   struct{}
	intQuo   struct{}
	intPow   struct{}
	floatAdd struct{}
	floatSub struct{}
	floatMul struct{}
	floatQuo struct{}
	floatPow struct{}
)

func (intAdd) of(a, b int64) int64       { return a + b }
func (intSub) of(a, b int64) int64       { return a - b }
func (intMul) of(a, b int64) int64       { return a * b }
func (intQuo) of(a, b int64) int64       { return intDiv(a, b) }
func (intPow) of(a, b int64) int64       { return prelude.Ipow(a, b) }
func (floatAdd) of(a, b float64) float64 { return a + b }
func (floatSub) of(a, b float64) float64 { return a - b }
func (floatMul) of(a, b float64) float64 { return a * b }
func (floatQuo) of(a, b float64) float64 { return a / b }
func (floatPow) of(a, b float64) float64 { return math.Pow(a, b) }

type (
	intClosure   = func(*frame) int64
	floatClosure = func(*frame) float64
)

func (*intAdd) over(a, b intClosure) intClosure {
	return func(f *frame) int64 { return intAdd{}.of(a(f), b(f)) }
}
func (*intSub) over(a, b intClosure) intClosure {
	return func(f *frame) int64 { return intSub{}.of(a(f), b(f)) }
}
func (*intMul) over(a, b intClosure) intClosure {
	return func(f *frame) int64 { return intMul{}.of(a(f), b(f)) }
}
func (*intQuo) over(a, b intClosure) intClosure {
	return func(f *frame) int64 { return intQuo{}.of(a(f), b(f)) }
}
func (*intPow) over(a, b intClosure) intClosure {
	return func(f *frame) int64 { return intPow{}.of(a(f), b(f)) }
}
func (*floatAdd) over(a, b floatClosure) floatClosure {
	return func(f *frame) float64 { return floatAdd{}.of(a(f), b(f)) }
}
func (*floatSub) over(a, b floatClosure) floatClosure {
	return func(f *frame) float64 { return floatSub{}.of(a(f), b(f)) }
}
func (*floatMul) over(a, b floatClosure) floatClosure {
	return func(f *frame) float64 { return floatMul{}.of(a(f), b(f)) }
}
func (*floatQuo) over(a, b floatClosure) floatClosure {
	return func(f *frame) float64 { return floatQuo{}.of(a(f), b(f)) }
}
func (*floatPow) over(a, b floatClosure) floatClosure {
	return func(f *frame) float64 { return floatPow{}.of(a(f), b(f)) }
}

// A Relation is one row of the relational operator table: the
// orderings of two operands it holds of, and the Go forms a generated
// program writes for it — GoInt on two INTEGER or two CHARACTER
// operands, GoFloat on any other two numeric ones. A NaN is neither
// below nor above anything, so it orders as equal: of the float
// comparisons only < and > are Go's.
type Relation struct {
	holds          ordering
	GoInt, GoFloat string
}

// An ordering is a set of the three ways two operands can order.
type ordering uint8

const (
	below ordering = 1 << iota
	equal
	above
)

// order is how a orders against b.
func order[T int64 | float64 | string](a, b T) ordering {
	switch {
	case a < b:
		return below
	case a > b:
		return above
	}
	return equal
}

// Arithmetic and Relations are the operator tables, keyed by the
// operator's token.
var (
	Arithmetic = map[fortran.TokKind]*Operator{
		fortran.TokPlus:  {ints: &intAdd{}, floats: &floatAdd{}, GoInt: "(%s + %s)", GoFloat: "(%s + %s)"},
		fortran.TokMinus: {ints: &intSub{}, floats: &floatSub{}, GoInt: "(%s - %s)", GoFloat: "(%s - %s)"},
		fortran.TokStar:  {ints: &intMul{}, floats: &floatMul{}, GoInt: "(%s * %s)", GoFloat: "(%s * %s)"},
		fortran.TokSlash: {ints: &intQuo{}, floats: &floatQuo{}, GoInt: "Idiv(%s, %s)", GoFloat: "(%s / %s)"},
		fortran.TokPower: {ints: &intPow{}, floats: &floatPow{}, Natural: true, GoInt: "Ipow(%s, %s)", GoFloat: "math.Pow(%s, %s)"},
	}
	Relations = map[fortran.TokKind]*Relation{
		fortran.TokLt:   {below, "(%s < %s)", "(%s < %s)"},
		fortran.TokLe:   {below | equal, "(%s <= %s)", "(!(%s > %s))"},
		fortran.TokGt:   {above, "(%s > %s)", "(%s > %s)"},
		fortran.TokGe:   {above | equal, "(%s >= %s)", "(!(%s < %s))"},
		fortran.TokEqEq: {equal, "(%s == %s)", "Feq(%s, %s)"},
		fortran.TokNe:   {below | above, "(%s != %s)", "Fne(%s, %s)"},
	}
)

// Result is the type of the operator's result on operands of types a
// and b, where negative says whether the right operand is below zero.
// It is the tree walker's typing: any operand that is not INTEGER or
// DOUBLE PRECISION counts as REAL.
func (o *Operator) Result(a, b fortran.Type, negative bool) fortran.Type {
	switch {
	case a == fortran.TypeInteger && b == fortran.TypeInteger && !(o.Natural && negative):
		return fortran.TypeInteger
	case a == fortran.TypeDouble || b == fortran.TypeDouble:
		return fortran.TypeDouble
	}
	return fortran.TypeReal
}

// apply is the operator on tagged values: the result type from their
// tags, the operation on their conversions.
func (o *Operator) apply(a, b Value) Value {
	t := o.Result(a.Type, b.Type, b.Type == fortran.TypeInteger && b.I < 0)
	if t == fortran.TypeInteger {
		return IntVal(o.ints.of(a.I, b.I))
	}
	return Value{Type: t, R: o.floats.of(a.Float(), b.Float())}
}

// apply is the relation on tagged values: on integers when both are
// INTEGER, on strings when either is CHARACTER, on floats otherwise.
func (r *Relation) apply(a, b Value) bool {
	switch {
	case a.Type == fortran.TypeInteger && b.Type == fortran.TypeInteger:
		return order(a.I, b.I)&r.holds != 0
	case a.Type == fortran.TypeCharacter || b.Type == fortran.TypeCharacter:
		return order(a.S, b.S)&r.holds != 0
	}
	return order(a.Float(), b.Float())&r.holds != 0
}
