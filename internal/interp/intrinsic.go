package interp

import (
	"fmt"
	"math"

	"parascope/internal/codegen/prelude"
	"parascope/internal/fortran"
)

// An Intrinsic is one row of the intrinsic table: all that either
// backend knows of one intrinsic function. The proof applies Result to
// static types (Proof.TypeOf) and the interpreter to run-time tags;
// where the types are proven the interpreter compiles Int or Float over
// typed closures, and the code generator writes their Go names. What
// stays per backend is how an argument is converted and how a run-time
// error is raised.
type Intrinsic struct {
	// Args is the argument count, or Variadic.
	Args int
	// Result is the type of the result.
	Result Rule
	// Int computes an INTEGER result from the arguments as Value.Int
	// converts them. A row without one truncates Float's result.
	Int Op[int64]
	// Float computes any other result from the arguments as Value.Float
	// converts them. A row without one returns its argument.
	Float Op[float64]
}

// Variadic is the Args of a row that takes two or more arguments and
// folds its operation over them from the left.
const Variadic = -1

// An Op is a row's operation on one representation: One for a row of
// one argument, Two for the others. Go names the function a generated
// program calls for it, with every argument in one call.
type Op[T int64 | float64] struct {
	One func(T) T
	Two func(a, b T) T
	Go  string
}

// Empty reports whether the row has no operation on this
// representation.
func (o Op[T]) Empty() bool { return o.One == nil && o.Two == nil }

// A Rule is the type of a row's result, from the type of its first
// argument and whether every argument is INTEGER. It is the tree
// walker's typing, not Fortran's: mod of an INTEGER and a REAL is REAL,
// max of DOUBLE PRECISION values is REAL.
type Rule func(first fortran.Type, allInt bool) fortran.Type

func same(first fortran.Type, _ bool) fortran.Type { return first }

// floating is same, but REAL for an INTEGER argument.
func floating(first fortran.Type, _ bool) fortran.Type {
	if first == fortran.TypeInteger {
		return fortran.TypeReal
	}
	return first
}

func intIfAll(_ fortran.Type, allInt bool) fortran.Type {
	if allInt {
		return fortran.TypeInteger
	}
	return fortran.TypeReal
}

func always(t fortran.Type) Rule { return func(fortran.Type, bool) fortran.Type { return t } }

var (
	integer = always(fortran.TypeInteger)
	single  = always(fortran.TypeReal)
	double  = always(fortran.TypeDouble)
)

type (
	iop = Op[int64]
	fop = Op[float64]
)

// max and min fold through the prelude two arguments at a time; a
// generated program calls it once with all of them. Either way the
// first of equal values stays and a NaN never wins.
var (
	iabs = iop{One: prelude.Iabs, Go: "Iabs"}
	imax = iop{Two: func(a, b int64) int64 { return prelude.Imax(a, b) }, Go: "Imax"}
	imin = iop{Two: func(a, b int64) int64 { return prelude.Imin(a, b) }, Go: "Imin"}
	fmax = fop{Two: func(a, b float64) float64 { return prelude.Fmax(a, b) }, Go: "Fmax"}
	fmin = fop{Two: func(a, b float64) float64 { return prelude.Fmin(a, b) }, Go: "Fmin"}
	imod = iop{Two: intMod, Go: "Imod"}
	fmod = fop{Two: math.Mod, Go: "math.Mod"}
)

// Intrinsics is the intrinsic table. Its names are fortran.Intrinsics',
// the front end's list.
var Intrinsics = map[string]*Intrinsic{
	"abs":   {1, same, iabs, fop{One: math.Abs, Go: "math.Abs"}},
	"iabs":  {1, integer, iabs, fop{}},
	"sqrt":  {1, floating, iop{}, fop{One: math.Sqrt, Go: "math.Sqrt"}},
	"exp":   {1, floating, iop{}, fop{One: math.Exp, Go: "math.Exp"}},
	"log":   {1, floating, iop{}, fop{One: math.Log, Go: "math.Log"}},
	"log10": {1, floating, iop{}, fop{One: math.Log10, Go: "math.Log10"}},
	"sin":   {1, floating, iop{}, fop{One: math.Sin, Go: "math.Sin"}},
	"cos":   {1, floating, iop{}, fop{One: math.Cos, Go: "math.Cos"}},
	"tan":   {1, floating, iop{}, fop{One: math.Tan, Go: "math.Tan"}},
	"atan":  {1, floating, iop{}, fop{One: math.Atan, Go: "math.Atan"}},
	"asin":  {1, floating, iop{}, fop{One: math.Asin, Go: "math.Asin"}},
	"acos":  {1, floating, iop{}, fop{One: math.Acos, Go: "math.Acos"}},
	"sinh":  {1, floating, iop{}, fop{One: math.Sinh, Go: "math.Sinh"}},
	"cosh":  {1, floating, iop{}, fop{One: math.Cosh, Go: "math.Cosh"}},
	"tanh":  {1, floating, iop{}, fop{One: math.Tanh, Go: "math.Tanh"}},
	"atan2": {2, single, iop{}, fop{Two: math.Atan2, Go: "math.Atan2"}},
	"max":   {Variadic, intIfAll, imax, fmax},
	"max0":  {Variadic, integer, imax, fmax},
	"amax1": {Variadic, single, imax, fmax},
	"min":   {Variadic, intIfAll, imin, fmin},
	"min0":  {Variadic, integer, imin, fmin},
	"amin1": {Variadic, single, imin, fmin},
	"mod":   {2, intIfAll, imod, fmod},
	"amod":  {2, intIfAll, imod, fmod},
	"sign":  {2, same, iop{}, fop{Two: prelude.Fsign, Go: "Fsign"}},
	"dim":   {2, same, iop{}, fop{Two: prelude.Fdim, Go: "Fdim"}},
	"int":   {1, integer, iop{}, fop{}},
	"ifix":  {1, integer, iop{}, fop{}},
	"nint":  {1, integer, iop{}, fop{One: math.Round, Go: "math.Round"}},
	"real":  {1, single, iop{}, fop{}},
	"float": {1, single, iop{}, fop{}},
	"sngl":  {1, single, iop{}, fop{}},
	"dble":  {1, double, iop{}, fop{}},
}

// Arity is what is wrong with a call of the intrinsic name with n
// arguments, nil when nothing is.
func (r *Intrinsic) Arity(name string, n int) error {
	switch {
	case r.Args == Variadic && n < 2:
		return fmt.Errorf("%s needs at least 2 args", name)
	case r.Args != Variadic && n != r.Args:
		return fmt.Errorf("%s expects %d args, got %d", name, r.Args, n)
	}
	return nil
}

// call applies the row to tagged values of the right number: the
// result type from their tags, the operation on their conversions.
func (r *Intrinsic) call(args []Value) Value {
	allInt := true
	for _, a := range args {
		allInt = allInt && a.Type == fortran.TypeInteger
	}
	switch t := r.Result(args[0].Type, allInt); {
	case t != fortran.TypeInteger:
		return Value{Type: t, R: reduce(r.Float, args, Value.Float)}
	case r.Int.Empty():
		return IntVal(int64(reduce(r.Float, args, Value.Float)))
	}
	return IntVal(reduce(r.Int, args, Value.Int))
}

func reduce[T int64 | float64](op Op[T], args []Value, conv func(Value) T) T {
	v := conv(args[0])
	if op.One != nil {
		return op.One(v)
	}
	for _, a := range args[1:] {
		v = op.Two(v, conv(a))
	}
	return v
}

// compileCall compiles op over the arguments of a call whose arity
// Arity has accepted, each compiled by compile.
func compileCall[T int64 | float64](op Op[T], args []fortran.Expr, compile func(fortran.Expr) func(*frame) T) func(*frame) T {
	a, two := compile(args[0]), op.Two
	switch {
	case op.One != nil:
		one := op.One
		return func(f *frame) T { return one(a(f)) }
	case two == nil:
		return a
	case len(args) == 2:
		b := compile(args[1])
		return func(f *frame) T { return two(a(f), b(f)) }
	}
	rest := compileArgs(args[1:], compile)
	return func(f *frame) T {
		v := a(f)
		for _, b := range rest {
			v = two(v, b(f))
		}
		return v
	}
}
