package expr

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"parascope/internal/fortran"
)

// Range is a (possibly half-open) integer interval. The infinity
// flags indicate an unbounded side; Lo/Hi are only meaningful when the
// corresponding flag is false.
type Range struct {
	Lo, Hi       int64
	LoInf, HiInf bool
}

// FullRange is (-inf, +inf).
var FullRange = Range{LoInf: true, HiInf: true}

// Exact returns the degenerate range [v, v].
func Exact(v int64) Range { return Range{Lo: v, Hi: v} }

// Bounded returns [lo, hi].
func Bounded(lo, hi int64) Range { return Range{Lo: lo, Hi: hi} }

// AtLeast returns [lo, +inf).
func AtLeast(lo int64) Range { return Range{Lo: lo, HiInf: true} }

// AtMost returns (-inf, hi].
func AtMost(hi int64) Range { return Range{Hi: hi, LoInf: true} }

// IsExact reports whether the range pins a single value.
func (r Range) IsExact() bool { return !r.LoInf && !r.HiInf && r.Lo == r.Hi }

// Empty reports whether the range contains no integers.
func (r Range) Empty() bool { return !r.LoInf && !r.HiInf && r.Lo > r.Hi }

// Contains reports whether v lies in the range.
func (r Range) Contains(v int64) bool {
	if !r.LoInf && v < r.Lo {
		return false
	}
	if !r.HiInf && v > r.Hi {
		return false
	}
	return true
}

// Add returns the interval sum.
func (r Range) Add(s Range) Range {
	out := Range{LoInf: r.LoInf || s.LoInf, HiInf: r.HiInf || s.HiInf}
	if !out.LoInf {
		out.Lo = satAdd(r.Lo, s.Lo)
	}
	if !out.HiInf {
		out.Hi = satAdd(r.Hi, s.Hi)
	}
	return out
}

// Neg returns the interval negation.
func (r Range) Neg() Range {
	return Range{
		Lo: -r.Hi, Hi: -r.Lo,
		LoInf: r.HiInf, HiInf: r.LoInf,
	}
}

// Sub returns r - s.
func (r Range) Sub(s Range) Range { return r.Add(s.Neg()) }

// Scale returns c*r.
func (r Range) Scale(c int64) Range {
	switch {
	case c == 0:
		return Exact(0)
	case c > 0:
		out := Range{LoInf: r.LoInf, HiInf: r.HiInf}
		if !out.LoInf {
			out.Lo = satMul(r.Lo, c)
		}
		if !out.HiInf {
			out.Hi = satMul(r.Hi, c)
		}
		return out
	default:
		return r.Neg().Scale(-c)
	}
}

// Intersect returns the intersection of r and s.
func (r Range) Intersect(s Range) Range {
	out := Range{LoInf: r.LoInf && s.LoInf, HiInf: r.HiInf && s.HiInf}
	switch {
	case r.LoInf:
		out.Lo = s.Lo
	case s.LoInf:
		out.Lo = r.Lo
	default:
		out.Lo = max64(r.Lo, s.Lo)
	}
	switch {
	case r.HiInf:
		out.Hi = s.Hi
	case s.HiInf:
		out.Hi = r.Hi
	default:
		out.Hi = min64(r.Hi, s.Hi)
	}
	return out
}

func (r Range) String() string {
	lo, hi := "-inf", "+inf"
	if !r.LoInf {
		lo = fmt.Sprintf("%d", r.Lo)
	}
	if !r.HiInf {
		hi = fmt.Sprintf("%d", r.Hi)
	}
	return "[" + lo + "," + hi + "]"
}

func satAdd(a, b int64) int64 {
	s := a + b
	if a > 0 && b > 0 && s < 0 {
		return math.MaxInt64
	}
	if a < 0 && b < 0 && s > 0 {
		return math.MinInt64
	}
	return s
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/b != a {
		if (a > 0) == (b > 0) {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return p
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Env carries what is known about integer symbol values: exact
// constants (from constant propagation or PARAMETER) and ranges (from
// loop bounds, declarations and user assertions). An environment knows
// a handful of symbols, so it keeps them in a slice, in the order they
// were first set, and looks them up by scanning it.
type Env struct {
	known []binding
}

type binding struct {
	sym *fortran.Symbol
	r   Range
}

// NewEnv returns an empty environment.
func NewEnv() *Env { return &Env{} }

// Clone returns a copy sharing nothing with e.
func (e *Env) Clone() *Env { return &Env{known: slices.Clone(e.known)} }

// find returns sym's index in e.known, or -1.
func (e *Env) find(sym *fortran.Symbol) int {
	for i := range e.known {
		if e.known[i].sym == sym {
			return i
		}
	}
	return -1
}

// SetValue records sym == v.
func (e *Env) SetValue(sym *fortran.Symbol, v int64) {
	if i := e.find(sym); i >= 0 {
		e.known[i].r = Exact(v)
	} else {
		e.known = append(e.known, binding{sym, Exact(v)})
	}
}

// SetRange records sym ∈ r, intersecting with prior knowledge.
func (e *Env) SetRange(sym *fortran.Symbol, r Range) {
	if i := e.find(sym); i >= 0 {
		e.known[i].r = e.known[i].r.Intersect(r)
	} else {
		e.known = append(e.known, binding{sym, r})
	}
}

// Symbols returns the symbols the environment knows about, sorted by
// name for deterministic iteration.
func (e *Env) Symbols() []*fortran.Symbol {
	out := make([]*fortran.Symbol, len(e.known))
	for i, b := range e.known {
		out[i] = b.sym
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RangeOf returns what is known about sym.
func (e *Env) RangeOf(sym *fortran.Symbol) Range {
	if e == nil {
		return FullRange
	}
	if i := e.find(sym); i >= 0 {
		return e.known[i].r
	}
	return FullRange
}

// Value returns sym's exact value when known.
func (e *Env) Value(sym *fortran.Symbol) (int64, bool) {
	r := e.RangeOf(sym)
	if r.IsExact() {
		return r.Lo, true
	}
	return 0, false
}

// EvalRange bounds the linear form under the environment.
func (e *Env) EvalRange(l Linear) Range {
	out := Exact(l.Const)
	for _, t := range l.Terms {
		out = out.Add(e.RangeOf(t.Sym).Scale(t.Coef))
	}
	return out
}

// ProveNonNegative reports whether l >= 0 always holds under e.
func (e *Env) ProveNonNegative(l Linear) bool {
	r := e.EvalRange(l)
	return !r.LoInf && r.Lo >= 0
}
