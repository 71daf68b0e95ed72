package dep

import (
	"parascope/internal/cfg"
	"parascope/internal/dataflow"
	"parascope/internal/expr"
	"parascope/internal/fortran"
)

// dirSet is a subset of {<,=,>} describing the feasible relations
// between the source and sink iterations of one loop.
type dirSet uint8

const (
	dirBitLt dirSet = 1 << iota
	dirBitEq
	dirBitGt
	dirAll = dirBitLt | dirBitEq | dirBitGt
)

func (s dirSet) has(b dirSet) bool { return s&b != 0 }

func (s dirSet) String() string {
	out := ""
	if s.has(dirBitLt) {
		out += "<"
	}
	if s.has(dirBitEq) {
		out += "="
	}
	if s.has(dirBitGt) {
		out += ">"
	}
	return "{" + out + "}"
}

// testOutcome classifies a subscript test's result for statistics.
type testOutcome int

const (
	outcomeMaybe testOutcome = iota
	outcomeIndependent
	outcomeProven
)

// pairResult is the verdict for one reference pair over a common nest.
type pairResult struct {
	independent bool
	proven      bool
	decidedBy   string
	dirs        []dirSet // per common loop
	dist        []int64
	known       []bool
	// blockedBy notes why analysis was imprecise ("symbolic",
	// "index-array", "nonlinear"), for the analysis-needs table.
	blockedBy string
	// blockSyms names the unbounded symbolic terms (assertion
	// candidates).
	blockSyms []string
}

// eqn is one dimension's dependence equation
//
//	sum_k (a_k*i_k - b_k*i'_k) = rem + slack
//
// over the common loop nest, where rem is an affine form in
// nest-invariant symbols and slack absorbs variant symbols as a
// range.
type eqn struct {
	a, b  []int64
	rem   expr.Linear
	slack expr.Range
	// blocked is non-empty when the dimension could not be analyzed.
	blocked string
}

// blocked names why a non-affine subscript could not be analyzed.
func (s subscript) blocked() string {
	if s.indexArray {
		return "index-array"
	}
	return "nonlinear"
}

// buildEqn constructs the dependence equation for one subscript
// dimension pair.
func buildEqn(src, dst subscript, ctx *pairCtx) eqn {
	if !src.ok || !dst.ok {
		reason := "nonlinear"
		if src.indexArray || dst.indexArray {
			reason = "index-array"
		}
		return eqn{blocked: reason}
	}
	// Substitute known constants first.
	la := substConsts(src.lin, ctx.consts)
	lb := substConsts(dst.lin, ctx.consts)
	return eqnFromLinears(la, lb, ctx.nest, ctx.env, ctx.variant)
}

// eqnFromLinears builds the dependence equation from already-linear
// subscript forms (used directly for regular-section bounds). variant
// reports whether a symbol's value can differ between the two
// reference instances.
func eqnFromLinears(la, lb expr.Linear, nest []*cfg.Loop, env *expr.Env,
	variant func(*fortran.Symbol) bool) eqn {
	ab := make([]int64, 2*len(nest))
	e := eqn{a: ab[:len(nest):len(nest)], b: ab[len(nest):], slack: expr.Exact(0)}
	indexOf := func(sym *fortran.Symbol) int {
		for k, l := range nest {
			if l.Do.Var == sym {
				return k
			}
		}
		return -1
	}
	// rem = lb_rest - la_rest over the symbols that are not common loop
	// variables; variant symbols cannot cancel — they contribute an
	// interval of possible differences instead.
	e.rem.Const = lb.Const - la.Const
	contribute := func(sym *fortran.Symbol, ca, cb int64) {
		if !variant(sym) {
			// Same value at both instances: contributes (cb-ca)*sym.
			if cb != ca {
				e.rem.Terms = append(e.rem.Terms, expr.Term{Sym: sym, Coef: cb - ca})
			}
			return
		}
		// Variant symbol: the two instances are independent values in
		// the symbol's range, widening the remainder by
		// cb*range(sym) - ca*range(sym).
		r := env.RangeOf(sym)
		e.slack = e.slack.Add(r.Scale(cb)).Add(r.Scale(ca).Neg())
	}
	for _, t := range la.Terms {
		if k := indexOf(t.Sym); k >= 0 {
			e.a[k] = t.Coef
		} else {
			contribute(t.Sym, t.Coef, lb.Coef(t.Sym))
		}
	}
	for _, t := range lb.Terms {
		if k := indexOf(t.Sym); k >= 0 {
			e.b[k] = t.Coef
		} else if !hasTerm(la, t.Sym) {
			contribute(t.Sym, 0, t.Coef)
		}
	}
	// Keep rem canonical: terms sorted by symbol name.
	for i := 1; i < len(e.rem.Terms); i++ {
		for j := i; j > 0 && e.rem.Terms[j].Sym.Name < e.rem.Terms[j-1].Sym.Name; j-- {
			e.rem.Terms[j], e.rem.Terms[j-1] = e.rem.Terms[j-1], e.rem.Terms[j]
		}
	}
	return e
}

func hasTerm(l expr.Linear, sym *fortran.Symbol) bool {
	for _, t := range l.Terms {
		if t.Sym == sym {
			return true
		}
	}
	return false
}

// dimDesc describes one dimension of a reference or a call's section
// as linear index bounds: exact when lo == hi is the precise
// subscript; known=false when the dimension is unanalyzable (no
// constraint contributed).
type dimDesc struct {
	exact   bool
	lo, hi  expr.Linear
	known   bool
	blocked string
}

// overlap decides whether the index set of a source dimension can
// intersect the sink's: it needs s.hi >= d.lo and s.lo <= d.hi. The two
// difference equations are built once per dimension pair; each
// direction constraint only re-bounds their loop terms.
type overlap struct {
	hiLo, loHi diffEqn // s.hi - d.lo and s.lo - d.hi
}

// diffEqn is la(i) - lb(i') = sum_j (a_j*i_j - b_j*i'_j) - fixed, with
// fixed the range of the loop-independent part.
type diffEqn struct {
	e     eqn
	fixed expr.Range
}

func (d *diffEqn) init(la, lb expr.Linear, ctx *pairCtx) {
	d.e = eqnFromLinears(la, lb, ctx.nest, ctx.env, ctx.variant)
	d.fixed = ctx.env.EvalRange(d.e.rem)
}

// bound bounds la(i) - lb(i') over the common nest, with loop k (-1 for
// none) constrained to direction dir.
func (d *diffEqn) bound(ctx *pairCtx, k int, dir Direction) expr.Range {
	total := expr.Exact(0)
	for j := range d.e.a {
		dj := DirStar
		if j == k {
			dj = dir
		}
		total = total.Add(termBound(d.e.a[j], d.e.b[j], loopRange(ctx.env, ctx.nest[j]), dj))
	}
	return total.Sub(d.fixed).Sub(d.e.slack)
}

func (o *overlap) init(sd, dd *dimDesc, ctx *pairCtx) {
	o.hiLo.init(sd.hi, dd.lo, ctx)
	o.loHi.init(sd.lo, dd.hi, ctx)
}

// feasible reports whether the two index sets can intersect when loop
// k is constrained to dir.
func (o *overlap) feasible(ctx *pairCtx, k int, dir Direction) bool {
	if d := o.hiLo.bound(ctx, k, dir); !d.HiInf && d.Hi < 0 {
		return false
	}
	if d := o.loHi.bound(ctx, k, dir); !d.LoInf && d.Lo > 0 {
		return false
	}
	return true
}

// substConsts replaces the symbols of l that have a known constant by
// their values.
func substConsts(l expr.Linear, consts dataflow.Consts) expr.Linear {
	first := -1
	for i, t := range l.Terms {
		if _, ok := consts.Value(t.Sym); ok {
			first = i
			break
		}
	}
	if first < 0 {
		return l // nothing to substitute: the form is shared, not copied
	}
	out := expr.Linear{Const: l.Const, Terms: append([]expr.Term(nil), l.Terms[:first]...)}
	for _, t := range l.Terms[first:] {
		if v, ok := consts.Value(t.Sym); ok {
			out.Const += v * t.Coef
		} else {
			out.Terms = append(out.Terms, t)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// The hierarchical test suite

// testDim analyzes one dimension's equation, refining the per-loop
// direction sets in res. It returns the deciding test's name and
// outcome.
func testDim(e eqn, env *expr.Env, nest []*cfg.Loop, res *pairResult, useRanges bool) (string, testOutcome) {
	if e.blocked != "" {
		res.blockedBy = e.blocked
		return "", outcomeMaybe
	}
	remRange := env.EvalRange(e.rem).Add(e.slack)
	if !remRange.IsExact() && len(e.rem.Terms) > 0 {
		if res.blockedBy == "" {
			res.blockedBy = "symbolic"
		}
		for _, term := range e.rem.Terms {
			r := env.RangeOf(term.Sym)
			if r.LoInf || r.HiInf {
				res.blockSyms = appendUniqueStr(res.blockSyms, term.Sym.Name)
			}
		}
	}
	active := 0
	lastActive := -1
	for k := range e.a {
		if e.a[k] != 0 || e.b[k] != 0 {
			active++
			lastActive = k
		}
	}
	switch active {
	case 0:
		// ZIV: independent iff rem can never be zero.
		if !remRange.Contains(0) {
			return "ziv", outcomeIndependent
		}
		if remRange.IsExact() && remRange.Lo == 0 {
			return "ziv", outcomeProven
		}
		return "ziv", outcomeMaybe
	case 1:
		return testSIV(e, env, nest, lastActive, remRange, res, useRanges)
	default:
		return testMIV(e, env, nest, remRange, res, useRanges)
	}
}

func loopRange(env *expr.Env, l *cfg.Loop) expr.Range {
	return env.RangeOf(l.Do.Var)
}

// span returns the maximum |i - i'| for a loop, or ok=false when the
// bounds are unknown.
func span(r expr.Range) (int64, bool) {
	if r.LoInf || r.HiInf {
		return 0, false
	}
	return r.Hi - r.Lo, true
}

func testSIV(e eqn, env *expr.Env, nest []*cfg.Loop, k int, rem expr.Range,
	res *pairResult, useRanges bool) (string, testOutcome) {

	a, b := e.a[k], e.b[k]
	r := loopRange(env, nest[k])
	switch {
	case a == b && a != 0:
		// Strong SIV: a*(i - i') = rem, distance δ = i' - i = -rem/a.
		return strongSIV(a, rem, r, k, res, useRanges)
	case a == -b && a != 0:
		// Weak-crossing SIV: a*(i + i') = rem.
		return weakCrossingSIV(a, rem, r, k, res, useRanges)
	case b == 0:
		// Weak-zero SIV: a*i = rem.
		return weakZeroSIV(a, rem, r, k, res, useRanges, true)
	case a == 0:
		// Weak-zero SIV on the sink side: -b*i' = rem.
		return weakZeroSIV(-b, rem, r, k, res, useRanges, false)
	default:
		// General SIV: exact two-variable Diophantine with bounds.
		return exactSIV(a, b, rem, r, k, res, useRanges)
	}
}

func strongSIV(a int64, rem expr.Range, r expr.Range, k int, res *pairResult, useRanges bool) (string, testOutcome) {
	// Multiples of a within rem's range give possible distances.
	mLo, mHi, any := multiplesIn(a, rem)
	if !any {
		return "strong-siv", outcomeIndependent
	}
	// δ = i' - i = -m, with m = rem/a ∈ [mLo, mHi].
	dLo, dHi := -mHi, -mLo
	if useRanges {
		if sp, ok := span(r); ok {
			// |δ| ≤ span.
			if dLo > sp || dHi < -sp {
				return "strong-siv", outcomeIndependent
			}
			if dLo < -sp {
				dLo = -sp
			}
			if dHi > sp {
				dHi = sp
			}
		}
	}
	var ds dirSet
	if dHi > 0 {
		ds |= dirBitLt
	}
	if dLo <= 0 && dHi >= 0 {
		ds |= dirBitEq
	}
	if dLo < 0 {
		ds |= dirBitGt
	}
	res.dirs[k] &= ds
	if dLo == dHi {
		res.dist[k], res.known[k] = dLo, true
		return "strong-siv", outcomeProven
	}
	return "strong-siv", outcomeMaybe
}

func weakCrossingSIV(a int64, rem expr.Range, r expr.Range, k int, res *pairResult, useRanges bool) (string, testOutcome) {
	// i + i' = rem/a must have an integer solution.
	mLo, mHi, any := multiplesIn(a, rem)
	if !any {
		return "weak-crossing-siv", outcomeIndependent
	}
	if useRanges {
		if !r.LoInf && !r.HiInf {
			// i + i' ∈ [2lo, 2hi].
			if mHi < 2*r.Lo || mLo > 2*r.Hi {
				return "weak-crossing-siv", outcomeIndependent
			}
		}
	}
	// Crossing dependences allow all directions; '=' needs an even sum
	// landing on a single iteration.
	ds := dirBitLt | dirBitGt
	for m := mLo; m <= mHi && m-mLo < 4; m++ {
		if m%2 == 0 {
			ds |= dirBitEq
		}
	}
	if mHi-mLo >= 4 {
		ds |= dirBitEq
	}
	res.dirs[k] &= ds
	return "weak-crossing-siv", outcomeMaybe
}

func weakZeroSIV(a int64, rem expr.Range, r expr.Range, k int, res *pairResult, useRanges bool, srcSide bool) (string, testOutcome) {
	// a*i = rem: the source (or sink) iteration is pinned.
	mLo, mHi, any := multiplesIn(a, rem)
	if !any {
		return "weak-zero-siv", outcomeIndependent
	}
	if useRanges && !r.LoInf && !r.HiInf {
		if mHi < r.Lo || mLo > r.Hi {
			return "weak-zero-siv", outcomeIndependent
		}
	}
	// One side pinned, the other free: all directions possible.
	return "weak-zero-siv", outcomeMaybe
}

func exactSIV(a, b int64, rem expr.Range, r expr.Range, k int, res *pairResult, useRanges bool) (string, testOutcome) {
	// a*i - b*i' = rem. GCD filter first.
	g := gcd(abs64(a), abs64(b))
	if rem.IsExact() && g != 0 && rem.Lo%g != 0 {
		return "exact-siv", outcomeIndependent
	}
	if useRanges {
		// Banerjee bound: range of a*i - b*i'.
		lhs := r.Scale(a).Add(r.Scale(b).Neg())
		if rem.Intersect(lhs).Empty() {
			return "exact-siv", outcomeIndependent
		}
		// Per-direction feasibility.
		var ds dirSet
		for _, dir := range dirCases {
			lb := termBound(a, b, r, dir.d)
			if !rem.Intersect(lb).Empty() {
				ds |= dir.bit
			}
		}
		res.dirs[k] &= ds
		if ds == 0 {
			return "exact-siv", outcomeIndependent
		}
	}
	return "exact-siv", outcomeMaybe
}

func testMIV(e eqn, env *expr.Env, nest []*cfg.Loop, rem expr.Range,
	res *pairResult, useRanges bool) (string, testOutcome) {

	// GCD test over all index coefficients.
	var g int64
	for k := range e.a {
		g = gcd(g, abs64(e.a[k]))
		g = gcd(g, abs64(e.b[k]))
	}
	if g != 0 && rem.IsExact() && rem.Lo%g != 0 {
		return "gcd", outcomeIndependent
	}
	if !useRanges {
		return "gcd", outcomeMaybe
	}
	// Banerjee: bound sum_k (a_k*i_k - b_k*i'_k).
	total := expr.Exact(0)
	for k := range e.a {
		r := loopRange(env, nest[k])
		total = total.Add(termBound(e.a[k], e.b[k], r, DirStar))
	}
	if rem.Intersect(total).Empty() {
		return "banerjee", outcomeIndependent
	}
	// Per-loop direction pruning: re-bound with loop k constrained.
	for k := range e.a {
		if e.a[k] == 0 && e.b[k] == 0 {
			continue
		}
		rest := expr.Exact(0)
		for j := range e.a {
			if j != k {
				rest = rest.Add(termBound(e.a[j], e.b[j], loopRange(env, nest[j]), DirStar))
			}
		}
		var ds dirSet
		for _, dir := range dirCases {
			lb := rest.Add(termBound(e.a[k], e.b[k], loopRange(env, nest[k]), dir.d))
			if !rem.Intersect(lb).Empty() {
				ds |= dir.bit
			}
		}
		res.dirs[k] &= ds
		if res.dirs[k] == 0 {
			return "banerjee", outcomeIndependent
		}
	}
	return "banerjee", outcomeMaybe
}

// termBound bounds a*i - b*i' for i, i' in r, subject to the
// direction constraint (DirLt: i < i'; DirEq: i = i'; DirGt: i > i';
// DirStar: unconstrained).
func termBound(a, b int64, r expr.Range, dir Direction) expr.Range {
	switch dir {
	case DirEq:
		return r.Scale(a - b)
	case DirLt:
		// i' = i + δ, δ ≥ 1: (a-b)*i - b*δ.
		sp, ok := span(r)
		if !ok {
			sp = 1 << 40
		}
		if sp < 1 {
			return emptyRange()
		}
		delta := expr.Bounded(1, sp)
		return r.Scale(a - b).Add(delta.Scale(-b))
	case DirGt:
		// i = i' + δ, δ ≥ 1: (a-b)*i' + a*δ.
		sp, ok := span(r)
		if !ok {
			sp = 1 << 40
		}
		if sp < 1 {
			return emptyRange()
		}
		delta := expr.Bounded(1, sp)
		return r.Scale(a - b).Add(delta.Scale(a))
	default:
		return r.Scale(a).Add(r.Scale(b).Neg())
	}
}

func emptyRange() expr.Range { return expr.Bounded(1, 0) }

func appendUniqueStr(list []string, s string) []string {
	for _, x := range list {
		if x == s {
			return list
		}
	}
	return append(list, s)
}

// multiplesIn returns the smallest and largest m with a*m ∈ rem,
// and whether any exists. For an unbounded rem every m qualifies.
func multiplesIn(a int64, rem expr.Range) (mLo, mHi int64, any bool) {
	if a == 0 {
		if rem.Contains(0) {
			return -(1 << 40), 1 << 40, true
		}
		return 0, 0, false
	}
	if a < 0 {
		lo, hi, ok := multiplesIn(-a, rem.Neg())
		return lo, hi, ok
	}
	if rem.LoInf || rem.HiInf {
		lo, hi := int64(-(1 << 40)), int64(1<<40)
		if !rem.LoInf {
			lo = ceilDiv(rem.Lo, a)
		}
		if !rem.HiInf {
			hi = floorDiv(rem.Hi, a)
		}
		return lo, hi, lo <= hi
	}
	lo := ceilDiv(rem.Lo, a)
	hi := floorDiv(rem.Hi, a)
	return lo, hi, lo <= hi
}

func ceilDiv(x, d int64) int64 {
	q := x / d
	if x%d != 0 && (x > 0) == (d > 0) {
		q++
	}
	return q
}

func floorDiv(x, d int64) int64 {
	q := x / d
	if x%d != 0 && (x > 0) != (d > 0) {
		q--
	}
	return q
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
