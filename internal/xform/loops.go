package xform

import (
	"fmt"

	"parascope/internal/cfg"
	"parascope/internal/dataflow"
	"parascope/internal/dep"
	"parascope/internal/expr"
	"parascope/internal/fortran"
	"parascope/internal/perf"
)

// ---------------------------------------------------------------------------
// Parallelize / Serialize

// Parallelize marks a DO loop as a parallel (DOALL) loop, privatizing
// scalars and attaching recognized reductions.
type Parallelize struct {
	Do *fortran.DoStmt
}

// Name implements Transformation.
func (Parallelize) Name() string { return "parallelize" }

// Basis is why a variable's dependences do or do not stand in the way
// of running a loop's iterations in parallel.
type Basis int

const (
	Shared    Basis = iota // every iteration touches the one variable: its carried dependences block
	Private                // killed in every iteration and dead after the loop, or already in Do.Private
	Reduction              // a recognized reduction: partial results combine after the loop
	Induction              // the loop's own variable
	LastValue              // privatizable, but read after the loop: blocks; scalar expansion keeps the value
	Rejected               // of a dependence only: the user overruled the analysis
)

// Doall is the one judgement of whether a loop's iterations may run in
// parallel. Parallelize's Check and Apply, the editor's guidance, its
// variable pane and hideprivate filter, and the decisions a plan
// reports all read it, so they cannot disagree about a variable.
type Doall struct {
	Loop *cfg.Loop // nil when the DO statement is not part of the current analysis
	// Blocking lists the carried dependences that forbid parallel
	// execution: active, and on a variable that is Shared or LastValue.
	Blocking []*dep.Dependence
	// Private and Reductions are what parallelizing attaches to the DO
	// statement: the loop variable, what is private already, and the
	// privatizable scalars among the carried dependences.
	Private    []*fortran.Symbol
	Reductions []fortran.Reduction
	Notes      []string

	df *dataflow.Analysis
}

// DoallOf judges the loop of do from the unit's data-flow analysis and
// dependence graph — all a verdict reads.
func DoallOf(df *dataflow.Analysis, deps *dep.Graph, do *fortran.DoStmt) Doall {
	v := Doall{Loop: df.Tree.LoopOf(do), df: df}
	if v.Loop == nil {
		v.Notes = []string{"not a loop in the current analysis"}
		return v
	}
	v.Reductions = df.Reductions(v.Loop)
	// Variables the user already privatized (e.g. via the explicit
	// array privatization transformation) stay private.
	v.Private = append(v.Private, do.Var)
	for _, p := range do.Private {
		if !v.private(p) {
			v.Private = append(v.Private, p)
		}
	}
	for _, d := range deps.CarriedAt(v.Loop) {
		if !active(d) || v.private(d.Sym) {
			continue
		}
		switch v.Basis(d.Sym) {
		case Private:
			v.Private = append(v.Private, d.Sym)
		case LastValue:
			v.Notes = append(v.Notes, fmt.Sprintf("%s needs last-value copy-out", d.Sym.Name))
			fallthrough
		case Shared:
			v.Blocking = append(v.Blocking, d)
		}
	}
	return v
}

func (v *Doall) private(sym *fortran.Symbol) bool {
	for _, p := range v.Private {
		if p == sym {
			return true
		}
	}
	return false
}

// Basis classifies any variable of the unit for the loop (which must be
// part of the analysis: Loop non-nil): its own variable, one
// parallelizing would make private, a reduction, or what the scalar
// kill analysis says of it.
func (v *Doall) Basis(sym *fortran.Symbol) Basis {
	if sym == v.Loop.Do.Var {
		return Induction
	}
	if v.private(sym) {
		return Private
	}
	for _, r := range v.Reductions {
		if r.Sym == sym {
			return Reduction
		}
	}
	switch res := v.df.Privatizable(v.Loop, sym); {
	case res.Privatizable && !res.NeedsLastValue:
		return Private
	case res.Privatizable:
		return LastValue
	}
	return Shared
}

// DepBasis is the basis on which a parallel loop sets d aside: the
// user's rejection, else its variable's.
func (v *Doall) DepBasis(d *dep.Dependence) Basis {
	if d.Mark == dep.MarkRejected {
		return Rejected
	}
	return v.Basis(d.Sym)
}

// Check implements Transformation.
func (t Parallelize) Check(c *Context) Verdict {
	v := Verdict{Applicable: true}
	if t.Do.Parallel {
		v.Applicable = false
		v.note("loop is already parallel")
		return v
	}
	d := DoallOf(c.DF, c.Deps, t.Do)
	v.Notes = append(v.Notes, d.Notes...)
	v.Safe = len(d.Blocking) == 0
	for _, b := range d.Blocking {
		v.note("blocked by %s", b)
	}
	if len(d.Private) > 1 {
		v.note("%d scalars privatized", len(d.Private)-1)
	}
	if len(d.Reductions) > 0 {
		v.note("%d reductions recognized", len(d.Reductions))
	}
	if l := d.Loop; l != nil && v.Safe {
		// Static profitability: compare the loop's estimated serial
		// time against the parallel prediction (fork cost plus the
		// per-processor share), the estimator model of [26].
		est := perf.New(c.File, perf.DefaultParams())
		le := est.EstimateLoop(c.DF, l)
		v.Profitable = le.Speedup > 1.2
		v.note("estimated speedup %.1fx on %d processors", le.Speedup, perf.DefaultParams().Procs)
		if !v.Profitable {
			v.note("fork/join overhead dominates this loop's work")
		}
	}
	return v
}

// Apply implements Transformation.
func (t Parallelize) Apply(c *Context) error {
	d := DoallOf(c.DF, c.Deps, t.Do)
	if len(d.Blocking) > 0 {
		return fmt.Errorf("parallelize: %d blocking dependences", len(d.Blocking))
	}
	t.Do.Parallel = true
	t.Do.Private = d.Private
	t.Do.Reductions = d.Reductions
	return nil
}

// Serialize reverts a parallel loop to sequential execution.
type Serialize struct {
	Do *fortran.DoStmt
}

// Name implements Transformation.
func (Serialize) Name() string { return "serialize" }

// Check implements Transformation.
func (t Serialize) Check(c *Context) Verdict {
	v := Verdict{Applicable: t.Do.Parallel, Safe: true, Profitable: false}
	if !t.Do.Parallel {
		v.note("loop is not parallel")
	}
	return v
}

// Apply implements Transformation.
func (t Serialize) Apply(c *Context) error {
	t.Do.Parallel = false
	t.Do.Private = nil
	t.Do.Reductions = nil
	return nil
}

// ---------------------------------------------------------------------------
// Interchange

// Interchange swaps a loop with the single loop its body directly
// contains (a perfectly nested pair).
type Interchange struct {
	Outer *fortran.DoStmt
}

// Name implements Transformation.
func (Interchange) Name() string { return "interchange" }

// innerOf returns the loop that is the whole body of outer (a perfectly
// nested pair), nil when the body is anything else.
func innerOf(outer *fortran.DoStmt) *fortran.DoStmt {
	if len(outer.Body) != 1 {
		return nil
	}
	inner, _ := outer.Body[0].(*fortran.DoStmt)
	return inner
}

// reversedByInterchange notes on v, as what-preventing, every active
// dependence of the pair at l with direction (<, >): interchanging the
// two loops — or jamming copies of the outer one into the inner —
// would run its sink before its source.
func reversedByInterchange(c *Context, l *cfg.Loop, what string, v *Verdict) {
	oIdx, iIdx := l.Depth-1, l.Depth
	for _, d := range activeDeps(c.Deps.LoopDeps(l)) {
		if len(d.Dirs) > iIdx && mayBe(d.Dirs[oIdx], dep.DirLt) && mayBe(d.Dirs[iIdx], dep.DirGt) {
			v.Safe = false
			v.note("%s-preventing dependence: %s", what, d)
		}
	}
}

// Check implements Transformation.
func (t Interchange) Check(c *Context) Verdict {
	var v Verdict
	inner := innerOf(t.Outer)
	if inner == nil {
		v.note("loop body is not a single nested DO (imperfect nest)")
		return v
	}
	if fortran.Mentions(inner.Lo, t.Outer.Var) || fortran.Mentions(inner.Hi, t.Outer.Var) || fortran.Mentions(inner.Step, t.Outer.Var) {
		v.note("inner bounds depend on %s (triangular nest)", t.Outer.Var.Name)
		return v
	}
	if fortran.Mentions(t.Outer.Lo, inner.Var) || fortran.Mentions(t.Outer.Hi, inner.Var) {
		v.note("outer bounds depend on %s", inner.Var.Name)
		return v
	}
	if staleLoop(c, t.Outer, &v) {
		return v
	}
	v.Applicable = true
	// Safety: no dependence with direction (<, >) across the pair.
	v.Safe = true
	reversedByInterchange(c, c.Loop(t.Outer), "interchange", &v)
	// Profitability: in column-major Fortran the innermost loop should
	// run over the first subscript position for stride-1 access.
	v.Profitable = strideProfit(c, t.Outer.Var, inner.Var)
	if v.Profitable {
		v.note("inner loop will access arrays stride-1 after interchange")
	}
	return v
}

// mayBe reports whether direction dir is included in the (possibly
// summarized) direction d.
func mayBe(d dep.Direction, dir dep.Direction) bool {
	if d == dir || d == dep.DirStar {
		return true
	}
	switch dir {
	case dep.DirLt:
		return d == dep.DirLe
	case dep.DirGt:
		return d == dep.DirGe
	case dep.DirEq:
		return d == dep.DirLe || d == dep.DirGe
	}
	return false
}

// strideProfit heuristically checks whether outerVar indexes the
// first (column) dimension more often than innerVar — interchanging
// then improves locality.
func strideProfit(c *Context, outerVar, innerVar *fortran.Symbol) bool {
	outerFirst, innerFirst := 0, 0
	fortran.WalkStmts(c.Unit.Body, func(s fortran.Stmt) bool {
		fortran.WalkExprs(s, func(e fortran.Expr) {
			vr, ok := e.(*fortran.VarRef)
			if !ok || len(vr.Subs) == 0 {
				return
			}
			if fortran.Mentions(vr.Subs[0], outerVar) {
				outerFirst++
			}
			if fortran.Mentions(vr.Subs[0], innerVar) {
				innerFirst++
			}
		})
		return true
	})
	return outerFirst > innerFirst
}

// Apply implements Transformation.
func (t Interchange) Apply(c *Context) error {
	inner := innerOf(t.Outer)
	if inner == nil {
		return fmt.Errorf("interchange: imperfect nest")
	}
	t.Outer.Var, inner.Var = inner.Var, t.Outer.Var
	t.Outer.Lo, inner.Lo = inner.Lo, t.Outer.Lo
	t.Outer.Hi, inner.Hi = inner.Hi, t.Outer.Hi
	t.Outer.Step, inner.Step = inner.Step, t.Outer.Step
	// Parallel marks were proven for the old loop order; carried
	// levels move under interchange, so both loops revert to serial
	// until re-proven.
	for _, do := range []*fortran.DoStmt{t.Outer, inner} {
		do.Parallel = false
		do.Private = nil
		do.Reductions = nil
	}
	return nil
}

// ---------------------------------------------------------------------------
// Reversal

// Reverse runs the loop from its upper bound down to its lower bound.
type Reverse struct {
	Do *fortran.DoStmt
}

// Name implements Transformation.
func (Reverse) Name() string { return "reverse" }

// Check implements Transformation.
func (t Reverse) Check(c *Context) Verdict {
	v := Verdict{Applicable: true}
	if staleLoop(c, t.Do, &v) {
		return v
	}
	l := c.Loop(t.Do)
	carried := activeDeps(c.Deps.CarriedAt(l))
	v.Safe = len(carried) == 0
	for _, d := range carried {
		v.note("carried dependence prevents reversal: %s", d)
	}
	v.Profitable = false // reversal is an enabling step, not a win itself
	return v
}

// Apply implements Transformation.
func (t Reverse) Apply(c *Context) error {
	step := t.Do.Step
	if step == nil {
		step = &fortran.IntLit{Val: 1}
	}
	t.Do.Lo, t.Do.Hi = t.Do.Hi, t.Do.Lo
	t.Do.Step = expr.Fold(&fortran.Unary{Op: fortran.TokMinus, X: step})
	return nil
}

// ---------------------------------------------------------------------------
// Skew

// Skew offsets the inner loop of a perfect pair by Factor times the
// outer variable, changing iteration-space shape but not order.
type Skew struct {
	Outer  *fortran.DoStmt
	Factor int64
}

// Name implements Transformation.
func (Skew) Name() string { return "skew" }

// Check implements Transformation.
func (t Skew) Check(c *Context) Verdict {
	var v Verdict
	if t.Factor == 0 {
		v.note("zero skew factor is the identity")
		return v
	}
	inner := innerOf(t.Outer)
	if inner == nil {
		v.note("loop body is not a single nested DO")
		return v
	}
	if inner.Step != nil || t.Outer.Step != nil {
		v.note("skewing requires unit steps")
		return v
	}
	v.Applicable = true
	v.Safe = true // skewing never changes execution order
	v.Profitable = false
	v.note("enabling transformation (e.g. for wavefront parallelism after interchange)")
	return v
}

// Apply implements Transformation.
func (t Skew) Apply(c *Context) error {
	inner := innerOf(t.Outer)
	f := &fortran.IntLit{Val: t.Factor}
	iRef := func() fortran.Expr {
		return &fortran.VarRef{Sym: t.Outer.Var, Name: t.Outer.Var.Name}
	}
	offset := func(e fortran.Expr) fortran.Expr {
		return expr.Fold(&fortran.Binary{Op: fortran.TokPlus, X: e,
			Y: &fortran.Binary{Op: fortran.TokStar, X: f, Y: iRef()}})
	}
	inner.Lo = offset(inner.Lo)
	inner.Hi = offset(inner.Hi)
	// j (old) = j' - f*i inside the body.
	repl := &fortran.Binary{Op: fortran.TokMinus,
		X: &fortran.VarRef{Sym: inner.Var, Name: inner.Var.Name},
		Y: &fortran.Binary{Op: fortran.TokStar, X: f, Y: iRef()}}
	for _, s := range inner.Body {
		fortran.SubstVarStmt(s, inner.Var, repl)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Strip mining

// StripMine splits a loop into a strip-control loop and a strip loop
// of Size iterations.
type StripMine struct {
	Do   *fortran.DoStmt
	Size int64
}

// Name implements Transformation.
func (StripMine) Name() string { return "strip-mine" }

// Check implements Transformation.
func (t StripMine) Check(c *Context) Verdict {
	var v Verdict
	if staleLoop(c, t.Do, &v) {
		return v
	}
	if t.Size < 2 {
		v.note("strip size must be at least 2")
		return v
	}
	if t.Do.Step != nil {
		v.note("strip mining requires unit step")
		return v
	}
	v.Applicable = true
	v.Safe = true // execution order unchanged
	l := c.Loop(t.Do)
	if trip, ok := c.DF.TripCount(l); ok && trip <= t.Size {
		v.note("trip count %d not larger than strip size %d", trip, t.Size)
		v.Profitable = false
		return v
	}
	v.Profitable = true
	return v
}

// Apply implements Transformation.
func (t StripMine) Apply(c *Context) error {
	u := c.Unit
	ctrl := newScalar(u, t.Do.Var.Name+"s", fortran.TypeInteger)
	ctrlRef := &fortran.VarRef{Sym: ctrl, Name: ctrl.Name}
	inner := &fortran.DoStmt{
		Var: t.Do.Var,
		Lo:  ctrlRef,
		Hi: &fortran.FuncCall{Name: "min", Args: []fortran.Expr{
			&fortran.Binary{Op: fortran.TokMinus,
				X: &fortran.Binary{Op: fortran.TokPlus, X: fortran.CloneExpr(ctrlRef), Y: &fortran.IntLit{Val: t.Size}},
				Y: &fortran.IntLit{Val: 1}},
			fortran.CloneExpr(t.Do.Hi),
		}},
		Body: t.Do.Body,
	}
	t.Do.Var = ctrl
	t.Do.Step = &fortran.IntLit{Val: t.Size}
	t.Do.Body = []fortran.Stmt{inner}
	return nil
}

// ---------------------------------------------------------------------------
// Unrolling

// Unroll replicates the loop body Factor times; requires a constant
// trip count (a remainder loop handles non-divisible counts).
type Unroll struct {
	Do     *fortran.DoStmt
	Factor int64
}

// Name implements Transformation.
func (Unroll) Name() string { return "unroll" }

// Check implements Transformation.
func (t Unroll) Check(c *Context) Verdict {
	var v Verdict
	if staleLoop(c, t.Do, &v) {
		return v
	}
	if t.Factor < 2 {
		v.note("unroll factor must be at least 2")
		return v
	}
	if t.Do.Step != nil {
		v.note("unrolling requires unit step")
		return v
	}
	l := c.Loop(t.Do)
	trip, ok := c.DF.TripCount(l)
	if !ok {
		v.note("trip count unknown")
		return v
	}
	if hasExits(t.Do.Body) {
		v.note("body contains control-flow exits")
		return v
	}
	v.Applicable = true
	v.Safe = true
	v.Profitable = trip >= t.Factor*2
	if trip%t.Factor != 0 {
		v.note("remainder loop of %d iterations generated", trip%t.Factor)
	}
	return v
}

// Apply implements Transformation.
func (t Unroll) Apply(c *Context) error {
	l := c.Loop(t.Do)
	trip, ok := c.DF.TripCount(l)
	if !ok {
		return fmt.Errorf("unroll: unknown trip count")
	}
	main := (trip / t.Factor) * t.Factor
	var body []fortran.Stmt
	for k := int64(0); k < t.Factor; k++ {
		copyBody := fortran.CloneBody(t.Do.Body)
		if k > 0 {
			repl := &fortran.Binary{Op: fortran.TokPlus,
				X: &fortran.VarRef{Sym: t.Do.Var, Name: t.Do.Var.Name},
				Y: &fortran.IntLit{Val: k}}
			for _, s := range copyBody {
				fortran.SubstVarStmt(s, t.Do.Var, repl)
			}
		}
		body = append(body, copyBody...)
	}
	var repl []fortran.Stmt
	mainLoop := &fortran.DoStmt{
		StmtBase: t.Do.StmtBase,
		Var:      t.Do.Var,
		Lo:       fortran.CloneExpr(t.Do.Lo),
		Hi: expr.Fold(&fortran.Binary{Op: fortran.TokMinus,
			X: &fortran.Binary{Op: fortran.TokPlus, X: fortran.CloneExpr(t.Do.Lo), Y: &fortran.IntLit{Val: main}},
			Y: &fortran.IntLit{Val: 1}}),
		Step: &fortran.IntLit{Val: t.Factor},
		Body: body,
	}
	repl = append(repl, mainLoop)
	if main < trip {
		rem := &fortran.DoStmt{
			Var: t.Do.Var,
			Lo: expr.Fold(&fortran.Binary{Op: fortran.TokPlus,
				X: fortran.CloneExpr(t.Do.Lo), Y: &fortran.IntLit{Val: main}}),
			Hi:   fortran.CloneExpr(t.Do.Hi),
			Body: fortran.CloneBody(t.Do.Body),
		}
		repl = append(repl, rem)
	}
	if !ReplaceStmt(c.Unit, t.Do, repl...) {
		return fmt.Errorf("unroll: loop not found in unit")
	}
	return nil
}

// ---------------------------------------------------------------------------
// Peeling

// Peel extracts the first iteration of the loop, often removing a
// wrap-around dependence or enabling fusion.
type Peel struct {
	Do *fortran.DoStmt
}

// Name implements Transformation.
func (Peel) Name() string { return "peel" }

// Check implements Transformation.
func (t Peel) Check(c *Context) Verdict {
	var v Verdict
	if staleLoop(c, t.Do, &v) {
		return v
	}
	if t.Do.Step != nil {
		v.note("peeling requires unit step")
		return v
	}
	if hasExits(t.Do.Body) {
		v.note("body contains control-flow exits")
		return v
	}
	v.Applicable = true
	// Safe only when the loop provably executes at least once.
	env := c.DF.EnvAt(t.Do)
	loLin, ok1 := expr.Linearize(c.Unit, t.Do.Lo)
	hiLin, ok2 := expr.Linearize(c.Unit, t.Do.Hi)
	if ok1 && ok2 && env.ProveNonNegative(hiLin.Sub(loLin)) {
		v.Safe = true
	} else {
		v.note("cannot prove the loop executes at least once")
	}
	v.Profitable = false
	v.note("enabling transformation")
	return v
}

// Apply implements Transformation.
func (t Peel) Apply(c *Context) error {
	first := fortran.CloneBody(t.Do.Body)
	for _, s := range first {
		fortran.SubstVarStmt(s, t.Do.Var, t.Do.Lo)
	}
	rest := &fortran.DoStmt{
		Var: t.Do.Var,
		Lo: expr.Fold(&fortran.Binary{Op: fortran.TokPlus,
			X: fortran.CloneExpr(t.Do.Lo), Y: &fortran.IntLit{Val: 1}}),
		Hi:   t.Do.Hi,
		Body: t.Do.Body,
	}
	repl := append(first, rest)
	if !ReplaceStmt(c.Unit, t.Do, repl...) {
		return fmt.Errorf("peel: loop not found in unit")
	}
	return nil
}

// ---------------------------------------------------------------------------
// Unroll-and-jam

// UnrollJam unrolls the outer loop of a perfect nest by Factor and
// jams the copies into the inner loop body — the memory-hierarchy
// transformation of the ParaScope compiler family (Carr's thesis,
// cited as [8]): it increases inner-loop reuse without changing the
// iteration order constraints beyond interchange legality.
type UnrollJam struct {
	Outer  *fortran.DoStmt
	Factor int64
}

// Name implements Transformation.
func (UnrollJam) Name() string { return "unroll-and-jam" }

// Check implements Transformation.
func (t UnrollJam) Check(c *Context) Verdict {
	var v Verdict
	if staleLoop(c, t.Outer, &v) {
		return v
	}
	if t.Factor < 2 {
		v.note("factor must be at least 2")
		return v
	}
	inner := innerOf(t.Outer)
	if inner == nil {
		v.note("loop body is not a single nested DO (imperfect nest)")
		return v
	}
	if t.Outer.Step != nil {
		v.note("requires unit outer step")
		return v
	}
	if fortran.Mentions(inner.Lo, t.Outer.Var) || fortran.Mentions(inner.Hi, t.Outer.Var) {
		v.note("inner bounds depend on %s", t.Outer.Var.Name)
		return v
	}
	if hasExits(t.Outer.Body) {
		v.note("body contains control-flow exits")
		return v
	}
	l := c.Loop(t.Outer)
	trip, ok := c.DF.TripCount(l)
	if !ok {
		v.note("outer trip count unknown")
		return v
	}
	v.Applicable = true
	// Jamming is legal exactly when interchange is: moving the
	// unrolled copies inside the inner loop must not reverse any
	// (outer <, inner >) dependence.
	v.Safe = true
	reversedByInterchange(c, l, "jam", &v)
	v.Profitable = trip >= t.Factor*2
	if trip%t.Factor != 0 {
		v.note("remainder nest of %d outer iterations generated", trip%t.Factor)
	}
	return v
}

// Apply implements Transformation.
func (t UnrollJam) Apply(c *Context) error {
	inner := innerOf(t.Outer)
	if inner == nil {
		return fmt.Errorf("unroll-and-jam: imperfect nest")
	}
	l := c.Loop(t.Outer)
	trip, ok := c.DF.TripCount(l)
	if !ok {
		return fmt.Errorf("unroll-and-jam: unknown trip count")
	}
	main := (trip / t.Factor) * t.Factor
	// Jammed inner body: Factor copies with outer var offset.
	var jammed []fortran.Stmt
	for k := int64(0); k < t.Factor; k++ {
		cp := fortran.CloneBody(inner.Body)
		if k > 0 {
			repl := &fortran.Binary{Op: fortran.TokPlus,
				X: &fortran.VarRef{Sym: t.Outer.Var, Name: t.Outer.Var.Name},
				Y: &fortran.IntLit{Val: k}}
			for _, s := range cp {
				fortran.SubstVarStmt(s, t.Outer.Var, repl)
			}
		}
		jammed = append(jammed, cp...)
	}
	var repl []fortran.Stmt
	mainOuter := &fortran.DoStmt{
		StmtBase: t.Outer.StmtBase,
		Var:      t.Outer.Var,
		Lo:       fortran.CloneExpr(t.Outer.Lo),
		Hi: expr.Fold(&fortran.Binary{Op: fortran.TokMinus,
			X: &fortran.Binary{Op: fortran.TokPlus, X: fortran.CloneExpr(t.Outer.Lo), Y: &fortran.IntLit{Val: main}},
			Y: &fortran.IntLit{Val: 1}}),
		Step: &fortran.IntLit{Val: t.Factor},
		Body: []fortran.Stmt{loopLike(inner, jammed)},
	}
	repl = append(repl, mainOuter)
	if main < trip {
		rem := &fortran.DoStmt{
			Var: t.Outer.Var,
			Lo: expr.Fold(&fortran.Binary{Op: fortran.TokPlus,
				X: fortran.CloneExpr(t.Outer.Lo), Y: &fortran.IntLit{Val: main}}),
			Hi:   fortran.CloneExpr(t.Outer.Hi),
			Body: fortran.CloneBody(t.Outer.Body),
		}
		repl = append(repl, rem)
	}
	if !ReplaceStmt(c.Unit, t.Outer, repl...) {
		return fmt.Errorf("unroll-and-jam: loop not found in unit")
	}
	return nil
}

// loopLike returns a new loop over body with clones of do's variable,
// bounds and step.
func loopLike(do *fortran.DoStmt, body []fortran.Stmt) *fortran.DoStmt {
	l := &fortran.DoStmt{Var: do.Var, Lo: fortran.CloneExpr(do.Lo), Hi: fortran.CloneExpr(do.Hi), Body: body}
	if do.Step != nil {
		l.Step = fortran.CloneExpr(do.Step)
	}
	return l
}

// ---------------------------------------------------------------------------
// Loop bounds adjustment (normalization)

// Normalize rewrites a loop to run from 1 with unit step, adjusting
// every use of the induction variable — the paper's "loop bounds
// adjustment", an enabling step for fusion of loops with offset
// bounds.
type Normalize struct {
	Do *fortran.DoStmt
}

// Name implements Transformation.
func (Normalize) Name() string { return "normalize" }

// Check implements Transformation.
func (t Normalize) Check(c *Context) Verdict {
	var v Verdict
	if staleLoop(c, t.Do, &v) {
		return v
	}
	lo, okLo := expr.Linearize(c.Unit, t.Do.Lo)
	step := expr.Con(1)
	okStep := true
	if t.Do.Step != nil {
		step, okStep = expr.Linearize(c.Unit, t.Do.Step)
	}
	if !okLo || !okStep {
		v.note("bounds are not affine")
		return v
	}
	if !step.IsConst() || step.Const <= 0 {
		v.note("step must be a positive constant")
		return v
	}
	if lo.IsConst() && lo.Const == 1 && step.Const == 1 {
		v.note("loop is already normalized")
		return v
	}
	v.Applicable = true
	v.Safe = true // pure reindexing, same iteration sequence
	v.Profitable = false
	v.note("enabling transformation (e.g. for fusion)")
	return v
}

// Apply implements Transformation.
func (t Normalize) Apply(c *Context) error {
	stepVal := int64(1)
	if t.Do.Step != nil {
		lin, ok := expr.Linearize(c.Unit, t.Do.Step)
		if !ok || !lin.IsConst() || lin.Const <= 0 {
			return fmt.Errorf("normalize: non-constant step")
		}
		stepVal = lin.Const
	}
	lo := fortran.CloneExpr(t.Do.Lo)
	hi := fortran.CloneExpr(t.Do.Hi)
	// New trip count: (hi - lo + step) / step, exact for the loops
	// normalization accepts.
	trip := &fortran.Binary{Op: fortran.TokSlash,
		X: &fortran.Binary{Op: fortran.TokPlus,
			X: &fortran.Binary{Op: fortran.TokMinus, X: hi, Y: fortran.CloneExpr(lo)},
			Y: &fortran.IntLit{Val: stepVal}},
		Y: &fortran.IntLit{Val: stepVal}}
	// Old i = (i' - 1)*step + lo.
	repl := &fortran.Binary{Op: fortran.TokPlus,
		X: &fortran.Binary{Op: fortran.TokStar,
			X: &fortran.Binary{Op: fortran.TokMinus,
				X: &fortran.VarRef{Sym: t.Do.Var, Name: t.Do.Var.Name},
				Y: &fortran.IntLit{Val: 1}},
			Y: &fortran.IntLit{Val: stepVal}},
		Y: lo}
	for _, s := range t.Do.Body {
		fortran.SubstVarStmt(s, t.Do.Var, repl)
	}
	t.Do.Lo = &fortran.IntLit{Val: 1}
	t.Do.Hi = expr.Fold(trip)
	t.Do.Step = nil
	return nil
}
