// Package perf implements ParaScope's static performance estimator:
// an abstract-machine cost model that predicts the relative execution
// time of loops and procedures so the editor can rank where the time
// goes and what parallelization would buy — the navigation guidance
// the paper's users asked for ("the user should be given insight
// about what loops to parallelize, either through profiling or
// performance estimation").
package perf

import (
	"fmt"
	"sort"
	"strings"

	"parascope/internal/cfg"
	"parascope/internal/dataflow"
	"parascope/internal/fortran"
)

// Params is the abstract machine cost model, in arbitrary time units.
type Params struct {
	ArithCost       float64 // one scalar arithmetic operation
	MemCost         float64 // one array element access
	IntrinsicCost   float64 // one intrinsic invocation (sqrt, sin, …)
	BranchCost      float64 // one conditional test
	LoopOverhead    float64 // per-iteration loop control
	CallOverhead    float64 // procedure invocation
	ParallelStartup float64 // fork/join cost of a parallel loop
	DefaultTrip     float64 // assumed trip count when unknown
	Procs           int     // processors for parallel estimates
}

// DefaultParams models a small shared-memory multiprocessor of the
// paper's era (relative units; only ratios matter).
func DefaultParams() Params {
	return Params{
		ArithCost:       1,
		MemCost:         2,
		IntrinsicCost:   8,
		BranchCost:      1,
		LoopOverhead:    2,
		CallOverhead:    10,
		ParallelStartup: 200,
		DefaultTrip:     100,
		Procs:           8,
	}
}

// LoopEstimate is the estimator's verdict for one loop.
type LoopEstimate struct {
	Loop *cfg.Loop
	// Trip is the estimated iteration count.
	Trip float64
	// BodyCost is the per-iteration cost.
	BodyCost float64
	// SeqTime = Trip*(BodyCost+overhead), including nested loops.
	SeqTime float64
	// ParTime is the predicted time if this loop ran as a DOALL on
	// Procs processors.
	ParTime float64
	// Speedup = SeqTime/ParTime.
	Speedup float64
	// Fraction of the unit's total estimated time spent here.
	Fraction float64
}

func (e LoopEstimate) String() string {
	return fmt.Sprintf("do %s (line %d): seq %.0f, par %.0f (%.1fx), %.0f%% of unit",
		e.Loop.Header().Name, e.Loop.Do.Line(), e.SeqTime, e.ParTime, e.Speedup, e.Fraction*100)
}

// UnitEstimate aggregates a unit's estimates.
type UnitEstimate struct {
	Unit  *fortran.Unit
	Total float64
	Loops []LoopEstimate
}

// Estimator computes static cost estimates.
type Estimator struct {
	Params Params
	// unitCost memoizes whole-unit per-call costs for call sites.
	unitCost map[*fortran.Unit]float64
	file     *fortran.File
}

// New creates an estimator over the file.
func New(f *fortran.File, p Params) *Estimator {
	return &Estimator{Params: p, unitCost: map[*fortran.Unit]float64{}, file: f}
}

// EstimateUnit analyzes one unit, returning loop estimates sorted by
// descending sequential time — the navigation order.
func (e *Estimator) EstimateUnit(df *dataflow.Analysis) *UnitEstimate {
	u := df.Unit
	out := &UnitEstimate{Unit: u}
	out.Total = e.bodyCost(df, u.Body)
	for _, l := range df.Tree.All {
		le := e.estimateLoop(df, l)
		if out.Total > 0 {
			le.Fraction = le.SeqTime / out.Total
		}
		out.Loops = append(out.Loops, le)
	}
	sort.Slice(out.Loops, func(i, j int) bool {
		return out.Loops[i].SeqTime > out.Loops[j].SeqTime
	})
	return out
}

// EstimateLoop estimates one loop in isolation (used by the power-
// steering profitability diagnosis).
func (e *Estimator) EstimateLoop(df *dataflow.Analysis, l *cfg.Loop) LoopEstimate {
	return e.estimateLoop(df, l)
}

func (e *Estimator) estimateLoop(df *dataflow.Analysis, l *cfg.Loop) LoopEstimate {
	trip := e.Params.DefaultTrip
	if n, ok := df.TripCount(l); ok {
		trip = float64(n)
	}
	body := e.bodyCost(df, l.Do.Body)
	seq := trip * (body + e.Params.LoopOverhead)
	par := e.doallTime(trip, body)
	speedup := 1.0
	if par > 0 {
		speedup = seq / par
	}
	return LoopEstimate{Loop: l, Trip: trip, BodyCost: body, SeqTime: seq, ParTime: par, Speedup: speedup}
}

// bodyCost estimates the cost of one execution of the statement list,
// every loop sequential: the program being edited.
func (e *Estimator) bodyCost(df *dataflow.Analysis, body []fortran.Stmt) float64 {
	return e.cost(df, body, false)
}

// ParallelTime estimates one execution of the statement list under
// the current parallelization state: loops already marked parallel
// (doall) cost ParallelStartup plus their chunked body time instead
// of the full sequential trip, at any depth. It is the speculative
// planner's scoring function — the predicted wall-clock of a partially
// parallelized unit.
func (e *Estimator) ParallelTime(df *dataflow.Analysis, body []fortran.Stmt) float64 {
	return e.cost(df, body, true)
}

// cost is the one walk of bodyCost and ParallelTime; parallel says
// whether a DO marked parallel runs as one.
func (e *Estimator) cost(df *dataflow.Analysis, body []fortran.Stmt, parallel bool) float64 {
	total := 0.0
	for _, s := range body {
		total += e.stmtCost(df, s, parallel)
	}
	return total
}

func (e *Estimator) stmtCost(df *dataflow.Analysis, s fortran.Stmt, parallel bool) float64 {
	p := e.Params
	switch st := s.(type) {
	case *fortran.AssignStmt:
		return e.exprCost(st.Rhs) + e.refCost(st.Lhs)
	case *fortran.IfStmt:
		// Expected cost: condition plus the mean of the branches.
		thenC := e.cost(df, st.Then, parallel)
		elseC := e.cost(df, st.Else, parallel)
		return p.BranchCost + e.exprCost(st.Cond) + (thenC+elseC)/2
	case *fortran.DoStmt:
		trip := p.DefaultTrip
		if l := df.Tree.LoopOf(st); l != nil {
			if n, ok := df.TripCount(l); ok {
				trip = float64(n)
			}
		}
		body := e.cost(df, st.Body, parallel)
		if parallel && st.Parallel {
			return e.doallTime(trip, body)
		}
		return trip * (body + p.LoopOverhead)
	case *fortran.WhileStmt:
		return p.DefaultTrip * (e.cost(df, st.Body, parallel) + p.LoopOverhead + e.exprCost(st.Cond))
	case *fortran.CallStmt:
		cost := p.CallOverhead
		for _, a := range st.Args {
			cost += e.exprCost(a)
		}
		if st.Callee != nil {
			cost += e.UnitCost(st.Callee)
		}
		return cost
	case *fortran.PrintStmt:
		cost := p.CallOverhead
		for _, it := range st.Items {
			cost += e.exprCost(it)
		}
		return cost
	case *fortran.ReadStmt:
		return p.CallOverhead
	default:
		return p.ArithCost
	}
}

// doallTime is one execution of a loop of trip iterations of body cost
// each, run parallel: the startup, then each processor's chunk.
func (e *Estimator) doallTime(trip, body float64) float64 {
	chunk := trip / float64(e.Params.Procs)
	if chunk < 1 {
		chunk = 1
	}
	return e.Params.ParallelStartup + chunk*(body+e.Params.LoopOverhead)
}

// UnitCost estimates the cost of one invocation of a unit, memoized;
// recursive call chains fall back to the call overhead alone. The cost
// reads only loop structure and trip counts, so it solves constants
// alone — always under conservative call effects, whatever the
// session's analysis mode, so that a unit's cost depends on nothing but
// the program text.
func (e *Estimator) UnitCost(u *fortran.Unit) float64 {
	if c, ok := e.unitCost[u]; ok {
		return c
	}
	e.unitCost[u] = 0 // cycle guard
	df := dataflow.AnalyzeConstants(u, nil)
	c := e.bodyCost(df, u.Body)
	e.unitCost[u] = c
	return c
}

// Invalidate drops the memoized per-call cost for u so the next
// UnitCost recomputes it from the current AST. Callers editing a unit
// must invalidate it (and its transitive callers, whose memoized costs
// embed u's) or call-site costs go stale.
func (e *Estimator) Invalidate(u *fortran.Unit) {
	delete(e.unitCost, u)
}

func (e *Estimator) exprCost(x fortran.Expr) float64 {
	p := e.Params
	switch v := x.(type) {
	case nil:
		return 0
	case *fortran.IntLit, *fortran.RealLit, *fortran.LogLit, *fortran.StrLit:
		return 0
	case *fortran.VarRef:
		return e.refCost(v)
	case *fortran.FuncCall:
		cost := 0.0
		for _, a := range v.Args {
			cost += e.exprCost(a)
		}
		if v.Callee != nil {
			return cost + p.CallOverhead + e.UnitCost(v.Callee)
		}
		return cost + p.IntrinsicCost
	case *fortran.Unary:
		return p.ArithCost + e.exprCost(v.X)
	case *fortran.Binary:
		op := p.ArithCost
		if v.Op == fortran.TokPower || v.Op == fortran.TokSlash {
			op = 4 * p.ArithCost
		}
		return op + e.exprCost(v.X) + e.exprCost(v.Y)
	}
	return p.ArithCost
}

func (e *Estimator) refCost(v *fortran.VarRef) float64 {
	if len(v.Subs) == 0 {
		return e.Params.ArithCost / 2
	}
	cost := e.Params.MemCost
	for _, s := range v.Subs {
		cost += e.exprCost(s)
	}
	return cost
}

// ProcedureRank orders every unit in the file by whole-unit cost,
// descending — the call-graph-level navigation view.
func (e *Estimator) ProcedureRank() []struct {
	Unit *fortran.Unit
	Cost float64
} {
	type row = struct {
		Unit *fortran.Unit
		Cost float64
	}
	var rows []row
	for _, u := range e.file.Units {
		rows = append(rows, row{u, e.UnitCost(u)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Cost > rows[j].Cost })
	return rows
}

// Report renders the unit's estimate as the navigation pane text.
func (out *UnitEstimate) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "performance estimate for %s (total %.0f units)\n", out.Unit.Name, out.Total)
	for i, le := range out.Loops {
		fmt.Fprintf(&b, "%2d. %s\n", i+1, le)
	}
	// The report is kept (the server caches one per unit): return it
	// without the builder's spare capacity.
	return strings.Clone(b.String())
}
