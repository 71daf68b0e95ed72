package dep

import (
	"parascope/internal/cfg"
	"parascope/internal/dataflow"
	"parascope/internal/expr"
	"parascope/internal/fortran"
)

// Patch returns the dependence graph for df's unit after statement old
// was replaced 1:1 by new and the accesses of the call statements in
// calls moved with their callees' summaries: every edge of prev not
// incident to one of those statements is reused, and only the reference
// pairs with a reference in new or in one of calls (and, as in Analyze,
// both in one outermost loop) are retested, against summ as it is now.
// df must already describe the unit as it is (dataflow.PatchStmt) — in
// particular its CFG and loop tree are the same objects prev's edges
// point into, so reused Loop pointers stay valid — and the facts of every statement left alone must be what they
// were when prev was built, which is what PatchStmt vouches for.
// Control-dependence edges ending at the edited statement are rewritten
// in place rather than recomputed: a simple statement is never a branch
// source, and the CFG shape is unchanged.
//
// IDs are reassigned densely (reused edges first, in their previous
// relative order, then the fresh ones), so the numbering differs from
// a from-scratch run even though the edge set is identical. Stats
// accumulate onto prev's counts: they describe the work done across
// the session's edits, not a single run; Patches counts them. prev
// itself is consumed: its edges are renumbered or marked dead in place,
// so it must not be used afterwards.
func Patch(prev *Graph, df *dataflow.Analysis, assertions *expr.Env, summ Summaries, opts Options,
	old, new fortran.Stmt, calls []fortran.Stmt) *Graph {
	a := &Analyzer{DF: df, Assertions: assertions, Summ: summ, Opts: opts}
	return a.patch(prev, old, new, calls)
}

func (a *Analyzer) patch(prev *Graph, old, new fortran.Stmt, calls []fortran.Stmt) *Graph {
	g := a.newGraph()
	g.Stats = prev.Stats.clone()
	g.Patches = prev.Patches + 1
	g.Deps = make([]*Dependence, 0, len(prev.Deps))
	// The data dependences of old and of calls are tested again: retest
	// is that set as the unit has it now, and an edge of prev with an end
	// in it is dead. Every edge and every collected reference of the unit
	// is asked, and calls is nearly always empty: a list, not a map.
	retest := append([]fortran.Stmt{new}, calls...)
	for _, d := range prev.Deps {
		if d.Class == ClassControl {
			if d.Src == old {
				d.Src = new
			}
			if d.Dst == old {
				d.Dst = new
			}
		} else if d.Src == old || d.Dst == old || calls != nil && (among(calls, d.Src) || among(calls, d.Dst)) {
			d.ID = 0 // killed: dropped from the per-loop index below
			continue
		}
		g.Deps = append(g.Deps, d)
	}
	// The reused edges keep their place in the per-loop index: the new
	// statement sits in the same loops as the old one.
	g.byLoop = make(map[*cfg.Loop][]*Dependence, len(prev.byLoop))
	for l, list := range prev.byLoop {
		kept := make([]*Dependence, 0, len(list))
		for _, d := range list {
			if d.ID != 0 {
				kept = append(kept, d)
			}
		}
		g.byLoop[l] = kept
	}
	reused := len(g.Deps)
	// Retest the pairs involving those statements with the same
	// collection order and skip rules as the full run, so the emitted
	// edges (direction vectors, loop-independent orientation) match.
	// Only the symbols they reference can pair with them.
	want := map[*fortran.Symbol]bool{}
	for _, s := range retest {
		for _, ac := range a.DF.Accesses(s) {
			want[ac.Sym] = true
		}
	}
	symOrder, bySym := a.collectRefs(want, nil)
	t := tester{a: a, g: g}
	for _, sym := range symOrder {
		t.testSym(sym, bySym[sym], retest)
	}
	a.finalize(g, reused)
	return g
}

// among reports whether s is one of stmts.
func among(stmts []fortran.Stmt, s fortran.Stmt) bool {
	for _, x := range stmts {
		if x == s {
			return true
		}
	}
	return false
}
