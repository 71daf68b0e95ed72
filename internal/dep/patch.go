package dep

import (
	"parascope/internal/cfg"
	"parascope/internal/dataflow"
	"parascope/internal/expr"
	"parascope/internal/fortran"
)

// Patch returns the dependence graph for df's unit after statement old
// was replaced 1:1 by new: every edge of prev not incident to the
// edited statement is reused, and only the reference pairs involving
// the new statement are retested. df must already describe the new
// statement (dataflow.PatchStmt) — in particular its CFG and loop tree
// are the same objects prev's edges point into, so reused Loop
// pointers stay valid. Control-dependence edges ending at the edited
// statement are rewritten in place rather than recomputed: a simple
// statement is never a branch source, and the CFG shape is unchanged.
//
// IDs are reassigned densely (reused edges first, in their previous
// relative order, then the fresh ones), so the numbering differs from
// a from-scratch run even though the edge set is identical. Stats
// accumulate onto prev's counts: they describe the work done across
// the session's edits, not a single run. prev itself is consumed: its
// edges are renumbered or marked dead in place, so it must not be used
// afterwards.
func Patch(prev *Graph, df *dataflow.Analysis, assertions *expr.Env, summ Summaries, opts Options, old, new fortran.Stmt) *Graph {
	a := &Analyzer{DF: df, Assertions: assertions, Summ: summ, Opts: opts}
	return a.patch(prev, old, new)
}

func (a *Analyzer) patch(prev *Graph, old, new fortran.Stmt) *Graph {
	g := a.newGraph()
	g.Stats = prev.Stats.clone()
	g.Deps = make([]*Dependence, 0, len(prev.Deps))
	for _, d := range prev.Deps {
		if d.Class == ClassControl {
			if d.Src == old {
				d.Src = new
			}
			if d.Dst == old {
				d.Dst = new
			}
		} else if d.Src == old || d.Dst == old {
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
	// Retest pairs involving the edited statement with the same
	// collection order and skip rules as the full run, so the emitted
	// edges (direction vectors, loop-independent orientation) match.
	// Only the symbols the new statement references can pair with it.
	want := map[*fortran.Symbol]bool{}
	for _, ac := range a.DF.Accesses(new) {
		want[ac.Sym] = true
	}
	symOrder, bySym := a.collectRefs(want)
	t := tester{a: a, g: g}
	for _, sym := range symOrder {
		t.testSym(sym, bySym[sym], new)
	}
	a.finalize(g, reused)
	return g
}
