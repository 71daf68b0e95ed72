package dataflow

import (
	"parascope/internal/cfg"
	"parascope/internal/fortran"
)

// SimpleStmt reports whether s is a straight-line statement: one CFG
// node that falls through to the next statement and is never a branch.
// Replacing one by another leaves the CFG, the loop tree and every
// control dependence as they are.
func SimpleStmt(s fortran.Stmt) bool {
	switch s.(type) {
	case *fortran.AssignStmt, *fortran.PrintStmt, *fortran.ReadStmt, *fortran.ContinueStmt, *fortran.CallStmt:
		return true
	}
	return false
}

// PatchStmt brings the analysis up to date in place after statement old
// was replaced by new at the same position in the unit body, with
// calls resolving through eff from now on; calls lists the other
// statements of the unit whose call effects are not what they were
// under the previous Eff. The CFG and the loop tree stay the objects
// they were, so whoever holds nodes, loops or statements of the unit
// keeps holding the right ones.
//
// What a client may have derived from the facts of the statements left
// alone must survive, so the patch succeeds only when those facts do. It
// returns false, with the analysis untouched, when
//
//   - either statement is not simple (SimpleStmt): the CFG would move;
//   - a patched statement writes another set of scalars than it did:
//     "is this scalar assigned anywhere in the unit, or in this loop" is
//     read at other statements (loop invariance of their subscripts);
//   - the constants known at entry to any statement left alone move
//     (checked by propagating again whenever a patched statement writes
//     an integer scalar, before or after).
//
// Reaching definitions and liveness may move anywhere in the unit and
// are solved again when the written (symbol, partial) multiset of a
// patched statement changed; otherwise the reaching bitsets are
// provably the same, def-use chains are read off them on demand, and
// liveness is solved again only if a set of symbols read changed.
func (a *Analysis) PatchStmt(old, new fortran.Stmt, eff SideEffects, calls []fortran.Stmt) bool {
	if !SimpleStmt(old) || !SimpleStmt(new) {
		return false
	}
	edited := a.G.NodeFor(old)
	if edited == nil {
		return false
	}
	nodes := []*cfg.Node{edited}
	for _, c := range calls {
		n := a.G.NodeFor(c)
		if n == nil || n == edited {
			return false
		}
		nodes = append(nodes, n)
	}
	before := make([][]Access, len(nodes))
	after := make([][]Access, len(nodes))
	redefine, reconst, relive := false, false, false
	for i, n := range nodes {
		s := n.Stmt
		if n == edited {
			s = new
		}
		before[i], after[i] = a.accesses[n.Index], StmtAccesses(a.Unit, s, eff)
		if !sameScalarsWritten(before[i], after[i]) {
			return false
		}
		redefine = redefine || !writesMatch(before[i], after[i])
		reconst = reconst || writesIntScalar(before[i]) || writesIntScalar(after[i])
		relive = relive || !readSymsEqual(before[i], after[i])
	}

	prevEff := a.Eff
	a.Eff = eff
	a.G.Replace(old, new)
	for i, n := range nodes {
		a.accesses[n.Index] = after[i]
	}
	if reconst {
		was := a.consts
		a.propagateConstants()
		if constsMovedElsewhere(a.G, was, a.consts, nodes) {
			a.Eff, a.consts = prevEff, was
			a.G.Replace(new, old)
			for i, n := range nodes {
				a.accesses[n.Index] = before[i]
			}
			return false
		}
	}
	// Committed.
	a.Tree.Reindex(old, new)
	if redefine {
		a.buildDefs()
		a.solveReaching()
		a.solveLiveness()
		return true
	}
	for i, n := range nodes {
		a.indexSymbols(after[i])
		a.repointDefs(n, after[i])
	}
	if relive {
		a.solveLiveness()
	}
	return true
}

// repointDefs hands the node's Def objects the matching write accesses
// of acc, which writes what the node's accesses wrote. IDs and gen/kill
// are untouched, so reachIn/reachOut — and the def-use chains read off
// them — stay valid.
func (a *Analysis) repointDefs(n *cfg.Node, acc []Access) {
	defs := a.nodeDefs[n.Index]
	taken := make([]bool, len(defs))
	for _, ac := range acc {
		if !ac.Write {
			continue
		}
		for j, d := range defs {
			if !taken[j] && d.Sym == ac.Sym && d.Partial == ac.Partial {
				d.Access, taken[j] = ac, true
				break
			}
		}
	}
}

// constsMovedElsewhere reports whether two constant tables differ at
// entry to a statement other than those of the nodes given.
func constsMovedElsewhere(g *cfg.Graph, was, now []Consts, except []*cfg.Node) bool {
	skip := map[int]bool{}
	for _, n := range except {
		skip[n.Index] = true
	}
	for _, n := range g.Nodes {
		if n.Stmt != nil && !skip[n.Index] && !constStateEqual(was[n.Index], now[n.Index]) {
			return true
		}
	}
	return false
}

type writeKey struct {
	sym     *fortran.Symbol
	partial bool
}

func writesMatch(a, b []Access) bool {
	count := map[writeKey]int{}
	na, nb := 0, 0
	for _, ac := range a {
		if ac.Write {
			count[writeKey{ac.Sym, ac.Partial}]++
			na++
		}
	}
	for _, ac := range b {
		if ac.Write {
			k := writeKey{ac.Sym, ac.Partial}
			if count[k] == 0 {
				return false
			}
			count[k]--
			nb++
		}
	}
	return na == nb
}

func writesIntScalar(acc []Access) bool {
	for _, ac := range acc {
		if ac.Write && ac.Sym.Kind == fortran.SymScalar && ac.Sym.Type == fortran.TypeInteger {
			return true
		}
	}
	return false
}

// symSet collects the symbols of the accesses keep accepts.
func symSet(acc []Access, keep func(Access) bool) map[*fortran.Symbol]bool {
	out := map[*fortran.Symbol]bool{}
	for _, ac := range acc {
		if keep(ac) {
			out[ac.Sym] = true
		}
	}
	return out
}

func sameSyms(a, b map[*fortran.Symbol]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for s := range a {
		if !b[s] {
			return false
		}
	}
	return true
}

func sameScalarsWritten(a, b []Access) bool {
	scalarWrite := func(ac Access) bool { return ac.Write && ac.Sym.Kind == fortran.SymScalar }
	return sameSyms(symSet(a, scalarWrite), symSet(b, scalarWrite))
}

func readSymsEqual(a, b []Access) bool {
	read := func(ac Access) bool { return !ac.Write }
	return sameSyms(symSet(a, read), symSet(b, read))
}
