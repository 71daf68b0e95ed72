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
// On commit the patched accesses are swapped in. The assigned flags are
// set again when the symbols a patched statement writes changed, and
// liveness, which may move anywhere in the unit, is solved again when
// the symbols it reads, writes or wholly writes changed.
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
	reassign, reconst, relive := false, false, false
	for i, n := range nodes {
		s := n.Stmt
		if n == edited {
			s = new
		}
		before[i], after[i] = a.accesses[n.Index], StmtAccesses(a.Unit, s, eff)
		if !sameSyms(before[i], after[i], scalarWritten) {
			return false
		}
		reassign = reassign || !sameSyms(before[i], after[i], written)
		reconst = reconst || writesIntScalar(before[i]) || writesIntScalar(after[i])
		relive = relive || !sameSyms(before[i], after[i], read) || !sameSyms(before[i], after[i], whollyWritten)
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
	for i := range nodes {
		a.indexSymbols(after[i])
	}
	if reassign {
		a.markAssigned()
	}
	if relive || reassign {
		a.solveLiveness()
	}
	return true
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

func writesIntScalar(acc []Access) bool {
	for _, ac := range acc {
		if ac.Write && ac.Sym.Kind == fortran.SymScalar && ac.Sym.Type == fortran.TypeInteger {
			return true
		}
	}
	return false
}

// The access classes whose symbol sets PatchStmt compares.
func read(ac Access) bool          { return !ac.Write }
func written(ac Access) bool       { return ac.Write }
func whollyWritten(ac Access) bool { return ac.Write && !ac.Partial }
func scalarWritten(ac Access) bool { return ac.Write && ac.Sym.Kind == fortran.SymScalar }

// sameSyms reports whether the accesses of a and b that keep accepts
// name the same set of symbols.
func sameSyms(a, b []Access, keep func(Access) bool) bool {
	sa, sb := symSet(a, keep), symSet(b, keep)
	if len(sa) != len(sb) {
		return false
	}
	for s := range sa {
		if !sb[s] {
			return false
		}
	}
	return true
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
