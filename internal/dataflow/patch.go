package dataflow

import "parascope/internal/fortran"

// SimpleStmt reports whether s is a straight-line statement with no
// control flow and no call side effects — the envelope inside which a
// 1:1 replacement cannot change the CFG or the call surface.
func SimpleStmt(s fortran.Stmt) bool {
	switch s.(type) {
	case *fortran.AssignStmt, *fortran.PrintStmt, *fortran.ReadStmt, *fortran.ContinueStmt:
		return !hasUserCall(s)
	}
	return false
}

func hasUserCall(s fortran.Stmt) bool {
	found := false
	fortran.WalkExprs(s, func(e fortran.Expr) {
		if fc, ok := e.(*fortran.FuncCall); ok && fc.Callee != nil {
			found = true
		}
	})
	return found
}

// PatchStmt updates the analysis in place after old was replaced 1:1
// by new at the same position in the unit body (same CFG node, same
// statement ID — the caller renumbers before patching). It returns
// false, leaving the analysis untouched, when the replacement falls
// outside the patchable envelope:
//
//   - both statements must be simple (SimpleStmt), so the CFG shape is
//     unchanged;
//   - the write accesses must match as a (symbol, partial) multiset,
//     so reaching-definition gen/kill sets — and the whole bitset
//     solution — are unchanged;
//   - no integer scalar may be written, so the constant-propagation
//     lattice is unchanged.
//
// Reads may change freely: def-use chains are read off the unchanged
// reaching solution on demand, and liveness is re-solved only when the
// set of symbols read actually differs.
func (a *Analysis) PatchStmt(old, new fortran.Stmt) bool {
	if !SimpleStmt(old) || !SimpleStmt(new) {
		return false
	}
	node := a.G.NodeFor(new)
	if node == nil || node.Stmt != old {
		return false
	}
	oldAcc := a.accesses[node.Index]
	newAcc := StmtAccesses(a.Unit, new, a.Eff)
	if !writesMatch(oldAcc, newAcc) {
		return false
	}
	if writesIntScalar(newAcc) {
		return false
	}

	node.Stmt = new
	a.accesses[node.Index] = newAcc
	a.indexSymbols(newAcc)
	a.Tree.Reindex(old, new)

	// Re-point the node's Def objects at the matching new write
	// accesses. IDs and gen/kill are untouched, so reachIn/reachOut —
	// and the def-use chains read off them — stay valid.
	nodeDefs := append([]*Def(nil), a.nodeDefs[node.Index]...)
	i := 0
	for _, ac := range newAcc {
		if !ac.Write {
			continue
		}
		for j := i; j < len(nodeDefs); j++ {
			if nodeDefs[j].Sym == ac.Sym && nodeDefs[j].Partial == ac.Partial {
				nodeDefs[i], nodeDefs[j] = nodeDefs[j], nodeDefs[i]
				break
			}
		}
		nodeDefs[i].Access = ac
		i++
	}

	if !readSymsEqual(oldAcc, newAcc) {
		a.solveLiveness()
	}
	return true
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

func readSymsEqual(a, b []Access) bool {
	ra := map[*fortran.Symbol]bool{}
	for _, ac := range a {
		if !ac.Write {
			ra[ac.Sym] = true
		}
	}
	rb := map[*fortran.Symbol]bool{}
	for _, ac := range b {
		if !ac.Write {
			rb[ac.Sym] = true
		}
	}
	if len(ra) != len(rb) {
		return false
	}
	for s := range ra {
		if !rb[s] {
			return false
		}
	}
	return true
}
