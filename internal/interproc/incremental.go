package interproc

import "parascope/internal/fortran"

// Equal reports whether two summaries describe the same caller-visible
// effects: the same Mod/Ref/UpRef/Kill/KillArrays sets, the same array
// sections, and the same conservatism. killLoop is an internal detail
// already reflected in UpRef and is ignored. Symbol keys are compared
// by pointer, which is right as long as both summaries were computed
// against the same symbol table (true for successive analyses of one
// session's file: edits resolve against the existing table).
func (s *Summary) Equal(o *Summary) bool {
	if s == nil || o == nil {
		return s == o
	}
	if s.Conservative != o.Conservative {
		return false
	}
	if !sameSet(s.Mod, o.Mod) || !sameSet(s.Ref, o.Ref) ||
		!sameSet(s.UpRef, o.UpRef) || !sameSet(s.Kill, o.Kill) ||
		!sameSet(s.KillArrays, o.KillArrays) {
		return false
	}
	if len(s.Sections) != len(o.Sections) {
		return false
	}
	for sym, a := range s.Sections {
		b, ok := o.Sections[sym]
		if !ok || len(a) != len(b) {
			return false
		}
		for i := range a {
			if !sectionEqual(a[i], b[i]) {
				return false
			}
		}
	}
	return true
}

func sectionEqual(a, b Section) bool {
	if a.Write != b.Write || len(a.Dims) != len(b.Dims) {
		return false
	}
	for i := range a.Dims {
		da, db := a.Dims[i], b.Dims[i]
		if da.Known != db.Known {
			return false
		}
		if da.Known && (!da.Lo.Equal(db.Lo) || !da.Hi.Equal(db.Hi)) {
			return false
		}
	}
	return true
}

// Resummarize recomputes u's summary against the program's existing
// callee summaries without mutating p. It is only meaningful while u's
// call sites are unchanged from when p was built (otherwise the stored
// call graph no longer describes u and the caller must rebuild the
// whole program).
func (p *Program) Resummarize(u *fortran.Unit) *Summary {
	s, _ := p.summarize(u)
	return s
}

// UpdateProgram rebuilds the interprocedural results for prev.File
// after the units in changed were edited. Units whose own AST is
// untouched, that prev had a caller for, whose recursion status is
// stable, and whose direct callee summaries carried over unchanged reuse
// their previous summary wholesale. Recomputed summaries that compare Equal to the previous
// one keep the previous *pointer*, so "did anything visible change?"
// propagates up the call graph as cheap pointer identity — an edit
// deep in a leaf that doesn't alter its visible effects leaves every
// other unit's summary object untouched.
func UpdateProgram(prev *Program, changed map[*fortran.Unit]bool) *Program {
	p := &Program{
		File:         prev.File,
		Graph:        BuildCallGraph(prev.File),
		Summaries:    map[*fortran.Unit]*Summary{},
		ConstFormals: map[*fortran.Unit]map[*fortran.Symbol]int64{},
	}
	for _, u := range p.Graph.BottomUp {
		old := prev.Summaries[u]
		if u.Kind == fortran.UnitProgram {
			// Nothing can call a main program, so nothing reads its
			// summary (CallEffects refuses one by name): an edit of main
			// pays no data-flow solve, kill and section analysis for it.
			p.Summaries[u] = old
			continue
		}
		// A unit nothing called in prev may have been edited since its
		// summary was computed: nobody read it, so no edit compared it.
		if old != nil && !changed[u] && len(prev.Graph.Callers[u]) > 0 &&
			p.Graph.Recursive[u] == prev.Graph.Recursive[u] &&
			calleeSummariesCarried(p, prev, u) {
			p.Summaries[u] = old
			continue
		}
		fresh, _ := p.summarize(u)
		if fresh.Equal(old) {
			fresh = old
		}
		p.Summaries[u] = fresh
	}
	p.propagateConstFormals()
	return p
}

func calleeSummariesCarried(p, prev *Program, u *fortran.Unit) bool {
	for _, site := range p.Graph.Calls[u] {
		if p.Summaries[site.Callee] != prev.Summaries[site.Callee] {
			return false
		}
	}
	return true
}

// ConstFormalsEqual reports whether u's propagated constant formals
// agree between two programs.
func ConstFormalsEqual(a, b *Program, u *fortran.Unit) bool {
	ma, mb := a.ConstFormals[u], b.ConstFormals[u]
	if len(ma) != len(mb) {
		return false
	}
	for k, v := range ma {
		if w, ok := mb[k]; !ok || w != v {
			return false
		}
	}
	return true
}
