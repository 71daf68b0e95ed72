// Package interproc implements ParaScope's interprocedural analyses:
// the call graph, flow-insensitive Mod/Ref side effects, flow-
// sensitive scalar Kill, interprocedural constants, and bounded
// regular section analysis of array side effects — the capabilities
// the paper's evaluation (Table 3) identifies as decisive for
// parallelizing loops containing procedure calls.
package interproc

import (
	"fmt"
	"strings"

	"parascope/internal/fortran"
)

// CallSite is one call from a statement in Caller to Callee. For
// function invocations, Call is nil and Fn holds the call expression.
type CallSite struct {
	Caller *fortran.Unit
	Stmt   fortran.Stmt
	Call   *fortran.CallStmt
	Fn     *fortran.FuncCall
	Callee *fortran.Unit
}

// Args returns the actual argument expressions.
func (cs *CallSite) Args() []fortran.Expr {
	if cs.Call != nil {
		return cs.Call.Args
	}
	return cs.Fn.Args
}

// CallGraph records who calls whom across the file.
type CallGraph struct {
	File  *fortran.File
	Sites []*CallSite
	// Calls lists the sites within each unit; Callers the sites
	// invoking it.
	Calls   map[*fortran.Unit][]*CallSite
	Callers map[*fortran.Unit][]*CallSite
	// BottomUp orders units callees-first; units on recursion cycles
	// are listed in Recursive.
	BottomUp  []*fortran.Unit
	Recursive map[*fortran.Unit]bool

	// callers indexes the unit of every resolved call statement the
	// file held when the graph was built.
	callers map[*fortran.CallStmt]*fortran.Unit
}

// BuildCallGraph constructs the call graph of f.
func BuildCallGraph(f *fortran.File) *CallGraph {
	g := &CallGraph{
		File:      f,
		Calls:     map[*fortran.Unit][]*CallSite{},
		Callers:   map[*fortran.Unit][]*CallSite{},
		Recursive: map[*fortran.Unit]bool{},
		callers:   map[*fortran.CallStmt]*fortran.Unit{},
	}
	for _, u := range f.Units {
		fortran.WalkStmts(u.Body, func(s fortran.Stmt) bool {
			if cs, ok := s.(*fortran.CallStmt); ok && cs.Callee != nil {
				site := &CallSite{Caller: u, Stmt: s, Call: cs, Callee: cs.Callee}
				g.addSite(site)
			}
			fortran.WalkExprs(s, func(e fortran.Expr) {
				if fc, ok := e.(*fortran.FuncCall); ok && fc.Callee != nil {
					site := &CallSite{Caller: u, Stmt: s, Fn: fc, Callee: fc.Callee}
					g.addSite(site)
				}
			})
			return true
		})
	}
	g.order()
	return g
}

func (g *CallGraph) addSite(site *CallSite) {
	g.Sites = append(g.Sites, site)
	if site.Call != nil {
		g.callers[site.Call] = site.Caller
	}
	g.Calls[site.Caller] = append(g.Calls[site.Caller], site)
	g.Callers[site.Callee] = append(g.Callers[site.Callee], site)
}

// order computes a bottom-up (callees first) ordering and flags
// recursive units.
func (g *CallGraph) order() {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	state := map[*fortran.Unit]int{}
	var visit func(u *fortran.Unit)
	visit = func(u *fortran.Unit) {
		state[u] = grey
		for _, site := range g.Calls[u] {
			switch state[site.Callee] {
			case white:
				visit(site.Callee)
			case grey:
				// Back edge: recursion. Mark everything on the cycle
				// conservatively (the whole grey set suffices).
				for v, st := range state {
					if st == grey {
						g.Recursive[v] = true
					}
				}
			}
		}
		state[u] = black
		g.BottomUp = append(g.BottomUp, u)
	}
	for _, u := range g.File.Units {
		if state[u] == white {
			visit(u)
		}
	}
}

// callerOf returns the unit containing a resolved call statement: from
// the index when the graph was built with the statement in the file,
// and by searching the file for one an edit brought in since (a unit
// reanalyzed against this graph because its call surface reads the
// same).
func (g *CallGraph) callerOf(call *fortran.CallStmt) *fortran.Unit {
	if u, ok := g.callers[call]; ok {
		return u
	}
	for _, u := range g.File.Units {
		found := false
		fortran.WalkStmts(u.Body, func(x fortran.Stmt) bool {
			if x == fortran.Stmt(call) {
				found = true
			}
			return !found
		})
		if found {
			return u
		}
	}
	return nil
}

// String renders the call graph as the textual display Ped used.
func (g *CallGraph) String() string {
	var b strings.Builder
	for _, u := range g.File.Units {
		fmt.Fprintf(&b, "%s %s", u.Kind, u.Name)
		if g.Recursive[u] {
			b.WriteString(" (recursive)")
		}
		b.WriteByte('\n')
		for _, site := range g.Calls[u] {
			fmt.Fprintf(&b, "  calls %s (line %d)\n", site.Callee.Name, site.Stmt.Line())
		}
	}
	return b.String()
}
