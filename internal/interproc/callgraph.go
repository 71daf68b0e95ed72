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
	// BottomUp orders units callees-first, the members of one call
	// cycle together. Cycle numbers each unit's strongly connected
	// component: two units have equal numbers exactly when each calls
	// the other, directly or not. Recursive lists the units on a call
	// cycle: those sharing their component, and those that call
	// themselves.
	BottomUp  []*fortran.Unit
	Cycle     map[*fortran.Unit]int
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
		Cycle:     map[*fortran.Unit]int{},
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

// order finds the call graph's strongly connected components by
// Tarjan's algorithm (SIAM J. Comput. 1, 1972), which emits each one
// after every component it calls into: BottomUp, callees first, and
// Cycle and Recursive from the components. On a graph with no cycle
// BottomUp is the depth-first post-order from the units in file order.
func (g *CallGraph) order() {
	index := map[*fortran.Unit]int{} // visit number from 1; 0 unvisited
	low := map[*fortran.Unit]int{}
	var stack []*fortran.Unit // visited units with no component yet
	var visit func(u *fortran.Unit)
	visit = func(u *fortran.Unit) {
		index[u] = len(index) + 1
		low[u] = index[u]
		stack = append(stack, u)
		for _, site := range g.Calls[u] {
			v := site.Callee
			if index[v] == 0 {
				visit(v)
			}
			if g.Cycle[v] == 0 {
				low[u] = min(low[u], low[v])
			}
			if v == u {
				g.Recursive[u] = true
			}
		}
		if low[u] < index[u] {
			return
		}
		// u roots a component: it and every unit above it on the stack.
		n := len(g.BottomUp) + 1 // one per component, never 0
		for {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g.Cycle[v] = n
			g.BottomUp = append(g.BottomUp, v)
			if v == u {
				break
			}
			g.Recursive[u], g.Recursive[v] = true, true
		}
	}
	for _, u := range g.File.Units {
		if index[u] == 0 {
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
