package xform

import (
	"fmt"

	"parascope/internal/dataflow"
	"parascope/internal/dep"
	"parascope/internal/fortran"
)

// ---------------------------------------------------------------------------
// Loop distribution

// Distribute splits a loop into one loop per strongly-connected
// component of its body's dependence graph (in topological order),
// exposing partially parallel loops.
type Distribute struct {
	Do *fortran.DoStmt
}

// Name implements Transformation.
func (Distribute) Name() string { return "distribute" }

// components groups the loop's top-level statements into SCCs of the
// dependence relation, returned in topological (executable) order.
func (t Distribute) components(c *Context) [][]fortran.Stmt {
	body := t.Do.Body
	n := len(body)
	// Map every nested statement to its top-level group index.
	groupOf := map[int]int{}
	for i, s := range body {
		groupOf[s.ID()] = i
		fortran.WalkStmts([]fortran.Stmt{s}, func(x fortran.Stmt) bool {
			groupOf[x.ID()] = i
			return true
		})
	}
	// Dependence edges between groups (any class, any level within
	// this loop, both directions of carried deps matter for cycles).
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	l := c.Loop(t.Do)
	for _, d := range activeDeps(c.Deps.LoopDeps(l)) {
		si, okS := groupOf[d.Src.ID()]
		di, okD := groupOf[d.Dst.ID()]
		if !okS || !okD || si == di {
			continue
		}
		adj[si][di] = true
	}
	// Also respect control dependences between groups.
	for _, d := range c.Deps.Deps {
		if d.Class != dep.ClassControl {
			continue
		}
		si, okS := groupOf[d.Src.ID()]
		di, okD := groupOf[d.Dst.ID()]
		if okS && okD && si != di {
			adj[si][di] = true
		}
	}
	// Tarjan-lite SCC via iterative Kosaraju on the tiny graph.
	sccID, count := scc(adj)
	// Group statements by SCC, preserving original order inside each;
	// ascending component id is a topological order of the components.
	groups := make([][]fortran.Stmt, count)
	for i, s := range body {
		groups[sccID[i]] = append(groups[sccID[i]], s)
	}
	return groups
}

// scc computes strongly connected components of a small adjacency
// matrix and how many there are, numbering components so that a
// topological order of the condensation is by increasing component id.
func scc(adj [][]bool) ([]int, int) {
	n := len(adj)
	visited := make([]bool, n)
	var order []int
	var dfs1 func(v int)
	dfs1 = func(v int) {
		visited[v] = true
		for w := 0; w < n; w++ {
			if adj[v][w] && !visited[w] {
				dfs1(w)
			}
		}
		order = append(order, v)
	}
	for v := 0; v < n; v++ {
		if !visited[v] {
			dfs1(v)
		}
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var dfs2 func(v, id int)
	dfs2 = func(v, id int) {
		comp[v] = id
		for w := 0; w < n; w++ {
			if adj[w][v] && comp[w] == -1 {
				dfs2(w, id)
			}
		}
	}
	id := 0
	for i := len(order) - 1; i >= 0; i-- {
		if comp[order[i]] == -1 {
			dfs2(order[i], id)
			id++
		}
	}
	// Kosaraju's second pass on the reversed graph yields components
	// in topological order of the original graph.
	return comp, id
}

// Check implements Transformation.
func (t Distribute) Check(c *Context) Verdict {
	var v Verdict
	if staleLoop(c, t.Do, &v) {
		return v
	}
	if len(t.Do.Body) < 2 {
		v.note("loop body has a single statement")
		return v
	}
	if hasExits(t.Do.Body) {
		v.note("body contains control-flow exits")
		return v
	}
	groups := t.components(c)
	if len(groups) < 2 {
		v.note("dependences form a single recurrence: nothing to distribute")
		return v
	}
	v.Applicable = true
	v.Safe = true // SCC partition in topological order preserves all deps
	v.Profitable = true
	v.note("distributes into %d loops", len(groups))
	return v
}

// Apply implements Transformation.
func (t Distribute) Apply(c *Context) error {
	groups := t.components(c)
	if len(groups) < 2 {
		return fmt.Errorf("distribute: single component")
	}
	var repl []fortran.Stmt
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		repl = append(repl, loopLike(t.Do, g))
	}
	if !ReplaceStmt(c.Unit, t.Do, repl...) {
		return fmt.Errorf("distribute: loop not found in unit")
	}
	return nil
}

// ---------------------------------------------------------------------------
// Loop fusion

// Fuse merges two adjacent loops with identical bounds into one,
// increasing granularity.
type Fuse struct {
	First  *fortran.DoStmt
	Second *fortran.DoStmt
}

// Name implements Transformation.
func (Fuse) Name() string { return "fuse" }

// buildFused constructs the fused loop (on fresh clones when probe is
// true, in place otherwise), returning the loop and how many of its
// body statements came from the first input loop.
func (t Fuse) buildFused(probe bool) (*fortran.DoStmt, int) {
	b1 := t.First.Body
	b2 := t.Second.Body
	if probe {
		b1 = fortran.CloneBody(b1)
		b2 = fortran.CloneBody(b2)
	}
	// Rename the second loop's variable to the first's.
	if t.Second.Var != t.First.Var {
		repl := &fortran.VarRef{Sym: t.First.Var, Name: t.First.Var.Name}
		for _, s := range b2 {
			fortran.SubstVarStmt(s, t.Second.Var, repl)
		}
	}
	return loopLike(t.First, append(append([]fortran.Stmt{}, b1...), b2...)), len(b1)
}

// Check implements Transformation.
func (t Fuse) Check(c *Context) Verdict {
	var v Verdict
	if body, _ := adjacent(c.Unit, t.First, t.Second); body == nil {
		v.note("loops are not adjacent")
		return v
	}
	if !sameBounds(c.Unit, t.First, t.Second) {
		v.note("loop bounds differ")
		return v
	}
	if hasExits(t.First.Body) || hasExits(t.Second.Body) {
		v.note("body contains control-flow exits")
		return v
	}
	v.Applicable = true
	// Probe: fuse clones, re-analyze, and look for a
	// fusion-preventing dependence — one flowing from a second-loop
	// statement back to a first-loop statement carried by the fused
	// loop.
	fused, n1 := t.buildFused(true)
	tmpUnit := &fortran.Unit{
		Kind: c.Unit.Kind, Name: c.Unit.Name, Syms: c.Unit.Syms,
		Args: c.Unit.Args, Body: []fortran.Stmt{fused},
	}
	tmpFile := &fortran.File{Units: []*fortran.Unit{tmpUnit}}
	tmpFile.RenumberStmts()
	set1 := map[int]bool{}
	set2 := map[int]bool{}
	fortran.WalkStmts(fused.Body[:n1], func(s fortran.Stmt) bool { set1[s.ID()] = true; return true })
	fortran.WalkStmts(fused.Body[n1:], func(s fortran.Stmt) bool { set2[s.ID()] = true; return true })
	df := dataflow.Analyze(tmpUnit, c.Effects)
	g := dep.Analyze(df, c.Assertions, c.Summaries, c.Opts)
	l := df.Tree.LoopOf(fused)
	v.Safe = true
	for _, d := range activeDeps(g.CarriedAt(l)) {
		if set2[d.Src.ID()] && set1[d.Dst.ID()] {
			v.Safe = false
			v.note("fusion-preventing dependence on %s", d.Sym.Name)
		}
	}
	v.Profitable = true
	v.note("fusion increases loop granularity")
	return v
}

// Apply implements Transformation.
func (t Fuse) Apply(c *Context) error {
	body, i := adjacent(c.Unit, t.First, t.Second)
	if body == nil {
		return fmt.Errorf("fuse: loops not adjacent")
	}
	body[i], _ = t.buildFused(false)
	// Remove the second loop.
	if !ReplaceStmt(c.Unit, t.Second) {
		return fmt.Errorf("fuse: second loop not found")
	}
	return nil
}

// ---------------------------------------------------------------------------
// Statement interchange

// StmtInterchange swaps two adjacent statements within a body.
type StmtInterchange struct {
	First  fortran.Stmt
	Second fortran.Stmt
}

// Name implements Transformation.
func (StmtInterchange) Name() string { return "statement-interchange" }

// Check implements Transformation.
func (t StmtInterchange) Check(c *Context) Verdict {
	var v Verdict
	if body, _ := adjacent(c.Unit, t.First, t.Second); body == nil {
		v.note("statements are not adjacent")
		return v
	}
	v.Applicable = true
	v.Safe = true
	in := func(set fortran.Stmt, s fortran.Stmt) bool {
		found := false
		fortran.WalkStmts([]fortran.Stmt{set}, func(x fortran.Stmt) bool {
			if x == s {
				found = true
			}
			return !found
		})
		return found
	}
	// Two statements of one loop body share that loop in every pair, so
	// its list holds the edges between them; at the unit's top level no
	// pair shares a loop, and the graph has none of them: they are tested
	// now, under what the graph was.
	var deps []*dep.Dependence
	if l := c.DF.Tree.Innermost(t.First); l != nil {
		deps = c.Deps.LoopDeps(l)
	} else {
		deps = dep.Between(c.DF, c.Deps.Assertions, c.Summaries, c.Opts, t.First, t.Second)
	}
	for _, d := range activeDeps(deps) {
		if d.Carried() {
			continue // carried deps are unaffected by intra-iteration order
		}
		if (in(t.First, d.Src) && in(t.Second, d.Dst)) ||
			(in(t.Second, d.Src) && in(t.First, d.Dst)) {
			v.Safe = false
			v.note("dependence between the statements: %s", d)
		}
	}
	v.Profitable = false
	v.note("enabling transformation")
	return v
}

// Apply implements Transformation.
func (t StmtInterchange) Apply(c *Context) error {
	body, i := adjacent(c.Unit, t.First, t.Second)
	if body == nil {
		return fmt.Errorf("statement-interchange: not adjacent")
	}
	body[i], body[i+1] = body[i+1], body[i]
	return nil
}
