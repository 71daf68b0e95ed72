// Package cfg builds per-procedure control-flow graphs from the
// structured Fortran AST and derives dominators, postdominators,
// control dependences and the loop-nest tree used by the dependence
// analyzer and the transformations.
package cfg

import (
	"fmt"
	"strings"

	"parascope/internal/fortran"
)

// NodeKind classifies CFG nodes.
type NodeKind int

// Node kinds.
const (
	NodeEntry NodeKind = iota
	NodeExit
	NodeStmt
)

// Node is one CFG node: a statement, or the synthetic entry/exit.
type Node struct {
	Index int
	Kind  NodeKind
	Stmt  fortran.Stmt // nil for entry/exit
	Succs []*Node
	Preds []*Node
}

func (n *Node) String() string {
	switch n.Kind {
	case NodeEntry:
		return "entry"
	case NodeExit:
		return "exit"
	}
	return fmt.Sprintf("s%d[%s]", n.Stmt.ID(), fortran.StmtText(n.Stmt))
}

// Graph is the control-flow graph of one program unit.
type Graph struct {
	Unit  *fortran.Unit
	Entry *Node
	Exit  *Node
	Nodes []*Node

	// byStmt is keyed by the statement itself: its ID is its position in
	// the file, which moves with every statement added or removed above
	// it, in this unit or another.
	byStmt map[fortran.Stmt]*Node
}

// NodeFor returns the CFG node for the statement, or nil.
func (g *Graph) NodeFor(s fortran.Stmt) *Node {
	if s == nil {
		return nil
	}
	return g.byStmt[s]
}

// Replace records that statement new took old's place in the unit body:
// old's node stands for new from now on.
func (g *Graph) Replace(old, new fortran.Stmt) {
	if n, ok := g.byStmt[old]; ok {
		delete(g.byStmt, old)
		n.Stmt = new
		g.byStmt[new] = n
	}
}

type builder struct {
	g      *Graph
	labels map[int]*Node
	gotos  []*Node // goto nodes to wire after all labels are known
}

// Build constructs the CFG for unit u.
func Build(u *fortran.Unit) *Graph {
	g := &Graph{Unit: u, byStmt: map[fortran.Stmt]*Node{}}
	b := &builder{g: g, labels: map[int]*Node{}}
	g.Entry = b.newNode(NodeEntry, nil)
	g.Exit = b.newNode(NodeExit, nil)

	// Pass 1: create a node per statement and record labels.
	fortran.WalkStmts(u.Body, func(s fortran.Stmt) bool {
		n := b.newNode(NodeStmt, s)
		g.byStmt[s] = n
		if l := fortran.StmtLabel(s); l != 0 {
			b.labels[l] = n
		}
		return true
	})

	// Pass 2: wire edges.
	ends := b.wireBlock(u.Body, []*Node{g.Entry})
	for _, e := range ends {
		b.edge(e, g.Exit)
	}
	for _, gn := range b.gotos {
		gs := gn.Stmt.(*fortran.GotoStmt)
		if tgt, ok := b.labels[gs.Target]; ok {
			b.edge(gn, tgt)
		} else {
			// Unknown label: treat as exit so analyses stay sound.
			b.edge(gn, g.Exit)
		}
	}
	// Guarantee exit reachability for infinite loops so that
	// postdominance is well defined.
	if len(g.Exit.Preds) == 0 {
		b.edge(g.Entry, g.Exit)
	}
	return g
}

func (b *builder) newNode(k NodeKind, s fortran.Stmt) *Node {
	n := &Node{Index: len(b.g.Nodes), Kind: k, Stmt: s}
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

func (b *builder) edge(from, to *Node) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// wireBlock connects the statements of body in sequence. froms are
// the dangling predecessors entering the block; the return value is
// the dangling ends leaving it.
func (b *builder) wireBlock(body []fortran.Stmt, froms []*Node) []*Node {
	cur := froms
	for _, s := range body {
		n := b.g.byStmt[s]
		for _, f := range cur {
			b.edge(f, n)
		}
		cur = b.wireStmt(s, n)
	}
	return cur
}

// wireStmt wires the interior of statement s (whose node is n) and
// returns the dangling exits.
func (b *builder) wireStmt(s fortran.Stmt, n *Node) []*Node {
	switch st := s.(type) {
	case *fortran.IfStmt:
		thenEnds := b.wireBlock(st.Then, []*Node{n})
		if len(st.Else) > 0 {
			elseEnds := b.wireBlock(st.Else, []*Node{n})
			return append(thenEnds, elseEnds...)
		}
		return append(thenEnds, n)
	case *fortran.DoStmt:
		bodyEnds := b.wireBlock(st.Body, []*Node{n})
		for _, e := range bodyEnds {
			b.edge(e, n) // back edge
		}
		return []*Node{n} // loop exit falls out of the header
	case *fortran.WhileStmt:
		bodyEnds := b.wireBlock(st.Body, []*Node{n})
		for _, e := range bodyEnds {
			b.edge(e, n)
		}
		return []*Node{n}
	case *fortran.GotoStmt:
		b.gotos = append(b.gotos, n)
		return nil // no fallthrough
	case *fortran.ReturnStmt, *fortran.StopStmt:
		b.edge(n, b.g.Exit)
		return nil
	default:
		return []*Node{n}
	}
}

// ---------------------------------------------------------------------------
// Dominators (Cooper/Harvey/Kennedy iterative algorithm)

// Dominators holds the immediate-dominator relation for a graph
// direction (forward = dominators, reverse = postdominators).
type Dominators struct {
	idom map[*Node]*Node
	root *Node
}

// IDom returns the immediate dominator of n (nil for the root).
func (d *Dominators) IDom(n *Node) *Node { return d.idom[n] }

// Dominates reports whether a dominates b (reflexive).
func (d *Dominators) Dominates(a, b *Node) bool {
	for x := b; x != nil; x = d.idom[x] {
		if x == a {
			return true
		}
		if x == d.root {
			return a == d.root
		}
	}
	return false
}

// ComputePostdominators returns the postdominator tree rooted at exit.
func (g *Graph) ComputePostdominators() *Dominators {
	return computeDom(g.Exit, func(n *Node) []*Node { return n.Succs },
		func(n *Node) []*Node { return n.Preds })
}

func computeDom(root *Node, preds, succs func(*Node) []*Node) *Dominators {
	// Reverse postorder from root following succs.
	var order []*Node
	seen := map[*Node]bool{root: true}
	var dfs func(n *Node)
	dfs = func(n *Node) {
		for _, s := range succs(n) {
			if !seen[s] {
				seen[s] = true
				dfs(s)
			}
		}
		order = append(order, n)
	}
	dfs(root)
	// order is postorder; reverse for RPO.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	rpoNum := map[*Node]int{}
	for i, n := range order {
		rpoNum[n] = i
	}
	idom := map[*Node]*Node{root: root}
	intersect := func(a, b *Node) *Node {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}
	changed := true
	for changed {
		changed = false
		for _, n := range order {
			if n == root {
				continue
			}
			var newIdom *Node
			for _, p := range preds(n) {
				if _, ok := rpoNum[p]; !ok {
					continue // unreachable predecessor
				}
				if idom[p] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != nil && idom[n] != newIdom {
				idom[n] = newIdom
				changed = true
			}
		}
	}
	idom[root] = nil
	return &Dominators{idom: idom, root: root}
}

// ---------------------------------------------------------------------------
// Control dependence (Ferrante/Ottenstein/Warren via postdominators)

// ControlDeps maps each statement node to the branch nodes it is
// control dependent on.
type ControlDeps struct {
	deps map[*Node][]*Node
}

// DepsOf returns the branches controlling n.
func (c *ControlDeps) DepsOf(n *Node) []*Node { return c.deps[n] }

// ComputeControlDeps computes control dependences for the graph.
func (g *Graph) ComputeControlDeps() *ControlDeps {
	pdom := g.ComputePostdominators()
	out := &ControlDeps{deps: map[*Node][]*Node{}}
	for _, a := range g.Nodes {
		if len(a.Succs) < 2 {
			continue
		}
		for _, b := range a.Succs {
			if pdom.Dominates(b, a) {
				continue // b postdominates a: not control dependent
			}
			// Walk up the postdominator tree from b to ipdom(a).
			stopAt := pdom.IDom(a)
			for x := b; x != nil && x != stopAt; x = pdom.IDom(x) {
				out.deps[x] = appendUnique(out.deps[x], a)
				if x == pdom.IDom(x) {
					break
				}
			}
		}
	}
	return out
}

func appendUnique(list []*Node, n *Node) []*Node {
	for _, x := range list {
		if x == n {
			return list
		}
	}
	return append(list, n)
}

// ---------------------------------------------------------------------------
// Loop-nest tree (from the structured AST)

// Loop is one DO loop in the nest tree.
type Loop struct {
	Do       *fortran.DoStmt
	Parent   *Loop
	Children []*Loop
	Depth    int // 1 = outermost
}

// Header returns the loop's induction variable symbol.
func (l *Loop) Header() *fortran.Symbol { return l.Do.Var }

// Contains reports whether stmt s lies (transitively) inside l.
func (l *Loop) Contains(s fortran.Stmt) bool {
	found := false
	fortran.WalkStmts(l.Do.Body, func(x fortran.Stmt) bool {
		if x == s {
			found = true
		}
		return !found
	})
	return found
}

// Stmts returns every statement nested in the loop body, pre-order.
func (l *Loop) Stmts() []fortran.Stmt {
	var out []fortran.Stmt
	fortran.WalkStmts(l.Do.Body, func(s fortran.Stmt) bool {
		out = append(out, s)
		return true
	})
	return out
}

// Nest returns the loops from outermost to l.
func (l *Loop) Nest() []*Loop {
	var chain []*Loop
	for x := l; x != nil; x = x.Parent {
		chain = append(chain, x)
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

func (l *Loop) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "do %s (depth %d)", l.Header().Name, l.Depth)
	return b.String()
}

// LoopTree is the forest of DO loops of a unit.
type LoopTree struct {
	Unit  *fortran.Unit
	Roots []*Loop
	All   []*Loop

	byDo map[*fortran.DoStmt]*Loop
	// inner maps every statement of the unit to its innermost
	// enclosing loop (nil outside any loop). Built eagerly so lookups
	// are read-only: the dependence analyzer queries it from
	// concurrent worker goroutines.
	inner map[fortran.Stmt]*Loop
}

// LoopOf returns the Loop wrapper for a DO statement, or nil.
func (t *LoopTree) LoopOf(do *fortran.DoStmt) *Loop { return t.byDo[do] }

// Innermost returns the innermost loop containing statement s, or nil.
func (t *LoopTree) Innermost(s fortran.Stmt) *Loop {
	if l, ok := t.inner[s]; ok {
		return l
	}
	// Statement spliced into the unit after the tree was built and not
	// re-indexed (see Reindex). Fall back to searching; do not cache —
	// concurrent readers share the map.
	var best *Loop
	for _, l := range t.All {
		if l.Do == s {
			// A DO statement belongs to its parent loop.
			continue
		}
		if l.Contains(s) && (best == nil || l.Depth > best.Depth) {
			best = l
		}
	}
	return best
}

// Reindex records that statement new replaced old 1:1 in the unit
// body, so new inherits old's position in the innermost-loop index.
// Callers must not invoke it concurrently with lookups.
func (t *LoopTree) Reindex(old, new fortran.Stmt) {
	if l, ok := t.inner[old]; ok {
		delete(t.inner, old)
		t.inner[new] = l
	}
}

// BuildLoopTree constructs the loop forest for u.
func BuildLoopTree(u *fortran.Unit) *LoopTree {
	t := &LoopTree{Unit: u, byDo: map[*fortran.DoStmt]*Loop{}}
	var walk func(body []fortran.Stmt, parent *Loop, depth int)
	walk = func(body []fortran.Stmt, parent *Loop, depth int) {
		for _, s := range body {
			switch st := s.(type) {
			case *fortran.DoStmt:
				l := &Loop{Do: st, Parent: parent, Depth: depth}
				t.byDo[st] = l
				t.All = append(t.All, l)
				if parent == nil {
					t.Roots = append(t.Roots, l)
				} else {
					parent.Children = append(parent.Children, l)
				}
				walk(st.Body, l, depth+1)
			case *fortran.IfStmt:
				walk(st.Then, parent, depth)
				walk(st.Else, parent, depth)
			case *fortran.WhileStmt:
				walk(st.Body, parent, depth)
			}
		}
	}
	walk(u.Body, nil, 1)
	t.inner = make(map[fortran.Stmt]*Loop)
	fortran.WalkStmts(u.Body, func(s fortran.Stmt) bool {
		t.inner[s] = nil
		return true
	})
	// Parents precede children in All, so deeper loops overwrite.
	for _, l := range t.All {
		fortran.WalkStmts(l.Do.Body, func(s fortran.Stmt) bool {
			t.inner[s] = l
			return true
		})
	}
	return t
}
