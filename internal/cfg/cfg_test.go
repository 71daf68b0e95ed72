package cfg

import (
	"testing"

	"parascope/internal/fortran"
)

func parseUnit(t *testing.T, src string) *fortran.Unit {
	t.Helper()
	f, err := fortran.Parse("t.f", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return f.Units[0]
}

func TestStraightLineCFG(t *testing.T) {
	u := parseUnit(t, `
      program main
      integer i
      i = 1
      i = 2
      i = 3
      end
`)
	g := Build(u)
	// entry -> s1 -> s2 -> s3 -> exit
	if len(g.Entry.Succs) != 1 {
		t.Fatalf("entry has %d succs", len(g.Entry.Succs))
	}
	n := g.Entry.Succs[0]
	count := 0
	for n != g.Exit {
		count++
		if len(n.Succs) != 1 {
			t.Fatalf("node %v has %d succs", n, len(n.Succs))
		}
		n = n.Succs[0]
	}
	if count != 3 {
		t.Errorf("path length = %d, want 3", count)
	}
}

func TestIfCFGAndPostdominators(t *testing.T) {
	u := parseUnit(t, `
      program main
      integer i, j
      i = 1
      if (i .gt. 0) then
         j = 1
      else
         j = 2
      endif
      j = 3
      end
`)
	g := Build(u)
	ifNode := g.NodeFor(u.Body[1])
	if len(ifNode.Succs) != 2 {
		t.Fatalf("if node has %d succs, want 2", len(ifNode.Succs))
	}
	joinNode := g.NodeFor(u.Body[2])
	pdom := g.ComputePostdominators()
	if !pdom.Dominates(joinNode, ifNode) {
		t.Error("join should postdominate the branch")
	}
	thenNode := g.NodeFor(u.Body[1].(*fortran.IfStmt).Then[0])
	if pdom.Dominates(thenNode, ifNode) {
		t.Error("then-branch must not postdominate the branch")
	}
}

func TestLoopCFG(t *testing.T) {
	u := parseUnit(t, `
      program main
      integer i, n
      real a(10)
      n = 10
      do i = 1, n
         a(i) = 0.0
      enddo
      n = 0
      end
`)
	g := Build(u)
	do := u.Body[1].(*fortran.DoStmt)
	header := g.NodeFor(do)
	if len(header.Succs) != 2 {
		t.Fatalf("loop header has %d succs, want 2 (body, after)", len(header.Succs))
	}
	bodyNode := g.NodeFor(do.Body[0])
	hasBack := false
	for _, s := range bodyNode.Succs {
		if s == header {
			hasBack = true
		}
	}
	if !hasBack {
		t.Error("missing back edge from body to header")
	}
	// Every way out of the body goes back through the header.
	if !g.ComputePostdominators().Dominates(header, bodyNode) {
		t.Error("header should postdominate body")
	}
}

func TestControlDeps(t *testing.T) {
	u := parseUnit(t, `
      program main
      integer i, j
      i = 1
      if (i .gt. 0) then
         j = 1
      endif
      j = 3
      end
`)
	g := Build(u)
	cd := g.ComputeControlDeps()
	ifStmt := u.Body[1].(*fortran.IfStmt)
	thenNode := g.NodeFor(ifStmt.Then[0])
	deps := cd.DepsOf(thenNode)
	if len(deps) != 1 || deps[0] != g.NodeFor(ifStmt) {
		t.Errorf("then-branch control deps = %v, want the IF", deps)
	}
	after := g.NodeFor(u.Body[2])
	for _, d := range cd.DepsOf(after) {
		if d == g.NodeFor(ifStmt) {
			t.Error("statement after the IF must not be control dependent on it")
		}
	}
}

func TestControlDepsInLoop(t *testing.T) {
	u := parseUnit(t, `
      program main
      integer i
      real a(10)
      do i = 1, 10
         a(i) = 1.0
      enddo
      end
`)
	g := Build(u)
	cd := g.ComputeControlDeps()
	do := u.Body[0].(*fortran.DoStmt)
	bodyNode := g.NodeFor(do.Body[0])
	found := false
	for _, d := range cd.DepsOf(bodyNode) {
		if d == g.NodeFor(do) {
			found = true
		}
	}
	if !found {
		t.Error("loop body should be control dependent on the loop header")
	}
}

func TestGotoCFG(t *testing.T) {
	u := parseUnit(t, `
      program main
      integer i
      i = 0
      goto 20
      i = 1
 20   continue
      end
`)
	g := Build(u)
	gotoNode := g.NodeFor(u.Body[1])
	target := g.NodeFor(u.Body[3])
	if len(gotoNode.Succs) != 1 || gotoNode.Succs[0] != target {
		t.Errorf("goto succs = %v, want the labeled CONTINUE", gotoNode.Succs)
	}
	skipped := g.NodeFor(u.Body[2])
	for _, p := range skipped.Preds {
		if p == gotoNode {
			t.Error("fallthrough edge from goto must not exist")
		}
	}
}

func TestLoopTree(t *testing.T) {
	u := parseUnit(t, `
      program main
      integer i, j, k
      real a(10,10), b(10)
      do i = 1, 10
         do j = 1, 10
            a(i,j) = 0.0
         enddo
         b(i) = 1.0
      enddo
      do k = 1, 10
         b(k) = 2.0
      enddo
      end
`)
	tree := BuildLoopTree(u)
	if len(tree.Roots) != 2 {
		t.Fatalf("got %d root loops, want 2", len(tree.Roots))
	}
	if len(tree.All) != 3 {
		t.Fatalf("got %d loops total, want 3", len(tree.All))
	}
	outer := tree.Roots[0]
	if outer.Header().Name != "i" || outer.Depth != 1 {
		t.Errorf("outer = %v", outer)
	}
	if len(outer.Children) != 1 || outer.Children[0].Header().Name != "j" {
		t.Errorf("children = %v", outer.Children)
	}
	inner := outer.Children[0]
	// Innermost lookup.
	assign := inner.Do.Body[0]
	if got := tree.Innermost(assign); got != inner {
		t.Errorf("Innermost(a(i,j)=0) = %v, want j loop", got)
	}
	bAssign := outer.Do.Body[1]
	if got := tree.Innermost(bAssign); got != outer {
		t.Errorf("Innermost(b(i)=1) = %v, want i loop", got)
	}
}

func TestDominatorProperties(t *testing.T) {
	// Entry dominates everything; every node postdominated by exit.
	u := parseUnit(t, `
      program main
      integer i, j
      j = 0
      do i = 1, 10
         if (i .gt. 5) then
            j = j + 1
         else
            j = j - 1
         endif
      enddo
      if (j .gt. 0) j = 0
      end
`)
	g := Build(u)
	pdom := g.ComputePostdominators()
	for _, n := range g.Nodes {
		if !pdom.Dominates(g.Exit, n) {
			t.Errorf("exit does not postdominate %v", n)
		}
		if !pdom.Dominates(n, n) {
			t.Errorf("postdominance not reflexive at %v", n)
		}
	}
}

func TestReturnEdges(t *testing.T) {
	u := parseUnit(t, `
      subroutine f(x)
      real x
      if (x .gt. 0.0) return
      x = -x
      return
      end
`)
	g := Build(u)
	// Both returns reach exit; the assignment is conditionally executed.
	ifStmt := u.Body[0].(*fortran.IfStmt)
	retNode := g.NodeFor(ifStmt.Then[0])
	if len(retNode.Succs) != 1 || retNode.Succs[0] != g.Exit {
		t.Errorf("return succs = %v", retNode.Succs)
	}
	cd := g.ComputeControlDeps()
	asg := g.NodeFor(u.Body[1])
	found := false
	for _, d := range cd.DepsOf(asg) {
		if d == g.NodeFor(ifStmt) {
			found = true
		}
	}
	if !found {
		t.Error("x=-x should be control dependent on the early-return IF")
	}
}
