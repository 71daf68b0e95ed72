package cfg_test

import (
	"testing"

	"parascope/internal/cfg"
	"parascope/internal/experiments"
	"parascope/internal/fortran"
	"parascope/internal/workloads"
)

// bruteUnits returns every unit of the suite workloads, CallHeavy(24),
// CondConst() and BigProgram(8).
func bruteUnits(t *testing.T) []*fortran.Unit {
	t.Helper()
	srcs := map[string]string{
		"callheavy": workloads.CallHeavy(24).Source,
		"condconst": workloads.CondConst().Source,
		"big":       experiments.BigProgram(8),
	}
	for _, w := range workloads.All() {
		srcs[w.Name] = w.Source
	}
	var units []*fortran.Unit
	for name, src := range srcs {
		f, err := fortran.Parse(name+".f", src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		units = append(units, f.Units...)
	}
	return units
}

// reachesExit returns, by node index, whether the exit is reachable
// from each node on a path that never enters removed (nil: no node
// removed).
func reachesExit(g *cfg.Graph, removed *cfg.Node) []bool {
	reach := make([]bool, len(g.Nodes))
	if g.Exit == removed {
		return reach
	}
	reach[g.Exit.Index] = true
	work := []*cfg.Node{g.Exit}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range n.Preds {
			if p != removed && !reach[p.Index] {
				reach[p.Index] = true
				work = append(work, p)
			}
		}
	}
	return reach
}

// brutePostdom[a][b] reports whether a postdominates b: a is b, or b
// reaches the exit and every path from b to the exit passes a. A node
// that cannot reach the exit is postdominated by itself alone.
func brutePostdom(g *cfg.Graph) [][]bool {
	all := reachesExit(g, nil)
	pd := make([][]bool, len(g.Nodes))
	for _, a := range g.Nodes {
		without := reachesExit(g, a)
		pd[a.Index] = make([]bool, len(g.Nodes))
		for _, b := range g.Nodes {
			pd[a.Index][b.Index] = a == b || (all[b.Index] && !without[b.Index])
		}
	}
	return pd
}

// TestPostdominatorsBruteForce checks ComputePostdominators against the
// definition of postdominance on every unit of the brute-force set.
func TestPostdominatorsBruteForce(t *testing.T) {
	for _, u := range bruteUnits(t) {
		g := cfg.Build(u)
		pdom := g.ComputePostdominators()
		want := brutePostdom(g)
		for _, a := range g.Nodes {
			for _, b := range g.Nodes {
				if got := pdom.Dominates(a, b); got != want[a.Index][b.Index] {
					t.Errorf("%s: %v postdominates %v = %v, want %v", u.Name, a, b, got, want[a.Index][b.Index])
				}
			}
		}
	}
}

// TestControlDepsBruteForce checks ComputeControlDeps against the
// Ferrante–Ottenstein–Warren definition: y is control dependent on a
// branch x when y postdominates a successor of x and is not a strict
// postdominator of x.
func TestControlDepsBruteForce(t *testing.T) {
	for _, u := range bruteUnits(t) {
		g := cfg.Build(u)
		cd := g.ComputeControlDeps()
		pd := brutePostdom(g)
		for _, y := range g.Nodes {
			want := map[*cfg.Node]bool{}
			for _, x := range g.Nodes {
				if len(x.Succs) < 2 || (x != y && pd[y.Index][x.Index]) {
					continue
				}
				for _, s := range x.Succs {
					if pd[y.Index][s.Index] {
						want[x] = true
					}
				}
			}
			got := map[*cfg.Node]bool{}
			for _, x := range cd.DepsOf(y) {
				if got[x] {
					t.Errorf("%s: %v lists %v twice", u.Name, y, x)
				}
				got[x] = true
			}
			for x := range want {
				if !got[x] {
					t.Errorf("%s: %v is control dependent on %v, not listed", u.Name, y, x)
				}
			}
			for x := range got {
				if !want[x] {
					t.Errorf("%s: %v listed as control dependent on %v", u.Name, y, x)
				}
			}
		}
	}
}
