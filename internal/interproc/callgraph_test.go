package interproc

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"parascope/internal/fortran"
)

// TestCallGraphCycles checks the call graph's components against their
// definition, on programs with a cycle reached from outside it, a cycle
// entered through a cross edge, and a self-call, then on random call
// graphs: two units share a Cycle number exactly when each reaches the
// other; Recursive holds exactly the units sharing their component and
// those calling themselves; BottomUp lists every unit once, each after
// every unit it calls outside its own component.
func TestCallGraphCycles(t *testing.T) {
	for _, c := range []struct {
		name, src string
		recursive string // the names Recursive must hold, sorted
	}{
		// main calls into the cycle but is not on it.
		{"two-unit cycle", `
      program main
      integer n
      n = 3
      call up(n)
      print *, n
      end
      subroutine up(k)
      integer k
      if (k .gt. 0) call down(k)
      end
      subroutine down(k)
      integer k
      k = k - 1
      call up(k)
      end
`, "down up"},
		// a→{b,d}, b→c→a, d→b: a depth-first walk from a closes the cycle
		// at c before it reaches d, yet d is on a cycle (a→d→b→c→a). e,
		// called from the cycle, and main, calling into it, are not.
		{"cross edge", `
      program main
      integer n
      n = 3
      call a(n)
      end
      subroutine a(k)
      integer k
      call b(k)
      call d(k)
      end
      subroutine b(k)
      integer k
      call c(k)
      end
      subroutine c(k)
      integer k
      k = k - 1
      if (k .gt. 0) call a(k)
      call e(k)
      end
      subroutine d(k)
      integer k
      call b(k)
      end
      subroutine e(k)
      integer k
      k = k + 1
      end
`, "a b c d"},
		{"self-call", `
      program main
      integer n
      n = 3
      call f(n)
      call g(n)
      end
      subroutine f(k)
      integer k
      k = k - 1
      if (k .gt. 0) call f(k)
      call g(k)
      end
      subroutine g(k)
      integer k
      k = k + 1
      end
`, "f"},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := parse(t, c.src)
			g := BuildCallGraph(f)
			var rec []string
			for u := range g.Recursive {
				rec = append(rec, u.Name)
			}
			sort.Strings(rec)
			if got := strings.Join(rec, " "); got != c.recursive {
				t.Errorf("Recursive = [%s], want [%s]", got, c.recursive)
			}
			expectComponents(t, f, g)
		})
	}
	// Random call graphs of eight subroutines, two calls each.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		var b strings.Builder
		b.WriteString("      program main\n      call s0(1)\n      end\n")
		for u := 0; u < 8; u++ {
			fmt.Fprintf(&b, "      subroutine s%d(k)\n      integer k\n", u)
			for c := 0; c < 2; c++ {
				fmt.Fprintf(&b, "      call s%d(k)\n", rng.Intn(8))
			}
			b.WriteString("      end\n")
		}
		f := parse(t, b.String())
		expectComponents(t, f, BuildCallGraph(f))
		if t.Failed() {
			t.Fatalf("on\n%s", b.String())
		}
	}
}

// expectComponents checks g's Cycle, Recursive and BottomUp against
// their definitions by reachability.
func expectComponents(t *testing.T, f *fortran.File, g *CallGraph) {
	t.Helper()
	reaches := func(from, to *fortran.Unit) bool {
		seen := map[*fortran.Unit]bool{}
		queue := []*fortran.Unit{from}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, site := range g.Calls[v] {
				if site.Callee == to {
					return true
				}
				if !seen[site.Callee] {
					seen[site.Callee] = true
					queue = append(queue, site.Callee)
				}
			}
		}
		return false
	}
	for _, u := range f.Units {
		if _, ok := g.Cycle[u]; !ok {
			t.Errorf("%s has no component", u.Name)
		}
		shared := false
		for _, v := range f.Units {
			mutual := u == v || reaches(u, v) && reaches(v, u)
			if same := g.Cycle[u] == g.Cycle[v]; same != mutual {
				t.Errorf("%s and %s: same component %t, reach each other %t", u.Name, v.Name, same, mutual)
			}
			shared = shared || u != v && mutual
		}
		if want := shared || reaches(u, u); g.Recursive[u] != want {
			t.Errorf("%s: Recursive %t, want %t", u.Name, g.Recursive[u], want)
		}
	}
	if len(g.BottomUp) != len(f.Units) {
		t.Errorf("BottomUp lists %d units, the file has %d", len(g.BottomUp), len(f.Units))
	}
	pos := map[*fortran.Unit]int{}
	for i, u := range g.BottomUp {
		pos[u] = i
	}
	for _, site := range g.Sites {
		if g.Cycle[site.Caller] != g.Cycle[site.Callee] && pos[site.Callee] > pos[site.Caller] {
			t.Errorf("BottomUp lists %s before its callee %s", site.Caller.Name, site.Callee.Name)
		}
	}
}
