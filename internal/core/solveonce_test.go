package core_test

import (
	"sync/atomic"
	"testing"
	"time"

	"parascope/internal/core"
	"parascope/internal/workloads"
)

// dataflowCounter counts the "dataflow" phases a session reports.
type dataflowCounter struct{ n atomic.Int64 }

func (c *dataflowCounter) ObservePhase(phase string, _ time.Duration) {
	if phase == "dataflow" {
		c.n.Add(1)
	}
}

// twoUnitCycle is a main calling into a recursion cycle of two units.
const twoUnitCycle = `
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
`

// TestColdOpenSolvesEachUnitOnce counts data-flow solves instead of
// timing them. A cold open takes each unit's solve from the summary
// pass, so its per-unit pass solves only the units on a recursion cycle,
// which the summary pass does not solve. A conservative session's units
// read conservative call effects, not the summaries, so its per-unit
// pass solves every unit. The programs are those the root digests cover
// (less their one test-local program, which has no call) and a
// recursion cycle.
func TestColdOpenSolvesEachUnitOnce(t *testing.T) {
	ws := append(workloads.All(), workloads.CallHeavy(24), workloads.CondConst(),
		&workloads.Workload{Name: "cycle", Source: twoUnitCycle})
	for _, w := range ws {
		var c dataflowCounter
		s, err := core.OpenObserved(w.Name+".f", w.Source, 0, &c)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if got, want := c.n.Load(), int64(len(s.Prog.Graph.Recursive)); got != want {
			t.Errorf("%s: the open solved %d units in the per-unit pass, want %d (the recursive ones)", w.Name, got, want)
		}
		if w.Name == "cycle" && len(s.Prog.Graph.Recursive) < 2 {
			t.Errorf("cycle: %d recursive units, want at least the cycle's two", len(s.Prog.Graph.Recursive))
		}
		c.n.Store(0)
		s.Conservative = true
		s.AnalyzeAll()
		if got, want := c.n.Load(), int64(len(s.File.Units)); got != want {
			t.Errorf("%s: the conservative analysis solved %d units, want all %d", w.Name, got, want)
		}
	}
}
