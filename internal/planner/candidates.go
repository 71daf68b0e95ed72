package planner

import (
	"fmt"
	"strings"

	"parascope/internal/core"
	"parascope/internal/fortran"
)

// candidates enumerates the next-step command lines worth forking a
// world for, gated by the power-steering Check so no fork is wasted
// on a step its own world would reject. Per hot sequential loop
// (hottest first by estimated sequential time, capped at
// maxHotLoops): parallelize it outright, or one of the enabling
// transformations — reduction recognition, interchange, skew.
// (Privatizing a scalar is not a step of its own: a scalar privatize's
// check allows is one parallelize attaches by itself.) Adjacent
// same-depth loop pairs additionally propose fusion.
func (s *searcher) candidates(sess *core.Session) []string {
	loops := sess.Loops()
	ord := map[*fortran.DoStmt]int{}
	for i, l := range loops {
		ord[l.Do] = i + 1
	}

	var out []string
	hot := 0
	for _, le := range sess.Estimate().Loops {
		if le.Loop.Do.Parallel {
			continue
		}
		o := ord[le.Loop.Do]
		if o == 0 {
			continue
		}
		if hot++; hot > maxHotLoops {
			break
		}
		cands := []string{
			fmt.Sprintf("parallelize %d", o),
			fmt.Sprintf("reductions %d", o),
			fmt.Sprintf("interchange %d", o),
			fmt.Sprintf("skew %d 1", o),
		}
		for _, cand := range cands {
			if s.checkOK(sess, cand) {
				out = append(out, "apply "+cand)
			}
		}
	}

	for i := 0; i+1 < len(loops); i++ {
		if loops[i].Depth != loops[i+1].Depth {
			continue
		}
		cand := fmt.Sprintf("fuse %d %d", i+1, i+2)
		if s.checkOK(sess, cand) {
			out = append(out, "apply "+cand)
		}
	}
	return out
}

// checkOK runs the power-steering diagnosis for one candidate without
// applying it.
func (s *searcher) checkOK(sess *core.Session, cand string) bool {
	t, err := core.ParseTransformation(sess, strings.Fields(cand))
	if err != nil {
		return false
	}
	return sess.Check(t).OK()
}
