package main

import (
	"fmt"
	"io"
	"strings"

	"parascope/internal/core"
	"parascope/internal/dep"
	"parascope/internal/fortran"
	"parascope/internal/repl"
	"parascope/internal/workloads"
)

// t2Parallel is the "parallel" column of EXPERIMENTS.md's t2 table: how
// many loops each program's documented user session parallelizes.
var t2Parallel = map[string]int{
	"spec77": 3, "pneoss": 2, "nxsns": 3, "arc3d": 3, "slab2d": 2,
	"onedim": 3, "shear": 3, "direct": 5, "interior": 4,
}

// t2Steps is each program's user intervention from its t2 script
// (internal/workloads), as the REPL lines a remote user types before
// `auto`. "reject <var>" stands for reading the selected loop's carried
// dependences on <var> and marking each pending one rejected.
var t2Steps = map[string][]string{
	"arc3d":  {"assert jp .ge. 500"},
	"slab2d": {"apply distribute 2"},
	"onedim": {"loop 2", "reject fld"},
	"shear":  {"apply interchange 3"},
}

// suiteProg is one program of the paper's suite with everything a
// session needs to drive and check it.
type suiteProg struct {
	name   string
	path   string
	source string
	input  []float64
	want   string // reference output of the untransformed sequential program
	// loops is how many loops main has; loopsText is its `loops` listing.
	loops     int
	loopsText string
	// editID and editText name a statement of the program as it stands
	// after the t2 steps and `auto`: the one the session re-types.
	editID   int
	editText string
}

// prepareSuite loads the nine programs; replay says whether to replay
// the t2 steps locally to find the edit target.
func prepareSuite(e *env, replay bool) error {
	e.suite = nil
	for _, w := range workloads.All() {
		p := &suiteProg{name: w.Name, path: w.Name + ".f", source: w.Source, input: w.Input}
		var err error
		if p.want, err = e.golden.reference(p.name, p.source, p.input); err != nil {
			return err
		}
		s, err := core.Open(p.path, p.source)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		var buf strings.Builder
		rep := repl.New(s, &buf)
		if err := rep.Execute("loops"); err != nil {
			return err
		}
		p.loopsText, p.loops = buf.String(), len(s.Loops())
		if replay {
			rep.Out = io.Discard
			if err := replayT2(rep, p.name); err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
			st := firstLoopAssign(s.CurrentUnit().Body)
			if st == nil {
				return fmt.Errorf("%s: no assignment inside a loop to edit", p.name)
			}
			p.editID, p.editText = st.ID(), fortran.StmtText(st)
		}
		e.suite = append(e.suite, p)
	}
	return nil
}

// replayT2 applies a program's t2 steps and `auto` to a local session,
// exactly as t2Session does remotely.
func replayT2(rep *repl.REPL, name string) error {
	for _, line := range t2Steps[name] {
		if v, ok := strings.CutPrefix(line, "reject "); ok {
			s := rep.Session
			for _, d := range s.SelectionDeps(core.DepFilter{CarriedOnly: true, Sym: v}) {
				if d.Mark == dep.MarkPending {
					if err := s.MarkDep(d.ID, dep.MarkRejected); err != nil {
						return err
					}
				}
			}
			continue
		}
		if err := rep.Execute(line); err != nil {
			return fmt.Errorf("%q: %w", line, err)
		}
	}
	return rep.Execute("auto")
}

// firstLoopAssign finds the first assignment that is directly inside a
// DO loop, in source order.
func firstLoopAssign(body []fortran.Stmt) fortran.Stmt {
	for _, st := range body {
		do, ok := st.(*fortran.DoStmt)
		if !ok {
			continue
		}
		for _, in := range do.Body {
			if _, ok := in.(*fortran.AssignStmt); ok {
				return in
			}
		}
		if found := firstLoopAssign(do.Body); found != nil {
			return found
		}
	}
	return nil
}

// salted returns the program with a dead store of k spliced in before
// main's END: new text for every content-hash cache, same output.
func (p *suiteProg) salted(k int) string {
	lines := strings.Split(p.source, "\n")
	for i, ln := range lines {
		if strings.TrimSpace(ln) == "end" {
			out := append(append(append([]string{}, lines[:i]...), fmt.Sprintf("      zsalt = %d.0", k)), lines[i:]...)
			return strings.Join(out, "\n")
		}
	}
	return p.source
}
