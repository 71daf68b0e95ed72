package core

import (
	"fmt"
	"sort"

	"parascope/internal/dep"
	"parascope/internal/fortran"
	"parascope/internal/xform"
)

// Suggestion is one piece of parallelization guidance for the
// selected loop — the "more guidance in selecting transformations"
// the paper's users requested. When a power-steering transformation
// implements the remedy, Transformation is non-nil and ready to
// Check/Transform; advisory actions (assertions, dependence marking)
// describe the user step instead.
type Suggestion struct {
	Action         string
	Rationale      string
	Transformation xform.Transformation
}

func (s Suggestion) String() string {
	return fmt.Sprintf("%s — %s", s.Action, s.Rationale)
}

// Advise diagnoses why the selected loop is not (or not profitably)
// parallel and proposes remedies, ordered from cheap analysis
// sharpening to restructuring transformations.
func (s *Session) Advise() []Suggestion {
	l := s.SelectedLoop()
	if l == nil {
		return nil
	}
	do := l.Do
	if do.Parallel {
		return []Suggestion{{Action: "nothing to do", Rationale: "the loop is already parallel"}}
	}
	var out []Suggestion
	seen := map[string]bool{}
	add := func(sg Suggestion) {
		if !seen[sg.Action] {
			seen[sg.Action] = true
			out = append(out, sg)
		}
	}

	// Start from the parallelization verdict's blocking dependences.
	verdict := s.Doall(l)
	if len(verdict.Blocking) == 0 {
		add(Suggestion{
			Action:         "parallelize the loop",
			Rationale:      "no blocking dependences remain",
			Transformation: xform.Parallelize{Do: do},
		})
		return out
	}
	st := s.State()
	symbolicVars := map[string]bool{}
	for _, d := range verdict.Blocking {
		sym := d.Sym
		switch {
		case d.Reason == "symbolic":
			for _, b := range d.Blockers {
				symbolicVars[b] = true
			}
		case d.Reason == "index-array":
			add(Suggestion{
				Action:    fmt.Sprintf("inspect the index array feeding %s; if it never repeats, reject the pending dependences (deps carried on %s; mark <id> reject)", sym.Name, sym.Name),
				Rationale: "subscript tests cannot analyze index arrays; only you know the indexing pattern",
			})
		case verdict.Basis(sym) == xform.LastValue:
			add(Suggestion{
				Action:         fmt.Sprintf("expand scalar %s", sym.Name),
				Rationale:      fmt.Sprintf("%s is killed each iteration but its value is used after the loop; expansion keeps the last value", sym.Name),
				Transformation: xform.ScalarExpand{Do: do, Sym: sym},
			})
		case sym.Kind == fortran.SymScalar:
			add(Suggestion{
				Action:    fmt.Sprintf("restructure the uses of scalar %s", sym.Name),
				Rationale: fmt.Sprintf("%s: %s", sym.Name, st.DF.Privatizable(l, sym).Reason),
			})
		case sym.IsArray():
			if t := (xform.PrivatizeArray{Do: do, Sym: sym}); t.Check(s.xformContext()).OK() {
				add(Suggestion{
					Action:         fmt.Sprintf("privatize work array %s", sym.Name),
					Rationale:      fmt.Sprintf("every iteration kills all of %s before using it", sym.Name),
					Transformation: t,
				})
				continue
			}
			if call := callEndpoint(d); call != nil {
				add(Suggestion{
					Action:         fmt.Sprintf("inline the call to %s", call.Name),
					Rationale:      "exposing the callee's accesses lets the subscript tests analyze them",
					Transformation: xform.Inline{Call: call},
				})
			}
		}
	}
	// Symbolic terms: one assertion suggestion per variable.
	var symNames []string
	for name := range symbolicVars {
		symNames = append(symNames, name)
	}
	sort.Strings(symNames)
	for _, name := range symNames {
		add(Suggestion{
			Action:    fmt.Sprintf("assert a bound on %s (e.g. `assert %s .ge. <extent>`)", name, name),
			Rationale: fmt.Sprintf("the subscript tests cannot bound %s; an assertion may prove the references disjoint", name),
		})
	}
	// Structural remedies.
	if v := (xform.Distribute{Do: do}).Check(s.xformContext()); v.OK() {
		add(Suggestion{
			Action:         "distribute the loop",
			Rationale:      "the body splits into independent components; the recurrence-free ones can then parallelize",
			Transformation: xform.Distribute{Do: do},
		})
	}
	// Inner parallelism that interchange could move outward.
	if len(l.Children) == 1 && len(do.Body) == 1 {
		inner := l.Children[0]
		if len(s.Doall(inner).Blocking) == 0 {
			if v := (xform.Interchange{Outer: do}).Check(s.xformContext()); v.OK() {
				add(Suggestion{
					Action:         "interchange the nest",
					Rationale:      fmt.Sprintf("the inner %s loop is dependence-free; interchange moves that parallelism to the outer level", inner.Header().Name),
					Transformation: xform.Interchange{Outer: do},
				})
			}
		}
	}
	if len(out) == 0 {
		add(Suggestion{
			Action:    "leave the loop serial",
			Rationale: "the carried dependences are real recurrences; no catalog transformation removes them",
		})
	}
	return out
}

// callEndpoint returns the CALL statement at either end of the
// dependence, if any.
func callEndpoint(d *dep.Dependence) *fortran.CallStmt {
	if c, ok := d.Src.(*fortran.CallStmt); ok && c.Callee != nil {
		return c
	}
	if c, ok := d.Dst.(*fortran.CallStmt); ok && c.Callee != nil {
		return c
	}
	return nil
}
