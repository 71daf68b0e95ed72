// Package workloads provides the synthetic benchmark suite modeled on
// the programs of the paper's evaluation (Table 1). The original
// suite consisted of proprietary user codes (spec77, pneoss, nxsns,
// arc3d, slab2d, …); each synthetic program here reproduces, at
// reduced size, the *parallelization-relevant traits* the paper
// reports for its original — calls inside loops needing regular
// sections, scalars killed across procedures, symbolic subscript
// terms, index arrays, reductions, array kills — so the analysis and
// transformation experiments exercise the same code paths.
//
// Every program runs under the interpreter and prints a checksum, so
// transformed versions can be validated and timed.
package workloads

import (
	"fmt"
	"strings"

	"parascope/internal/core"
	"parascope/internal/fortran"
)

// Trait names a capability a program needs for parallelization,
// matching the rows of the paper's Table 3.
type Trait string

// Traits (Table 3 rows).
const (
	TraitDependence Trait = "dependence"  // plain dependence analysis finds parallel loops
	TraitConstants  Trait = "constants"   // interprocedural constants
	TraitSections   Trait = "sections"    // regular section analysis of calls
	TraitScalarKill Trait = "scalar-kill" // interprocedural scalar kill
	TraitArrayKill  Trait = "array-kill"  // interprocedural array kill
	TraitSymbolics  Trait = "symbolics"   // symbolic terms need assertions
	TraitIndexArray Trait = "index-array" // index-array subscripts need user knowledge
	TraitReductions Trait = "reductions"  // reduction recognition
	TraitTransforms Trait = "transforms"  // restructuring (interchange, distribution …)
)

// Workload is one program of the suite.
type Workload struct {
	Name        string
	Description string
	// ModeledAfter records the original program and contributor from
	// the paper's Table 1 that this synthetic code stands in for.
	ModeledAfter string
	Source       string
	// Traits lists what the program needs (Table 3 expectations).
	Traits []Trait
	// Script replays the documented user session that parallelizes
	// the program (assertions, dependence deletions, transformations).
	// It returns the number of loops parallelized.
	Script func(s *core.Session) (int, error)
	// Input supplies READ data when the program runs.
	Input []float64
}

// Parse returns a freshly parsed copy of the program.
func (w *Workload) Parse() (*fortran.File, error) {
	return fortran.Parse(w.Name+".f", w.Source)
}

// MustParse parses or panics.
func (w *Workload) MustParse() *fortran.File {
	f, err := w.Parse()
	if err != nil {
		panic(fmt.Sprintf("workload %s: %v", w.Name, err))
	}
	return f
}

// Session opens a fresh editor session on the program.
func (w *Workload) Session() (*core.Session, error) {
	f, err := w.Parse()
	if err != nil {
		return nil, err
	}
	return core.NewSession(f), nil
}

// Stats summarizes a workload's size (Table 1 columns).
type Stats struct {
	Name       string
	Lines      int
	Procedures int
	Loops      int
}

// Measure computes the Table 1 row for the workload.
func (w *Workload) Measure() (Stats, error) {
	f, err := w.Parse()
	if err != nil {
		return Stats{}, err
	}
	st := Stats{Name: w.Name, Procedures: len(f.Units)}
	for _, line := range splitLines(w.Source) {
		if trimmed := trim(line); trimmed != "" {
			st.Lines++
		}
	}
	for _, u := range f.Units {
		fortran.WalkStmts(u.Body, func(s fortran.Stmt) bool {
			if _, ok := s.(*fortran.DoStmt); ok {
				st.Loops++
			}
			return true
		})
	}
	return st, nil
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func trim(s string) string {
	i, j := 0, len(s)
	for i < j && (s[i] == ' ' || s[i] == '\t' || s[i] == '\r') {
		i++
	}
	for j > i && (s[j-1] == ' ' || s[j-1] == '\t' || s[j-1] == '\r') {
		j--
	}
	return s[i:j]
}

// All returns the suite in Table 1 order.
func All() []*Workload {
	return []*Workload{
		Spec77(),
		Pneoss(),
		Nxsns(),
		Arc3d(),
		Slab2d(),
		Onedim(),
		Shear(),
		Direct(),
		Interior(),
	}
}

// ByName finds a workload.
func ByName(name string) *Workload {
	for _, w := range All() {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// InputFor returns the READ data of the suite workload a session's
// source path names ("arc3d.f"), nil for any other program.
func InputFor(path string) []float64 {
	if w := ByName(strings.TrimSuffix(path, ".f")); w != nil {
		return w.Input
	}
	return nil
}
