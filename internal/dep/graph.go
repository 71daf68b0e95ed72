// Package dep implements ParaScope's dependence analysis: a
// hierarchical suite of subscript tests (ZIV, strong/weak-zero/
// weak-crossing/exact SIV, GCD, Banerjee, delta-style combination)
// applied to pairs of references in loop nests, producing a
// dependence graph with direction/distance vectors, carrier levels,
// and the proven/pending/accepted/rejected marking state the editor
// exposes to users.
package dep

import (
	"fmt"
	"strconv"
	"strings"

	"parascope/internal/cfg"
	"parascope/internal/expr"
	"parascope/internal/fortran"
)

// Class is the kind of a dependence.
type Class uint8

// Dependence classes.
const (
	ClassFlow   Class = iota // true dependence: write then read
	ClassAnti                // read then write
	ClassOutput              // write then write
	ClassInput               // read then read (displayed only)
	ClassControl
)

func (c Class) String() string {
	switch c {
	case ClassFlow:
		return "true"
	case ClassAnti:
		return "anti"
	case ClassOutput:
		return "output"
	case ClassInput:
		return "input"
	case ClassControl:
		return "control"
	}
	return "?"
}

// Direction is a dependence direction for one loop level, relating
// the source iteration to the sink iteration.
type Direction uint8

// Directions.
const (
	DirLt   Direction = iota // <  : source iteration earlier
	DirEq                    // =
	DirGt                    // >
	DirStar                  // *  : unknown
	DirLe                    // <=
	DirGe                    // >=
)

func (d Direction) String() string {
	switch d {
	case DirLt:
		return "<"
	case DirEq:
		return "="
	case DirGt:
		return ">"
	case DirStar:
		return "*"
	case DirLe:
		return "<="
	case DirGe:
		return ">="
	}
	return "?"
}

// Mark is the editor's dependence-marking state: Ped marks each
// dependence proven (an exact test proved it exists), pending (could
// not be disproven), or — after user interaction — accepted/rejected.
type Mark uint8

// Marking states.
const (
	MarkProven Mark = iota
	MarkPending
	MarkAccepted
	MarkRejected
)

func (m Mark) String() string {
	switch m {
	case MarkProven:
		return "proven"
	case MarkPending:
		return "pending"
	case MarkAccepted:
		return "accepted"
	case MarkRejected:
		return "rejected"
	}
	return "?"
}

// Dependence is one edge of the dependence graph. A session keeps
// thousands of them alive, so the struct is laid out small: the
// enumerations are bytes, and what belongs to the reference pair or is
// the same for many edges sits behind shared pointers — the Verdict of
// the test suite, and the per-loop Vectors, which the loop-independent
// edges of one nest depth share.
type Dependence struct {
	ID  int
	Sym *fortran.Symbol

	Src, Dst fortran.Stmt

	// Loop is the carrying loop; nil for loop-independent deps.
	Loop *cfg.Loop
	// Level is the 1-based carrier depth; 0 for loop-independent.
	Level int

	// Vectors carries Dirs, Dist and Known.
	*Vectors
	// Verdict carries Test, Reason and Blockers.
	*Verdict

	Class Class
	Mark  Mark
}

// Vectors holds an edge's per-loop vectors. Edges may share one (and
// edges of one reference pair share its slices): it must not be
// modified.
type Vectors struct {
	// Dirs holds one direction per common loop, outermost first.
	Dirs []Direction
	// Dist holds the dependence distance per common loop where
	// known; Known flags validity. Both are nil on loop-independent
	// edges.
	Dist  []int64
	Known []bool
}

// Verdict is what the test suite concluded about a reference pair. It
// is shared between edges and must not be modified.
type Verdict struct {
	// Test names the subscript test that decided this dependence
	// ("strong-siv", "banerjee", ... or "scalar"/"call").
	Test string
	// Reason holds a one-line explanation for the dependence pane.
	Reason string
	// Blockers names the symbolic terms that prevented disproof when
	// Reason is "symbolic" — the variables an assertion should bound.
	Blockers []string
}

// Carried reports whether the dependence is loop carried.
func (d *Dependence) Carried() bool { return d.Level > 0 }

// DirString formats the direction vector, e.g. "(<,=)".
func (d *Dependence) DirString() string {
	if len(d.Dirs) == 0 {
		return "()"
	}
	b := append(make([]byte, 0, 32), '(')
	for i, dir := range d.Dirs {
		if i > 0 {
			b = append(b, ',')
		}
		if d.Known != nil && i < len(d.Known) && d.Known[i] {
			b = strconv.AppendInt(b, d.Dist[i], 10)
		} else {
			b = append(b, dir.String()...)
		}
	}
	return string(append(b, ')'))
}

func (d *Dependence) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s dep on %s %s", d.Class, d.Sym.Name, d.DirString())
	if d.Level > 0 {
		fmt.Fprintf(&b, " carried at level %d", d.Level)
	} else {
		b.WriteString(" loop independent")
	}
	return b.String()
}

// Graph is the dependence graph of one program unit.
type Graph struct {
	Unit *fortran.Unit
	Deps []*Dependence
	// Stats records per-test pair counts for the effectiveness table.
	Stats Stats
	// Patches counts the Patch calls since the graph's last full run. At
	// zero, IDs and Stats are those a from-scratch analysis assigns.
	Patches int
	// Assertions is the environment the graph was tested under — the
	// user's assertions and the constants the unit's callers bind —
	// which a pair asked about later (Between) must be tested under too.
	Assertions *expr.Env

	byLoop map[*cfg.Loop][]*Dependence

	// Edges and their vectors are carved from chunks the graph owns
	// instead of being allocated one by one.
	deps  slab[Dependence]
	vecs  slab[Vectors]
	dirs  slab[Direction]
	dists slab[int64]
	flags slab[bool]
}

// slab hands out slices carved from chunks that grow with the amount
// already handed out (an eighth of it, between 4 and 512 elements): a
// graph costs one allocation per chunk rather than one per edge, a
// patch that adds three edges to a large graph starts with a small
// chunk of its own, and the unused tail of the last chunk stays below
// an eighth of what the graph holds.
type slab[T any] struct {
	free  []T
	taken int
}

// take returns a zeroed slice of n elements with no spare capacity, so
// appending to it cannot reach a neighbour.
func (s *slab[T]) take(n int) []T {
	if n > len(s.free) {
		s.free = make([]T, max(n, min(max(s.taken/8, 4), 512)))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	s.taken += n
	return out
}

// Stats counts how the hierarchical test suite performed.
type Stats struct {
	PairsTested int
	// Applied counts applications per test name; Disproved counts
	// pairs proven independent per test name; Proven counts pairs an
	// exact test proved dependent.
	Applied   map[string]int
	Disproved map[string]int
	Proven    map[string]int
}

func newStats() Stats {
	return Stats{Applied: map[string]int{}, Disproved: map[string]int{}, Proven: map[string]int{}}
}

func (s *Stats) clone() Stats {
	c := newStats()
	c.PairsTested = s.PairsTested
	for k, v := range s.Applied {
		c.Applied[k] = v
	}
	for k, v := range s.Disproved {
		c.Disproved[k] = v
	}
	for k, v := range s.Proven {
		c.Proven[k] = v
	}
	return c
}

func (s *Stats) merge(name string, outcome testOutcome) {
	s.Applied[name]++
	switch outcome {
	case outcomeIndependent:
		s.Disproved[name]++
	case outcomeProven:
		s.Proven[name]++
	}
}

// LoopDeps returns all dependences carried by or contained in loop l
// (every dep whose endpoints both lie in l's body), the list Ped's
// dependence pane shows when the user selects a loop.
func (g *Graph) LoopDeps(l *cfg.Loop) []*Dependence {
	return g.byLoop[l]
}

// CarriedAt returns the dependences carried exactly at loop l's level.
func (g *Graph) CarriedAt(l *cfg.Loop) []*Dependence {
	var out []*Dependence
	for _, d := range g.byLoop[l] {
		if d.Loop == l {
			out = append(out, d)
		}
	}
	return out
}

// DepByID returns the dependence with the given ID, or nil. IDs are
// dense — finalize numbers Deps[i] i+1 after a full run and after a
// patch alike.
func (g *Graph) DepByID(id int) *Dependence {
	if id < 1 || id > len(g.Deps) || g.Deps[id-1].ID != id {
		return nil
	}
	return g.Deps[id-1]
}
