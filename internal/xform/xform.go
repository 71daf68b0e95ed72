// Package xform implements ParaScope's interactive program
// transformations under the power-steering paradigm: for each
// transformation the system diagnoses whether it is applicable
// (syntactically possible), safe (dependence-preserving) and
// profitable, then carries out the mechanical rewriting; the user
// supplies the judgement.
package xform

import (
	"fmt"
	"strings"

	"parascope/internal/cfg"
	"parascope/internal/dataflow"
	"parascope/internal/dep"
	"parascope/internal/expr"
	"parascope/internal/fortran"
	"parascope/internal/perf"
)

// Verdict is the power-steering diagnosis shown to the user before a
// transformation is applied.
type Verdict struct {
	Applicable bool
	Safe       bool
	Profitable bool
	Notes      []string
}

// OK reports whether the transformation may be applied (applicable
// and safe; profitability is advisory).
func (v Verdict) OK() bool { return v.Applicable && v.Safe }

func (v Verdict) String() string {
	status := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	s := fmt.Sprintf("applicable: %s, safe: %s, profitable: %s",
		status(v.Applicable), status(v.Safe), status(v.Profitable))
	if len(v.Notes) > 0 {
		s += " — " + strings.Join(v.Notes, "; ")
	}
	return s
}

func (v *Verdict) note(format string, args ...interface{}) {
	v.Notes = append(v.Notes, fmt.Sprintf(format, args...))
}

// Context carries the analysis state a transformation consults and
// the ingredients needed to refresh it after a rewrite.
type Context struct {
	File *fortran.File
	Unit *fortran.Unit
	DF   *dataflow.Analysis
	Deps *dep.Graph

	Effects    dataflow.SideEffects
	Assertions *expr.Env
	Summaries  dep.Summaries
	Opts       dep.Options
	// Est prices the loops a check diagnoses for profitability.
	Est *perf.Estimator
}

// NewContext analyzes unit and returns a ready context, with an
// estimator of its own.
func NewContext(file *fortran.File, unit *fortran.Unit, eff dataflow.SideEffects,
	assertions *expr.Env, summ dep.Summaries, opts dep.Options) *Context {
	c := &Context{File: file, Unit: unit, Effects: eff, Assertions: assertions,
		Summaries: summ, Opts: opts, Est: perf.New(file, perf.DefaultParams())}
	c.Refresh()
	return c
}

// Refresh re-runs analysis after the AST changed.
func (c *Context) Refresh() {
	c.File.RenumberStmts()
	c.DF = dataflow.Analyze(c.Unit, c.Effects)
	c.Deps = dep.Analyze(c.DF, c.Assertions, c.Summaries, c.Opts)
}

// Loop re-finds the loop wrapper for a DO statement after a refresh.
func (c *Context) Loop(do *fortran.DoStmt) *cfg.Loop {
	return c.DF.Tree.LoopOf(do)
}

// Transformation is one power-steering transformation instance,
// parameterized at construction.
type Transformation interface {
	Name() string
	Check(c *Context) Verdict
	// Apply performs the rewrite. The caller must Refresh the
	// context afterwards. Apply must only be called when Check
	// reports OK.
	Apply(c *Context) error
}

// ---------------------------------------------------------------------------
// Shared helpers

// staleLoop reports that the DO statement is not part of the current
// analysis (it was removed or replaced by a prior transformation);
// verdicts on stale targets are never applicable.
func staleLoop(c *Context, do *fortran.DoStmt, v *Verdict) bool {
	if c.Loop(do) == nil {
		v.Applicable = false
		v.note("the loop is no longer part of the program (stale selection)")
		return true
	}
	return false
}

// findBody finds the statement list directly containing s, searching
// body and every list nested in it, along with s's index there. The
// list comes back by pointer so that a caller may splice it.
func findBody(body *[]fortran.Stmt, s fortran.Stmt) (*[]fortran.Stmt, int) {
	for i, x := range *body {
		if x == s {
			return body, i
		}
		var nested []*[]fortran.Stmt
		switch st := x.(type) {
		case *fortran.IfStmt:
			nested = []*[]fortran.Stmt{&st.Then, &st.Else}
		case *fortran.DoStmt:
			nested = []*[]fortran.Stmt{&st.Body}
		case *fortran.WhileStmt:
			nested = []*[]fortran.Stmt{&st.Body}
		}
		for _, nb := range nested {
			if b, j := findBody(nb, s); b != nil {
				return b, j
			}
		}
	}
	return nil, -1
}

// ReplaceStmt replaces old with repl in the unit — with nothing, which
// deletes it — reporting whether the unit has the statement. It is the
// one statement splicer: the transformations and the editor use it.
func ReplaceStmt(u *fortran.Unit, old fortran.Stmt, repl ...fortran.Stmt) bool {
	body, i := findBody(&u.Body, old)
	if body == nil {
		return false
	}
	*body = append(append(append([]fortran.Stmt{}, (*body)[:i]...), repl...), (*body)[i+1:]...)
	return true
}

// adjacent returns the statement list in which b directly follows a,
// and a's index in it; nil when they are not neighbours.
func adjacent(u *fortran.Unit, a, b fortran.Stmt) ([]fortran.Stmt, int) {
	if body, i := findBody(&u.Body, a); body != nil && i+1 < len(*body) && (*body)[i+1] == b {
		return *body, i
	}
	return nil, -1
}

// freshName derives from base a name the unit does not use yet.
func freshName(u *fortran.Unit, base string) string {
	name := base
	for i := 1; u.Syms[name] != nil; i++ {
		name = fmt.Sprintf("%s%d", base, i)
	}
	return name
}

// newScalar adds a fresh integer/real scalar to the unit, deriving
// its name from base.
func newScalar(u *fortran.Unit, base string, t fortran.Type) *fortran.Symbol {
	sym := &fortran.Symbol{Name: freshName(u, base), Kind: fortran.SymScalar, Type: t, Unit: u}
	u.Syms[sym.Name] = sym
	return sym
}

// newArray adds a fresh 1-d array of extent n to the unit.
func newArray(u *fortran.Unit, base string, t fortran.Type, n int64) *fortran.Symbol {
	sym := &fortran.Symbol{
		Name: freshName(u, base), Kind: fortran.SymArray, Type: t, Unit: u,
		Dims: []fortran.Dimension{{Lo: &fortran.IntLit{Val: 1}, Hi: &fortran.IntLit{Val: n}}},
	}
	u.Syms[sym.Name] = sym
	return sym
}

// sameBounds reports whether two loops have provably identical
// bounds and step.
func sameBounds(u *fortran.Unit, a, b *fortran.DoStmt) bool {
	eq := func(x, y fortran.Expr) bool {
		if x == nil && y == nil {
			return true
		}
		if x == nil {
			x = &fortran.IntLit{Val: 1}
		}
		if y == nil {
			y = &fortran.IntLit{Val: 1}
		}
		lx, okx := expr.Linearize(u, x)
		ly, oky := expr.Linearize(u, y)
		return okx && oky && lx.Equal(ly)
	}
	return eq(a.Lo, b.Lo) && eq(a.Hi, b.Hi) && eq(a.Step, b.Step)
}

// active reports whether d takes part in safety decisions: the user has
// not rejected it, and it is neither a control nor an input dependence.
func active(d *dep.Dependence) bool {
	return d.Mark != dep.MarkRejected && d.Class != dep.ClassControl && d.Class != dep.ClassInput
}

// activeDeps keeps the active dependences of deps.
func activeDeps(deps []*dep.Dependence) []*dep.Dependence {
	var out []*dep.Dependence
	for _, d := range deps {
		if active(d) {
			out = append(out, d)
		}
	}
	return out
}

// hasExits reports whether the body contains RETURN, STOP or GOTO —
// statements that disqualify restructuring transformations.
func hasExits(body []fortran.Stmt) bool {
	found := false
	fortran.WalkStmts(body, func(s fortran.Stmt) bool {
		switch s.(type) {
		case *fortran.ReturnStmt, *fortran.StopStmt, *fortran.GotoStmt:
			found = true
		}
		return !found
	})
	return found
}
