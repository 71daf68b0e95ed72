// Package codegen lowers parsed Fortran programs to Go main packages
// over one small runtime module: the compile execution backend. Scalars and arrays
// become typed Go locals, fixed-form control flow becomes structured
// Go (with labels for the GOTOs the interpreter resolves), and DO
// loops — sequential or marked `c$par doall` — run under the parrt
// package, the same loop protocol the interpreter imports, required
// by every generated module beside runfmt and the prelude; so compiled
// output is byte-identical to interpreted output at equal worker
// counts.
//
// The generator reads the interpreter's typing (interp.Prove,
// Proof.TypeOf, interp.Fold) and its operator and intrinsic tables:
// every expression has the type Proof.TypeOf gives it, and an operator
// or an intrinsic call is its row's Go form for that type. A program in
// which the proof marks a symbol — storage that may hold another type
// than a symbol naming it declares — is declined once, naming the
// symbol and the rule that marked it; so is an expression whose type
// only the run can tell, and any construct with no faithful
// lowering (COMMON declared with two kinds or shapes, a GOTO Go's label
// scoping cannot express). A *Declined error is not approximated
// around: callers fall back to the interpreter, and the generator
// never produces a program that could disagree with it.
package codegen

import (
	"fmt"
	"strconv"
	"strings"

	"parascope/internal/fortran"
	"parascope/internal/interp"
)

// Declined reports that the generator met a construct it cannot lower
// with interpreter-identical semantics. It is an expected condition,
// not a bug: callers should fall back to the interpreter backend.
type Declined struct{ Reason string }

func (d *Declined) Error() string { return "codegen: declined: " + d.Reason }

// IsDeclined reports whether err is a clean generator refusal.
func IsDeclined(err error) bool {
	_, ok := err.(*Declined)
	return ok
}

// gtype is the static Go-side type of an expression. The interpreter
// stores REAL and DOUBLE PRECISION in the same float64 field and
// formats them identically, so both collapse to tFloat; the
// distinction can never change a result.
type gtype int

const (
	tInt gtype = iota
	tFloat
	tBool
	tStr
)

func (t gtype) goName() string {
	switch t {
	case tInt:
		return "int64"
	case tFloat:
		return "float64"
	case tBool:
		return "bool"
	default:
		return "string"
	}
}

// xpr is one lowered expression: Go source text (always safe to embed
// in a larger expression) plus the Go type of the type Proof.TypeOf
// gives it.
type xpr struct {
	c string
	t gtype
}

// header opens every generated program: the runtime module's three
// packages (build.go stages them) and math, which not every program
// uses. The prelude is dot-imported — its exported names are the
// generator's vocabulary, and every name the generator makes up is
// lower-case and prefixed (u_, v_, cm_, lo3), so none can meet one.
const header = `package main

import (
	"math"

	"rt/parrt"
	. "rt/prelude"
	"rt/runfmt"
)

var (
	_ = math.Pow
	_ = parrt.New
	_ = runfmt.Line
)

`

type gen struct {
	file *fortran.File
	// typing is the interpreter's: Generate declines a program in which
	// it marks a symbol, so every other storage holds its declared type.
	typing interp.Proof
	unit   *fortran.Unit
	buf    strings.Builder
	ind    int
	tmp    int

	// bodies is the stack of statement bodies enclosing the current
	// lowering position, innermost last — the same chain the
	// interpreter walks to resolve a GOTO.
	bodies [][]fortran.Stmt

	// usedLabels holds, per unit, the labels at least one GOTO
	// actually resolves to; only those become Go labels (Go rejects
	// unused labels).
	usedLabels map[int]bool

	// commonName maps "block/name" to the mangled Go global; used to
	// detect mangling collisions.
	commonName map[string]string
	// commonSym remembers the first declaration seen for each common
	// cell so later units can be checked for kind and shape agreement.
	commonSym map[string]*fortran.Symbol
}

// Generate lowers f to the source text of a Go main package, or
// returns *Declined if some construct cannot be lowered faithfully.
func Generate(f *fortran.File) (src string, err error) {
	defer func() {
		if r := recover(); r != nil {
			if d, ok := r.(*Declined); ok {
				err = d
				return
			}
			panic(r)
		}
	}()
	g := &gen{file: f, typing: interp.Prove(f), commonName: map[string]string{}, commonSym: map[string]*fortran.Symbol{}}
	main := f.Main()
	if main == nil {
		g.decline("no main program")
	}
	// The first marked symbol in unit and name order, so that the
	// reason does not depend on map order.
	for i := 0; len(g.typing) > 0 && i < len(f.Units); i++ {
		for _, sym := range f.Units[i].SymbolsSorted() {
			if origin := g.typing[sym]; origin != "" {
				g.decline("%s of %s may hold another type than its declared %s: %s", sym.Name, sym.Unit.Name, sym.Type, origin)
			}
		}
	}
	unitNames := map[string]bool{}
	for _, u := range f.Units {
		if unitNames[mangleUnit(u.Name)] {
			g.decline("duplicate unit name %s", u.Name)
		}
		unitNames[mangleUnit(u.Name)] = true
	}
	var out strings.Builder
	out.WriteString("// Code generated by pedc from " + f.Path + ". DO NOT EDIT.\n")
	out.WriteString(header)
	g.genCommons(&out)
	for _, u := range f.Units {
		g.genUnit(&out, u)
	}
	fmt.Fprintf(&out, "func main() { Main(%s) }\n", mangleUnit(main.Name))
	return out.String(), nil
}

func (g *gen) decline(format string, args ...any) {
	panic(&Declined{Reason: fmt.Sprintf(format, args...)})
}

// ---------------------------------------------------------------------------
// Name mangling

func mangleUnit(name string) string { return "u_" + name }
func mangleVar(name string) string  { return "v_" + name }
func mangleCommon(block, name string) string {
	return "cm_" + block + "_" + name
}

// ---------------------------------------------------------------------------
// Constants: interp.Fold evaluates them, with the interpreter's own
// operations; the generator only renders the value.

// lit renders a folded constant as a literal of type t, converted the
// way a store to t converts.
func lit(v interp.Value, t gtype) string {
	switch t {
	case tInt:
		return intLit(v.Int())
	case tFloat:
		return floatLit(v.Float())
	case tBool:
		return strconv.FormatBool(v.B)
	}
	return strconv.Quote(v.S)
}

// intLit renders v through the prelude's CI identity helper. The
// wrapper makes the literal a non-constant typed int64, so Go's
// compile-time constant arithmetic can never reject (overflow,
// division by zero) an expression the interpreter evaluates at
// runtime.
func intLit(v int64) string {
	return "CI(" + strconv.FormatInt(v, 10) + ")"
}

// floatLit renders f as Go source that evaluates to exactly f: the
// shortest round-trip decimal form, which Go rounds back to the
// identical float64; CF makes it non-constant (see intLit).
func floatLit(f float64) string {
	switch {
	case f != f:
		return "math.NaN()"
	case f > 1.7976931348623157e308:
		return "math.Inf(1)"
	case f < -1.7976931348623157e308:
		return "math.Inf(-1)"
	}
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return "CF(" + s + ")"
}

// ---------------------------------------------------------------------------
// Types and storage

// goType is the Go type that holds values of t, false for TypeUnknown.
func goType(t fortran.Type) (gtype, bool) {
	switch t {
	case fortran.TypeInteger:
		return tInt, true
	case fortran.TypeReal, fortran.TypeDouble:
		return tFloat, true
	case fortran.TypeLogical:
		return tBool, true
	case fortran.TypeCharacter:
		return tStr, true
	}
	return tInt, false
}

func (g *gen) symType(sym *fortran.Symbol) gtype {
	t, ok := goType(sym.Type)
	if !ok {
		g.decline("%s: unknown type", sym.Name)
	}
	return t
}

func zeroLit(t gtype) string {
	switch t {
	case tInt:
		return "int64(0)"
	case tFloat:
		return "float64(0)"
	case tBool:
		return "false"
	default:
		return `""`
	}
}

// scalRef returns the Go lvalue/rvalue expression for a scalar
// symbol: a plain local, a dereferenced pointer parameter, or a
// common-block global. Inside a DOALL worker closure, privatized
// symbols shadow these names, so the same text works there too.
func (g *gen) scalRef(sym *fortran.Symbol) string {
	if sym.Common != "" {
		return mangleCommon(sym.Common, sym.Name)
	}
	if sym.Dummy {
		return "(*" + mangleVar(sym.Name) + ")"
	}
	return mangleVar(sym.Name)
}

// arrName returns the Go variable holding a symbol's array storage.
func (g *gen) arrName(sym *fortran.Symbol) string {
	if sym.Common != "" {
		return mangleCommon(sym.Common, sym.Name)
	}
	return mangleVar(sym.Name)
}

// refFn is the by-value cell allocator for a type (fresh storage for
// expression actuals, mirroring the interpreter's fresh cells).
func refFn(t gtype) string {
	switch t {
	case tInt:
		return "RefI"
	case tFloat:
		return "RefF"
	case tBool:
		return "RefB"
	default:
		return "RefS"
	}
}

// ---------------------------------------------------------------------------
// Common blocks

// genCommons emits one package-level Go variable per common cell,
// declining when two units disagree about a cell's kind or (for
// arrays) folded shape. Two types for one cell never reach here: the
// proof marks both members.
func (g *gen) genCommons(out *strings.Builder) {
	var keys []string
	for _, u := range g.file.Units {
		g.unit = u
		for _, sym := range u.SymbolsSorted() {
			if sym.Common == "" || sym.Dummy {
				continue
			}
			if sym.Kind != fortran.SymScalar && sym.Kind != fortran.SymArray {
				continue
			}
			key := sym.Common + "/" + sym.Name
			if prev, ok := g.commonSym[key]; ok {
				if prev.Kind != sym.Kind {
					g.decline("common %s declared with different kinds across units", key)
				}
				if sym.Kind == fortran.SymArray {
					pl, pe := g.foldDims(prev)
					sl, se := g.foldDims(sym)
					if !int64sEq(pl, sl) || !int64sEq(pe, se) {
						g.decline("common array %s declared with different shapes across units", key)
					}
				}
				continue
			}
			name := mangleCommon(sym.Common, sym.Name)
			for k, n := range g.commonName {
				if n == name && k != key {
					g.decline("common name mangling collision: %s vs %s", k, key)
				}
			}
			g.commonName[key] = name
			g.commonSym[key] = sym
			keys = append(keys, key)
			switch sym.Kind {
			case fortran.SymScalar:
				fmt.Fprintf(out, "var %s %s\n", name, g.symType(sym).goName())
			case fortran.SymArray:
				lo, hi := g.foldDims(sym)
				fmt.Fprintf(out, "var %s = Mkdim[%s](%s)\n", name, g.symType(sym).goName(), dimArgs(lo, hi))
			}
		}
	}
	if len(keys) > 0 {
		out.WriteString("\n")
	}
}

// foldDims folds an array's declared bounds to constants, declining
// on adjustable or assumed-size shapes for allocated arrays.
func (g *gen) foldDims(sym *fortran.Symbol) (lo, hi []int64) {
	for _, d := range sym.Dims {
		l := int64(1)
		if d.Lo != nil {
			v, ok := interp.Fold(d.Lo)
			if !ok {
				g.decline("%s: non-constant array lower bound", sym.Name)
			}
			l = v.Int()
		}
		if d.Hi == nil {
			g.decline("%s: assumed-size array needs a caller binding", sym.Name)
		}
		v, ok := interp.Fold(d.Hi)
		if !ok {
			g.decline("%s: non-constant array bound", sym.Name)
		}
		h := v.Int()
		if h < l {
			g.decline("%s: extent [%d,%d] empty", sym.Name, l, h)
		}
		lo = append(lo, l)
		hi = append(hi, h)
	}
	return lo, hi
}

func dimArgs(lo, hi []int64) string {
	parts := make([]string, 0, 2*len(lo))
	for i := range lo {
		parts = append(parts, intLit(lo[i]), intLit(hi[i]))
	}
	return strings.Join(parts, ", ")
}

func int64sEq(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Units

func (g *gen) genUnit(out *strings.Builder, u *fortran.Unit) {
	g.unit = u
	g.buf.Reset()
	g.ind = 1
	g.bodies = nil
	g.usedLabels = map[int]bool{}
	g.markUsedLabels(u.Body, [][]fortran.Stmt{u.Body})
	// A Go label is declared once per function: a GOTO target that
	// labels two statements of the unit has no lowering.
	labeled := map[int]bool{}
	fortran.WalkStmts(u.Body, func(s fortran.Stmt) bool {
		if l := fortran.StmtLabel(s); g.usedLabels[l] {
			if labeled[l] {
				g.decline("%s: label %d on more than one statement", u.Name, l)
			}
			labeled[l] = true
		}
		return true
	})

	// Signature.
	var params []string
	for _, a := range u.Args {
		switch a.Kind {
		case fortran.SymScalar:
			params = append(params, mangleVar(a.Name)+" *"+g.symType(a).goName())
		case fortran.SymArray:
			params = append(params, mangleVar(a.Name)+" Arr["+g.symType(a).goName()+"]")
		default:
			g.decline("%s: argument %s has unsupported kind", u.Name, a.Name)
		}
	}
	ret := ""
	var resultSym *fortran.Symbol
	if u.Kind == fortran.UnitFunction {
		resultSym = u.Lookup(u.Name)
		if resultSym == nil || resultSym.Kind != fortran.SymScalar {
			g.decline("function %s has no scalar result variable", u.Name)
		}
		ret = " " + g.symType(resultSym).goName()
	}
	fmt.Fprintf(out, "func %s(%s)%s {\n", mangleUnit(u.Name), strings.Join(params, ", "), ret)

	// Locals, in the interpreter's deterministic symbol order.
	for _, sym := range u.SymbolsSorted() {
		if sym.Dummy || sym.Common != "" {
			continue
		}
		switch sym.Kind {
		case fortran.SymScalar:
			init := zeroLit(g.symType(sym))
			if sym.Value != nil {
				// The interpreter ignores evaluation errors here and
				// keeps the zero value, so an unfoldable initializer
				// degrades identically.
				if v, ok := interp.Fold(sym.Value); ok {
					init = lit(v, g.symType(sym))
				}
			}
			fmt.Fprintf(out, "\t%s := %s\n\t_ = %s\n", mangleVar(sym.Name), init, mangleVar(sym.Name))
		case fortran.SymArray:
			lo, hi := g.foldDims(sym)
			fmt.Fprintf(out, "\t%s := Mkdim[%s](%s)\n\t_ = %s\n",
				mangleVar(sym.Name), g.symType(sym).goName(), dimArgs(lo, hi), mangleVar(sym.Name))
		}
	}

	g.stmts(u.Body)
	out.WriteString(g.buf.String())
	if u.Kind == fortran.UnitFunction {
		fmt.Fprintf(out, "\treturn %s\n", mangleVar(resultSym.Name))
	}
	out.WriteString("}\n\n")
}

// markUsedLabels records which labels some GOTO resolves to, using
// the interpreter's resolution rule (innermost enclosing body that
// contains the label).
func (g *gen) markUsedLabels(body []fortran.Stmt, stack [][]fortran.Stmt) {
	for _, s := range body {
		switch st := s.(type) {
		case *fortran.GotoStmt:
			if st.Target <= 0 {
				// The interpreter resolves a label-0 GOTO to the first
				// *unlabeled* statement; that cannot be expressed with
				// unique Go labels, so such programs are declined.
				g.decline("GOTO with label %d", st.Target)
			}
			if g.resolveGotoIn(stack, st.Target) {
				g.usedLabels[st.Target] = true
			}
		case *fortran.IfStmt:
			g.markUsedLabels(st.Then, append(stack, st.Then))
			g.markUsedLabels(st.Else, append(stack, st.Else))
		case *fortran.DoStmt:
			g.markUsedLabels(st.Body, append(stack, st.Body))
		case *fortran.WhileStmt:
			g.markUsedLabels(st.Body, append(stack, st.Body))
		}
	}
}

func (g *gen) resolveGotoIn(stack [][]fortran.Stmt, target int) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		for _, cand := range stack[i] {
			if fortran.StmtLabel(cand) == target {
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Statements

func (g *gen) w(format string, args ...any) {
	g.buf.WriteString(strings.Repeat("\t", g.ind))
	fmt.Fprintf(&g.buf, format, args...)
	g.buf.WriteByte('\n')
}

func (g *gen) stmts(body []fortran.Stmt) {
	g.bodies = append(g.bodies, body)
	for _, s := range body {
		g.stmt(s)
	}
	g.bodies = g.bodies[:len(g.bodies)-1]
}

func (g *gen) stmt(s fortran.Stmt) {
	if l := fortran.StmtLabel(s); l != 0 && g.usedLabels[l] {
		// Labels sit at Fortran statement boundaries; every multi-line
		// lowering below is brace-wrapped, so a label never crosses a
		// Go declaration scope.
		g.buf.WriteString(strings.Repeat("\t", g.ind-1))
		fmt.Fprintf(&g.buf, "L%d:\n", l)
		if _, ok := s.(*fortran.ContinueStmt); ok {
			g.w("{}")
			return
		}
	}
	switch st := s.(type) {
	case *fortran.AssignStmt:
		g.assign(st)
	case *fortran.IfStmt:
		cond := g.expr(st.Cond)
		if cond.t != tBool {
			g.decline("IF condition is not logical")
		}
		g.w("if %s {", cond.c)
		g.ind++
		g.stmts(st.Then)
		g.ind--
		if len(st.Else) > 0 {
			g.w("} else {")
			g.ind++
			g.stmts(st.Else)
			g.ind--
		}
		g.w("}")
	case *fortran.DoStmt:
		g.genDo(st)
	case *fortran.WhileStmt:
		cond := g.expr(st.Cond)
		if cond.t != tBool {
			g.decline("DO WHILE condition is not logical")
		}
		g.w("for %s {", cond.c)
		g.ind++
		g.stmts(st.Body)
		g.ind--
		g.w("}")
	case *fortran.CallStmt:
		if st.Callee == nil {
			g.decline("call to unknown subroutine %s", st.Name)
		}
		g.w("%s(%s)", mangleUnit(st.Callee.Name), g.bindArgs(st.Callee, st.Args))
	case *fortran.ReturnStmt:
		g.genReturn()
	case *fortran.StopStmt:
		if g.unit.Kind == fortran.UnitProgram {
			g.w("return")
		} else {
			// The interpreter treats STOP inside a procedure as a
			// runtime error; mirror that.
			g.w("RtErr(%q)", fmt.Sprintf("STOP inside %s %s", g.unit.Kind, g.unit.Name))
		}
	case *fortran.ContinueStmt:
		// no-op (labeled form handled above)
	case *fortran.GotoStmt:
		if g.resolveGotoIn(g.bodies, st.Target) {
			g.w("goto L%d", st.Target)
		} else if g.unit.Kind == fortran.UnitProgram {
			g.w("RtErr(%q)", fmt.Sprintf("unresolved GOTO %d", st.Target))
		} else {
			// The interpreter lets an unresolved GOTO escape the
			// procedure body, which its caller treats as a return.
			g.genReturn()
		}
	case *fortran.PrintStmt:
		parts := make([]string, 0, len(st.Items))
		for _, it := range st.Items {
			x := g.expr(it)
			switch x.t {
			case tInt:
				parts = append(parts, "runfmt.Int("+x.c+")")
			case tFloat:
				parts = append(parts, "runfmt.Real("+x.c+")")
			case tBool:
				parts = append(parts, "runfmt.Logical("+x.c+")")
			default:
				parts = append(parts, x.c)
			}
		}
		g.w("Out(runfmt.Line([]string{%s}))", strings.Join(parts, ", "))
	case *fortran.ReadStmt:
		for _, it := range st.Items {
			vr, ok := it.(*fortran.VarRef)
			if !ok || vr.Sym == nil {
				g.decline("READ target must be a variable")
			}
			val := "RdF()"
			t := tFloat
			if vr.Sym.Type == fortran.TypeInteger {
				val = "int64(RdF())"
				t = tInt
			} else if g.symType(vr.Sym) != tFloat {
				g.decline("READ into non-numeric variable %s", vr.Sym.Name)
			}
			g.store(vr, xpr{val, t})
		}
	default:
		g.decline("cannot lower %T", s)
	}
}

func (g *gen) genReturn() {
	if g.unit.Kind == fortran.UnitFunction {
		g.w("return %s", mangleVar(g.unit.Name))
	} else {
		g.w("return")
	}
}

func (g *gen) assign(st *fortran.AssignStmt) {
	v := g.expr(st.Rhs)
	g.store(st.Lhs, v)
}

// store emits an assignment of v into ref with Fortran conversion.
func (g *gen) store(ref *fortran.VarRef, v xpr) {
	sym := ref.Sym
	if sym == nil {
		g.decline("unresolved reference %s", ref.Name)
	}
	target := g.symType(sym)
	conv := g.convert(v, target, sym.Name)
	if sym.IsArray() && len(ref.Subs) > 0 {
		// The right-hand side is evaluated before the subscripts, as in
		// the interpreter: Go would call the subscripts' functions first.
		a := g.arrName(sym)
		g.w("{ r := %s; %s.Data[%s.Idx(%s)] = r }", conv, a, a, g.subs(ref.Subs))
		return
	}
	if sym.IsArray() {
		g.decline("whole-array assignment to %s", sym.Name)
	}
	if sym.Kind == fortran.SymParam {
		g.decline("assignment to PARAMETER %s", sym.Name)
	}
	g.w("%s = %s", g.scalRef(sym), conv)
}

// convert renders Fortran assignment conversion of v to target.
func (g *gen) convert(v xpr, target gtype, what string) string {
	switch {
	case v.t == target:
		return v.c
	case v.t == tFloat && target == tInt:
		return "int64(" + v.c + ")"
	case v.t == tInt && target == tFloat:
		return "float64(" + v.c + ")"
	}
	g.decline("%s: cannot convert %s value to %s", what, v.t.goName(), target.goName())
	return ""
}

func (g *gen) subs(es []fortran.Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = g.toInt(g.expr(e))
	}
	return strings.Join(parts, ", ")
}

func (g *gen) toInt(x xpr) string {
	switch x.t {
	case tInt:
		return x.c
	case tFloat:
		// Subscripts and control expressions truncate, as Value.Int does.
		return "int64(" + x.c + ")"
	}
	g.decline("numeric value required")
	return ""
}

func (g *gen) toF(x xpr) string {
	switch x.t {
	case tInt:
		return "float64(" + x.c + ")"
	case tFloat:
		return x.c
	}
	g.decline("numeric value required")
	return ""
}
