package fortran

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Type is a Fortran data type.
type Type int

// Fortran data types.
const (
	TypeUnknown Type = iota
	TypeInteger
	TypeReal
	TypeDouble
	TypeLogical
	TypeCharacter
)

func (t Type) String() string {
	switch t {
	case TypeInteger:
		return "integer"
	case TypeReal:
		return "real"
	case TypeDouble:
		return "double precision"
	case TypeLogical:
		return "logical"
	case TypeCharacter:
		return "character"
	}
	return "unknown"
}

// Numeric reports whether t is a numeric type.
func (t Type) Numeric() bool {
	return t == TypeInteger || t == TypeReal || t == TypeDouble
}

// SymKind classifies entries in a symbol table.
type SymKind int

// Symbol kinds.
const (
	SymScalar SymKind = iota
	SymArray
	SymParam     // named constant from PARAMETER
	SymFunc      // external or statement function
	SymSubr      // subroutine
	SymIntrinsic // intrinsic function
)

func (k SymKind) String() string {
	switch k {
	case SymScalar:
		return "scalar"
	case SymArray:
		return "array"
	case SymParam:
		return "parameter"
	case SymFunc:
		return "function"
	case SymSubr:
		return "subroutine"
	case SymIntrinsic:
		return "intrinsic"
	}
	return "?"
}

// Dimension is one array dimension. Lo defaults to the literal 1; Hi
// is nil for assumed-size (*) trailing dimensions.
type Dimension struct {
	Lo Expr
	Hi Expr
}

// Symbol is one named entity in a program unit.
type Symbol struct {
	Name     string
	Kind     SymKind
	Type     Type
	Dims     []Dimension // arrays only
	Dummy    bool        // dummy (formal) argument
	External bool        // named by an EXTERNAL statement
	Common   string      // enclosing COMMON block name, "" if none
	Value    Expr        // PARAMETER value
	Unit     *Unit       // owning unit
}

// IsArray reports whether the symbol names an array.
func (s *Symbol) IsArray() bool { return s.Kind == SymArray }

func (s *Symbol) String() string { return s.Name }

// UnitKind distinguishes program units.
type UnitKind int

// Program unit kinds.
const (
	UnitProgram UnitKind = iota
	UnitSubroutine
	UnitFunction
)

func (k UnitKind) String() string {
	switch k {
	case UnitProgram:
		return "program"
	case UnitSubroutine:
		return "subroutine"
	case UnitFunction:
		return "function"
	}
	return "?"
}

// Unit is one program unit: a main program, subroutine or function.
type Unit struct {
	Kind    UnitKind
	Name    string
	RetType Type // functions only
	Args    []*Symbol
	Syms    map[string]*Symbol
	Body    []Stmt
	Line    int
	File    *File
}

// Lookup returns the symbol for name (already lower case), or nil.
func (u *Unit) Lookup(name string) *Symbol { return u.Syms[name] }

// SymbolsSorted returns the unit's symbols ordered by name for
// deterministic iteration.
func (u *Unit) SymbolsSorted() []*Symbol {
	out := make([]*Symbol, 0, len(u.Syms))
	for _, s := range u.Syms {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DeriveKinds gives each scalar or function name of u that a statement
// mentions the kind the statements give it — a function when an
// expression calls it or an EXTERNAL statement names it, a scalar
// otherwise — and reports whether a kind moved. It is the one place an
// existing name's kind changes: a parse enters new names but moves no
// kind. A name no statement mentions keeps the kind its declarations
// gave it, except a function name that is not EXTERNAL but is printed
// all the same — a dummy argument, or typed other than its name
// implies: a parse of the printed text makes that a scalar, and so
// does this.
func (u *Unit) DeriveKinds() (moved bool) {
	mentions := func(s *Symbol, calls bool) (found bool) {
		symRefs(u.Body, func(p **Symbol, call bool) { found = found || (call || !calls) && *p == s })
		return found
	}
	symRefs(u.Body, func(p **Symbol, call bool) {
		s, want := *p, SymFunc
		switch {
		case s == nil || s.Unit != u || !derivedKind(s.Kind):
			return
		case !call && !s.External && (s.Kind == SymScalar || !mentions(s, true)):
			want = SymScalar
		}
		moved = moved || s.Kind != want
		s.Kind = want
	})
	for _, s := range u.Syms {
		if s.Kind == SymFunc && !s.External && (s.Dummy || s.Type != implicitType(s.Name)) && !mentions(s, false) {
			s.Kind, moved = SymScalar, true
		}
	}
	return moved
}

// derivedKind reports whether DeriveKinds settles a name of kind k.
func derivedKind(k SymKind) bool { return k == SymScalar || k == SymFunc }

// Adopt makes u the unit nu describes — nu comes from File.ParseUnit and
// must not be used afterwards — while u stays the object it was, and so
// does every symbol whose name both units have: those take nu's
// attributes in place, and nu's statements and declarations are
// repointed at them. What the editor keys by *Unit and *Symbol
// (interprocedural summaries, constant formals, cost memo) therefore
// stays addressable across the swap. Two attributes stay: the EXTERNAL
// mark, which a text printed before the printer wrote EXTERNAL
// statements lacks, and the kind of a name nu's statements mention, so
// that the next DeriveKinds sees the move.
func (u *Unit) Adopt(nu *Unit) {
	kept := map[*Symbol]*Symbol{} // nu's symbol → u's of the same name
	was := map[*Symbol]SymKind{}  // u's kept symbol → its kind before
	for name, sym := range nu.Syms {
		if old, ok := u.Syms[name]; ok {
			was[old] = old.Kind
			sym.External = sym.External || old.External
			*old = *sym
			kept[sym] = old
			nu.Syms[name] = old
			sym = old
		}
		sym.Unit = u
	}
	swap := func(p **Symbol, _ bool) {
		if old, ok := kept[*p]; ok {
			*p = old
		}
	}
	fix := func(e Expr) { symRef(e, swap) }
	for i := range nu.Args {
		swap(&nu.Args[i], false)
	}
	for _, sym := range nu.Syms {
		for _, d := range sym.Dims {
			WalkExpr(d.Lo, fix)
			WalkExpr(d.Hi, fix)
		}
		WalkExpr(sym.Value, fix)
	}
	symRefs(nu.Body, func(p **Symbol, call bool) {
		swap(p, call)
		if k, ok := was[*p]; ok && derivedKind(k) && derivedKind((*p).Kind) {
			(*p).Kind = k
		}
	})
	u.Kind, u.Name, u.RetType, u.Line = nu.Kind, nu.Name, nu.RetType, nu.Line
	u.Args, u.Syms, u.Body = nu.Args, nu.Syms, nu.Body
}

// File is a parsed Fortran source file: an ordered list of program
// units plus retained comments.
type File struct {
	Path     string
	Units    []*Unit
	Comments []Comment

	nextUID int
	byID    []Stmt // by statement ID; byID[0] is nil
}

// Unit returns the unit with the given (lower-case) name, or nil.
func (f *File) Unit(name string) *Unit {
	for _, u := range f.Units {
		if u.Name == name {
			return u
		}
	}
	return nil
}

// Main returns the main program unit, or nil.
func (f *File) Main() *Unit {
	for _, u := range f.Units {
		if u.Kind == UnitProgram {
			return u
		}
	}
	return nil
}

// StmtByID returns the statement with the given ID, or nil.
func (f *File) StmtByID(id int) Stmt {
	if id <= 0 || id >= len(f.byID) {
		return nil
	}
	return f.byID[id]
}

// ---------------------------------------------------------------------------
// Statements

// Stmt is any executable statement.
type Stmt interface {
	base() *StmtBase
	// ID returns the statement's stable identity used by analyses.
	ID() int
	// UID returns the statement's edit-stable identity: assigned once
	// when the statement first enters the file and never reused, so it
	// survives RenumberStmts after edits (unlike ID, which is a dense
	// positional index rewritten on every renumber).
	UID() int
	// Line returns the statement's source line.
	Line() int
}

// StmtBase carries identity and position shared by all statements.
type StmtBase struct {
	SID   int
	SUID  int
	Label int
	LineN int
}

func (b *StmtBase) base() *StmtBase { return b }

// ID returns the statement's stable identity.
func (b *StmtBase) ID() int { return b.SID }

// UID returns the statement's edit-stable identity (0 until the
// statement has been through RenumberStmts).
func (b *StmtBase) UID() int { return b.SUID }

// Line returns the statement's source line.
func (b *StmtBase) Line() int { return b.LineN }

// AssignStmt is "lhs = rhs".
type AssignStmt struct {
	StmtBase
	Lhs *VarRef
	Rhs Expr
}

// IfStmt is a block IF; ELSE IF chains are nested in Else.
type IfStmt struct {
	StmtBase
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// DoStmt is a DO loop with a structured body. Parallel marks the loop
// as a DOALL (set by the parallelize transformation); Private and
// Reductions record the variable classification that accompanies it.
type DoStmt struct {
	StmtBase
	Var  *Symbol
	Lo   Expr
	Hi   Expr
	Step Expr // nil means 1
	Body []Stmt

	Parallel   bool
	Private    []*Symbol
	Reductions []Reduction
}

// Reduction describes a recognized reduction in a parallel loop.
type Reduction struct {
	Sym *Symbol
	Op  TokKind // TokPlus, TokStar, or TokIdent for max/min (Text in OpName)
	// OpName is "max" or "min" for intrinsic reductions, "" otherwise.
	OpName string
}

// WhileStmt is DO WHILE (cond) ... ENDDO.
type WhileStmt struct {
	StmtBase
	Cond Expr
	Body []Stmt
}

// CallStmt is CALL name(args).
type CallStmt struct {
	StmtBase
	Name   string
	Args   []Expr
	Callee *Unit // resolved by semantic analysis, nil for externals
}

// ReturnStmt is RETURN.
type ReturnStmt struct{ StmtBase }

// StopStmt is STOP.
type StopStmt struct{ StmtBase }

// ContinueStmt is CONTINUE.
type ContinueStmt struct{ StmtBase }

// GotoStmt is GOTO label.
type GotoStmt struct {
	StmtBase
	Target int
}

// PrintStmt is PRINT *, items or WRITE(*,*) items.
type PrintStmt struct {
	StmtBase
	Items []Expr
}

// ReadStmt is READ(*,*) items; targets must be variable references.
type ReadStmt struct {
	StmtBase
	Items []Expr
}

// ---------------------------------------------------------------------------
// Expressions

// Expr is any expression node.
type Expr interface {
	exprNode()
	String() string
}

// IntLit is an integer literal.
type IntLit struct{ Val int64 }

// RealLit is a real or double-precision literal.
type RealLit struct {
	Val    float64
	Double bool
	Text   string // original spelling for faithful unparsing
}

// LogLit is .true. or .false.
type LogLit struct{ Val bool }

// StrLit is a character literal.
type StrLit struct{ Val string }

// VarRef is a reference to a scalar, an array element (Subs non-nil),
// or a whole array (array symbol with no subscripts, e.g. as a CALL
// argument).
type VarRef struct {
	Sym  *Symbol
	Name string
	Subs []Expr
}

// FuncCall is an intrinsic or user function invocation.
type FuncCall struct {
	Sym    *Symbol
	Name   string
	Args   []Expr
	Callee *Unit // resolved user function, nil for intrinsics
}

// Unary is -x or .not. x or +x.
type Unary struct {
	Op TokKind
	X  Expr
}

// Binary is a binary operation.
type Binary struct {
	Op   TokKind
	X, Y Expr
}

func (*IntLit) exprNode()   {}
func (*RealLit) exprNode()  {}
func (*LogLit) exprNode()   {}
func (*StrLit) exprNode()   {}
func (*VarRef) exprNode()   {}
func (*FuncCall) exprNode() {}
func (*Unary) exprNode()    {}
func (*Binary) exprNode()   {}

func (e *IntLit) String() string  { return strconv.FormatInt(e.Val, 10) }
func (e *RealLit) String() string { return exprString(e) }
func (e *LogLit) String() string  { return exprString(e) }
func (e *StrLit) String() string  { return exprString(e) }
func (e *VarRef) String() string {
	if len(e.Subs) == 0 {
		return e.Name
	}
	return exprString(e)
}
func (e *FuncCall) String() string { return exprString(e) }
func (e *Unary) String() string    { return exprString(e) }
func (e *Binary) String() string   { return exprString(e) }

func exprString(e Expr) string {
	var b strings.Builder
	writeExpr(&b, e)
	return b.String()
}

// writeExpr appends e's Fortran text to b: what e.String() returns,
// without building a string per subexpression.
func writeExpr(b *strings.Builder, e Expr) {
	switch e := e.(type) {
	case *IntLit:
		var buf [20]byte
		b.Write(strconv.AppendInt(buf[:0], e.Val, 10))
	case *RealLit:
		if e.Text != "" {
			b.WriteString(e.Text)
			return
		}
		var buf [32]byte
		b.Write(strconv.AppendFloat(buf[:0], e.Val, 'g', -1, 64))
	case *LogLit:
		if e.Val {
			b.WriteString(".true.")
		} else {
			b.WriteString(".false.")
		}
	case *StrLit:
		b.WriteByte('\'')
		b.WriteString(strings.ReplaceAll(e.Val, "'", "''"))
		b.WriteByte('\'')
	case *VarRef:
		b.WriteString(e.Name)
		if len(e.Subs) > 0 {
			writeArgs(b, e.Subs, ",")
		}
	case *FuncCall:
		b.WriteString(e.Name)
		writeArgs(b, e.Args, ",")
	case *Unary:
		switch e.Op {
		case TokMinus:
			b.WriteByte('-')
		case TokPlus:
			b.WriteByte('+')
		case TokNot:
			b.WriteString(".not. ")
		default:
			b.WriteByte('?')
			writeExpr(b, e.X)
			return
		}
		_, bin := e.X.(*Binary)
		writeParen(b, e.X, bin)
	case *Binary:
		x, ok := e.X.(*Binary)
		writeParen(b, e.X, ok && precOf(x.Op) < precOf(e.Op))
		b.WriteString(binOpText(e.Op))
		y, ok := e.Y.(*Binary)
		writeParen(b, e.Y, ok && precOf(y.Op) <= precOf(e.Op) && !commutesWith(e.Op, y.Op))
	}
}

// writeArgs appends "(a<sep>b...)".
func writeArgs(b *strings.Builder, args []Expr, sep string) {
	b.WriteByte('(')
	for i, a := range args {
		if i > 0 {
			b.WriteString(sep)
		}
		writeExpr(b, a)
	}
	b.WriteByte(')')
}

func writeParen(b *strings.Builder, e Expr, paren bool) {
	if paren {
		b.WriteByte('(')
	}
	writeExpr(b, e)
	if paren {
		b.WriteByte(')')
	}
}

// commutesWith reports whether the right operand's operator can be
// left unparenthesized: a+(b+c) and a*(b*c) print fine without parens.
func commutesWith(outer, inner TokKind) bool {
	return (outer == TokPlus && inner == TokPlus) || (outer == TokStar && inner == TokStar)
}

func binOpText(op TokKind) string {
	switch op {
	case TokPlus:
		return " + "
	case TokMinus:
		return " - "
	case TokStar:
		return "*"
	case TokSlash:
		return "/"
	case TokPower:
		return "**"
	case TokLt:
		return " .lt. "
	case TokLe:
		return " .le. "
	case TokGt:
		return " .gt. "
	case TokGe:
		return " .ge. "
	case TokEqEq:
		return " .eq. "
	case TokNe:
		return " .ne. "
	case TokAnd:
		return " .and. "
	case TokOr:
		return " .or. "
	case TokConcat:
		return " // "
	}
	return "?"
}

// precOf returns operator precedence (higher binds tighter).
func precOf(op TokKind) int {
	switch op {
	case TokOr:
		return 1
	case TokAnd:
		return 2
	case TokLt, TokLe, TokGt, TokGe, TokEqEq, TokNe:
		return 4
	case TokConcat:
		return 5
	case TokPlus, TokMinus:
		return 6
	case TokStar, TokSlash:
		return 7
	case TokPower:
		return 8
	}
	return 0
}

// ---------------------------------------------------------------------------
// Walking

// WalkStmts calls fn for every statement in body, recursively,
// pre-order. If fn returns false, the children of that statement are
// skipped.
func WalkStmts(body []Stmt, fn func(Stmt) bool) {
	for _, s := range body {
		if !fn(s) {
			continue
		}
		switch st := s.(type) {
		case *IfStmt:
			WalkStmts(st.Then, fn)
			WalkStmts(st.Else, fn)
		case *DoStmt:
			WalkStmts(st.Body, fn)
		case *WhileStmt:
			WalkStmts(st.Body, fn)
		}
	}
}

// EditExprs calls fn on each expression slot of s in source order —
// not on the expressions inside it, nor on nested statements — and
// stores what fn returns in the slot when it differs, so a walk that
// returns every slot unchanged writes nothing and may run beside other
// readers of the statement. An empty slot (a DO without a step) is
// skipped; fn must return a *VarRef for an assignment's target.
func EditExprs(s Stmt, fn func(Expr) Expr) {
	slot := func(p *Expr) {
		if *p != nil {
			if e := fn(*p); e != *p {
				*p = e
			}
		}
	}
	list := func(es []Expr) {
		for i := range es {
			slot(&es[i])
		}
	}
	switch st := s.(type) {
	case *AssignStmt:
		if e := fn(st.Lhs); e != Expr(st.Lhs) {
			st.Lhs = e.(*VarRef)
		}
		slot(&st.Rhs)
	case *IfStmt:
		slot(&st.Cond)
	case *DoStmt:
		slot(&st.Lo)
		slot(&st.Hi)
		slot(&st.Step)
	case *WhileStmt:
		slot(&st.Cond)
	case *CallStmt:
		list(st.Args)
	case *PrintStmt:
		list(st.Items)
	case *ReadStmt:
		list(st.Items)
	}
}

// WalkExprs calls fn for every expression appearing in the statement
// (not recursing into nested statements), each slot pre-order.
func WalkExprs(s Stmt, fn func(Expr)) {
	EditExprs(s, func(e Expr) Expr {
		WalkExpr(e, fn)
		return e
	})
}

// symRefs calls fn with a pointer to every symbol reference in the
// statements of body — each DO variable and the names its annotations
// list, then each expression's (symRef) — in walk order.
func symRefs(body []Stmt, fn func(p **Symbol, call bool)) {
	WalkStmts(body, func(s Stmt) bool {
		if do, ok := s.(*DoStmt); ok {
			fn(&do.Var, false)
			for i := range do.Private {
				fn(&do.Private[i], false)
			}
			for i := range do.Reductions {
				fn(&do.Reductions[i].Sym, false)
			}
		}
		WalkExprs(s, func(e Expr) { symRef(e, fn) })
		return true
	})
}

// symRef calls fn with a pointer to e's symbol when e is a variable
// reference or, call set, a function call.
func symRef(e Expr, fn func(p **Symbol, call bool)) {
	switch x := e.(type) {
	case *VarRef:
		fn(&x.Sym, false)
	case *FuncCall:
		fn(&x.Sym, true)
	}
}

// WalkExpr calls fn for e and every expression inside it, pre-order: a
// reference before its subscripts, a call before its arguments.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *VarRef:
		for _, s := range x.Subs {
			WalkExpr(s, fn)
		}
	case *FuncCall:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *Unary:
		WalkExpr(x.X, fn)
	case *Binary:
		WalkExpr(x.X, fn)
		WalkExpr(x.Y, fn)
	}
}

// AnyExpr reports whether pred holds for e or any expression inside it.
func AnyExpr(e Expr, pred func(Expr) bool) bool {
	found := false
	WalkExpr(e, func(x Expr) {
		found = found || pred(x)
	})
	return found
}

// Mentions reports whether e holds a variable reference to sym.
func Mentions(e Expr, sym *Symbol) bool {
	return AnyExpr(e, func(x Expr) bool {
		vr, ok := x.(*VarRef)
		return ok && vr.Sym == sym
	})
}

// RewriteExpr rewrites e in place, operands before the expression that
// holds them: each operand slot gets what fn returned for it, and the
// result is what fn returns for e itself. fn is not called on what it
// returned.
func RewriteExpr(e Expr, fn func(Expr) Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *VarRef:
		for i, s := range x.Subs {
			x.Subs[i] = RewriteExpr(s, fn)
		}
	case *FuncCall:
		for i, a := range x.Args {
			x.Args[i] = RewriteExpr(a, fn)
		}
	case *Unary:
		x.X = RewriteExpr(x.X, fn)
	case *Binary:
		x.X = RewriteExpr(x.X, fn)
		x.Y = RewriteExpr(x.Y, fn)
	}
	return fn(e)
}

// CloneExpr returns a deep copy of e.
func CloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *IntLit:
		c := *x
		return &c
	case *RealLit:
		c := *x
		return &c
	case *LogLit:
		c := *x
		return &c
	case *StrLit:
		c := *x
		return &c
	case *VarRef:
		c := &VarRef{Sym: x.Sym, Name: x.Name}
		for _, s := range x.Subs {
			c.Subs = append(c.Subs, CloneExpr(s))
		}
		return c
	case *FuncCall:
		c := &FuncCall{Sym: x.Sym, Name: x.Name, Callee: x.Callee}
		for _, a := range x.Args {
			c.Args = append(c.Args, CloneExpr(a))
		}
		return c
	case *Unary:
		return &Unary{Op: x.Op, X: CloneExpr(x.X)}
	case *Binary:
		return &Binary{Op: x.Op, X: CloneExpr(x.X), Y: CloneExpr(x.Y)}
	}
	panic(fmt.Sprintf("fortran: CloneExpr: unknown node %T", e))
}

// CloneStmt returns a deep copy of s (fresh statement identities are
// assigned by the next RenumberStmts). The clone's UID is cleared: a
// copy is a new statement, not the original, so it must not inherit
// the edit-stable identity user markings are keyed by.
func CloneStmt(s Stmt) Stmt {
	c := cloneStmt(s)
	c.base().SUID = 0
	return c
}

func cloneStmt(s Stmt) Stmt {
	var c Stmt
	switch st := s.(type) {
	case *AssignStmt:
		x := *st
		c = &x
	case *IfStmt:
		x := *st
		x.Then, x.Else = CloneBody(st.Then), CloneBody(st.Else)
		c = &x
	case *DoStmt:
		x := *st
		x.Body = CloneBody(st.Body)
		x.Private = append([]*Symbol(nil), st.Private...)
		x.Reductions = append([]Reduction(nil), st.Reductions...)
		c = &x
	case *WhileStmt:
		x := *st
		x.Body = CloneBody(st.Body)
		c = &x
	case *CallStmt:
		x := *st
		x.Args = append([]Expr(nil), st.Args...)
		c = &x
	case *ReturnStmt:
		x := *st
		c = &x
	case *StopStmt:
		x := *st
		c = &x
	case *ContinueStmt:
		x := *st
		c = &x
	case *GotoStmt:
		x := *st
		c = &x
	case *PrintStmt:
		x := *st
		x.Items = append([]Expr(nil), st.Items...)
		c = &x
	case *ReadStmt:
		x := *st
		x.Items = append([]Expr(nil), st.Items...)
		c = &x
	default:
		panic(fmt.Sprintf("fortran: CloneStmt: unknown node %T", s))
	}
	EditExprs(c, CloneExpr)
	return c
}

// CloneBody deep-copies a statement list.
func CloneBody(body []Stmt) []Stmt {
	out := make([]Stmt, len(body))
	for i, s := range body {
		out[i] = CloneStmt(s)
	}
	return out
}

// SubstVar replaces every reference to sym (as a bare scalar) with a
// copy of repl throughout the expression, returning the new
// expression.
func SubstVar(e Expr, sym *Symbol, repl Expr) Expr {
	return RewriteExpr(e, func(x Expr) Expr {
		if vr, ok := x.(*VarRef); ok && vr.Sym == sym && len(vr.Subs) == 0 {
			return CloneExpr(repl)
		}
		return x
	})
}

// SubstVarStmt applies SubstVar to every expression of the statement
// and, recursively, its nested statements.
func SubstVarStmt(s Stmt, sym *Symbol, repl Expr) {
	WalkStmts([]Stmt{s}, func(st Stmt) bool {
		EditExprs(st, func(e Expr) Expr { return SubstVar(e, sym, repl) })
		return true
	})
}

// StmtLabel returns the statement's numeric label (0 when unlabeled).
func StmtLabel(s Stmt) int { return s.base().Label }

// RenumberStmts (re)assigns statement IDs across the whole file and
// rebuilds the ID index, a slice whose backing array a renumber of a
// file no larger reuses. Called after parsing and after any structural
// edit or transformation. Statements that are new to the file (UID 0)
// are also issued a fresh edit-stable UID here; existing UIDs are
// never rewritten or reused, so they identify a statement across
// renumbers.
func (f *File) RenumberStmts() {
	f.byID = append(f.byID[:0], nil)
	for _, u := range f.Units {
		WalkStmts(u.Body, func(s Stmt) bool {
			b := s.base()
			b.SID = len(f.byID)
			f.byID = append(f.byID, s)
			if b.SUID == 0 {
				f.nextUID++
				b.SUID = f.nextUID
			} else if b.SUID > f.nextUID {
				// Statement carried in from elsewhere: advance the
				// counter so its UID is never reissued.
				f.nextUID = b.SUID
			}
			return true
		})
	}
	// Statements a shrunk file dropped stay collectable.
	clear(f.byID[len(f.byID):cap(f.byID)])
}
