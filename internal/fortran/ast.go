package fortran

import (
	"fmt"
	"sort"
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
	Name   string
	Kind   SymKind
	Type   Type
	Dims   []Dimension // arrays only
	Dummy  bool        // dummy (formal) argument
	Common string      // enclosing COMMON block name, "" if none
	Value  Expr        // PARAMETER value
	Unit   *Unit       // owning unit
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

// Adopt makes u the unit nu describes — nu comes from File.ParseUnit and
// must not be used afterwards — while u stays the object it was, and so
// does every symbol whose name both units have: those take nu's
// attributes in place, and nu's statements and declarations are
// repointed at them. What the editor keys by *Unit and *Symbol
// (interprocedural summaries, constant formals, cost memo) therefore
// stays addressable across the swap.
func (u *Unit) Adopt(nu *Unit) {
	kept := map[*Symbol]*Symbol{} // nu's symbol → u's of the same name
	for name, sym := range nu.Syms {
		if old, ok := u.Syms[name]; ok {
			*old = *sym
			kept[sym] = old
			nu.Syms[name] = old
			sym = old
		}
		sym.Unit = u
	}
	swap := func(p **Symbol) {
		if old, ok := kept[*p]; ok {
			*p = old
		}
	}
	fix := func(e Expr) {
		switch x := e.(type) {
		case *VarRef:
			swap(&x.Sym)
		case *FuncCall:
			swap(&x.Sym)
		}
	}
	for i := range nu.Args {
		swap(&nu.Args[i])
	}
	for _, sym := range nu.Syms {
		for _, d := range sym.Dims {
			walkExpr(d.Lo, fix)
			walkExpr(d.Hi, fix)
		}
		walkExpr(sym.Value, fix)
	}
	WalkStmts(nu.Body, func(s Stmt) bool {
		if do, ok := s.(*DoStmt); ok {
			swap(&do.Var)
			for i := range do.Private {
				swap(&do.Private[i])
			}
			for i := range do.Reductions {
				swap(&do.Reductions[i].Sym)
			}
		}
		WalkExprs(s, fix)
		return true
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

	nextID  int
	nextUID int
	byID    map[int]Stmt
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
func (f *File) StmtByID(id int) Stmt { return f.byID[id] }

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

func (e *IntLit) String() string { return fmt.Sprintf("%d", e.Val) }

func (e *RealLit) String() string {
	if e.Text != "" {
		return e.Text
	}
	return fmt.Sprintf("%g", e.Val)
}

func (e *LogLit) String() string {
	if e.Val {
		return ".true."
	}
	return ".false."
}

func (e *StrLit) String() string { return "'" + strings.ReplaceAll(e.Val, "'", "''") + "'" }

func (e *VarRef) String() string {
	if len(e.Subs) == 0 {
		return e.Name
	}
	parts := make([]string, len(e.Subs))
	for i, s := range e.Subs {
		parts[i] = s.String()
	}
	return e.Name + "(" + strings.Join(parts, ",") + ")"
}

func (e *FuncCall) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ",") + ")"
}

func (e *Unary) String() string {
	switch e.Op {
	case TokMinus:
		return "-" + parenIfBinary(e.X)
	case TokPlus:
		return "+" + parenIfBinary(e.X)
	case TokNot:
		return ".not. " + parenIfBinary(e.X)
	}
	return "?" + e.X.String()
}

func parenIfBinary(e Expr) string {
	if _, ok := e.(*Binary); ok {
		return "(" + e.String() + ")"
	}
	return e.String()
}

func (e *Binary) String() string {
	op := binOpText(e.Op)
	lhs := e.X.String()
	rhs := e.Y.String()
	if x, ok := e.X.(*Binary); ok && precOf(x.Op) < precOf(e.Op) {
		lhs = "(" + lhs + ")"
	}
	if y, ok := e.Y.(*Binary); ok && precOf(y.Op) <= precOf(e.Op) && !commutesWith(e.Op, y.Op) {
		rhs = "(" + rhs + ")"
	}
	return lhs + op + rhs
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

// WalkExprs calls fn for every expression appearing in the statement
// (not recursing into nested statements).
func WalkExprs(s Stmt, fn func(Expr)) {
	switch st := s.(type) {
	case *AssignStmt:
		walkExpr(st.Lhs, fn)
		walkExpr(st.Rhs, fn)
	case *IfStmt:
		walkExpr(st.Cond, fn)
	case *DoStmt:
		walkExpr(st.Lo, fn)
		walkExpr(st.Hi, fn)
		if st.Step != nil {
			walkExpr(st.Step, fn)
		}
	case *WhileStmt:
		walkExpr(st.Cond, fn)
	case *CallStmt:
		for _, a := range st.Args {
			walkExpr(a, fn)
		}
	case *PrintStmt:
		for _, it := range st.Items {
			walkExpr(it, fn)
		}
	case *ReadStmt:
		for _, it := range st.Items {
			walkExpr(it, fn)
		}
	}
}

func walkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *VarRef:
		for _, s := range x.Subs {
			walkExpr(s, fn)
		}
	case *FuncCall:
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
	case *Unary:
		walkExpr(x.X, fn)
	case *Binary:
		walkExpr(x.X, fn)
		walkExpr(x.Y, fn)
	}
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
	switch st := s.(type) {
	case *AssignStmt:
		c := *st
		c.Lhs = CloneExpr(st.Lhs).(*VarRef)
		c.Rhs = CloneExpr(st.Rhs)
		return &c
	case *IfStmt:
		c := *st
		c.Cond = CloneExpr(st.Cond)
		c.Then = CloneBody(st.Then)
		c.Else = CloneBody(st.Else)
		return &c
	case *DoStmt:
		c := *st
		c.Lo = CloneExpr(st.Lo)
		c.Hi = CloneExpr(st.Hi)
		if st.Step != nil {
			c.Step = CloneExpr(st.Step)
		}
		c.Body = CloneBody(st.Body)
		c.Private = append([]*Symbol(nil), st.Private...)
		c.Reductions = append([]Reduction(nil), st.Reductions...)
		return &c
	case *WhileStmt:
		c := *st
		c.Cond = CloneExpr(st.Cond)
		c.Body = CloneBody(st.Body)
		return &c
	case *CallStmt:
		c := *st
		c.Args = nil
		for _, a := range st.Args {
			c.Args = append(c.Args, CloneExpr(a))
		}
		return &c
	case *ReturnStmt:
		c := *st
		return &c
	case *StopStmt:
		c := *st
		return &c
	case *ContinueStmt:
		c := *st
		return &c
	case *GotoStmt:
		c := *st
		return &c
	case *PrintStmt:
		c := *st
		c.Items = nil
		for _, it := range st.Items {
			c.Items = append(c.Items, CloneExpr(it))
		}
		return &c
	case *ReadStmt:
		c := *st
		c.Items = nil
		for _, it := range st.Items {
			c.Items = append(c.Items, CloneExpr(it))
		}
		return &c
	}
	panic(fmt.Sprintf("fortran: CloneStmt: unknown node %T", s))
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
	switch x := e.(type) {
	case nil:
		return nil
	case *VarRef:
		if x.Sym == sym && len(x.Subs) == 0 {
			return CloneExpr(repl)
		}
		for i, s := range x.Subs {
			x.Subs[i] = SubstVar(s, sym, repl)
		}
		return x
	case *FuncCall:
		for i, a := range x.Args {
			x.Args[i] = SubstVar(a, sym, repl)
		}
		return x
	case *Unary:
		x.X = SubstVar(x.X, sym, repl)
		return x
	case *Binary:
		x.X = SubstVar(x.X, sym, repl)
		x.Y = SubstVar(x.Y, sym, repl)
		return x
	}
	return e
}

// SubstVarStmt applies SubstVar to every expression of the statement
// and, recursively, its nested statements.
func SubstVarStmt(s Stmt, sym *Symbol, repl Expr) {
	switch st := s.(type) {
	case *AssignStmt:
		st.Lhs = SubstVar(st.Lhs, sym, repl).(*VarRef)
		st.Rhs = SubstVar(st.Rhs, sym, repl)
	case *IfStmt:
		st.Cond = SubstVar(st.Cond, sym, repl)
		for _, x := range st.Then {
			SubstVarStmt(x, sym, repl)
		}
		for _, x := range st.Else {
			SubstVarStmt(x, sym, repl)
		}
	case *DoStmt:
		st.Lo = SubstVar(st.Lo, sym, repl)
		st.Hi = SubstVar(st.Hi, sym, repl)
		if st.Step != nil {
			st.Step = SubstVar(st.Step, sym, repl)
		}
		for _, x := range st.Body {
			SubstVarStmt(x, sym, repl)
		}
	case *WhileStmt:
		st.Cond = SubstVar(st.Cond, sym, repl)
		for _, x := range st.Body {
			SubstVarStmt(x, sym, repl)
		}
	case *CallStmt:
		for i, a := range st.Args {
			st.Args[i] = SubstVar(a, sym, repl)
		}
	case *PrintStmt:
		for i, it := range st.Items {
			st.Items[i] = SubstVar(it, sym, repl)
		}
	case *ReadStmt:
		for i, it := range st.Items {
			st.Items[i] = SubstVar(it, sym, repl)
		}
	}
}

// StmtLabel returns the statement's numeric label (0 when unlabeled).
func StmtLabel(s Stmt) int { return s.base().Label }

// RenumberStmts (re)assigns statement IDs across the whole file and
// rebuilds the ID index. Called after parsing and after any structural
// edit or transformation. Statements that are new to the file (UID 0)
// are also issued a fresh edit-stable UID here; existing UIDs are
// never rewritten or reused, so they identify a statement across
// renumbers.
func (f *File) RenumberStmts() {
	f.nextID = 1
	f.byID = make(map[int]Stmt)
	for _, u := range f.Units {
		WalkStmts(u.Body, func(s Stmt) bool {
			b := s.base()
			b.SID = f.nextID
			f.byID[f.nextID] = s
			f.nextID++
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
}
