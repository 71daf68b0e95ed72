package fortran

import (
	"strconv"
	"strings"
)

// Parse parses Fortran source into a File. It returns the file plus
// any accumulated errors; the file is usable when err is nil.
func Parse(path, src string) (*File, error) {
	lx, comments := NewLexer(src)
	stmts, errs := lx.Statements()
	p := &parser{stmts: stmts, dirs: lx.Directives(), errs: errs}
	f := &File{Path: path, Comments: comments}
	for !p.atEOF() {
		u := p.parseUnit(f)
		if u == nil {
			break
		}
		f.Units = append(f.Units, u)
	}
	if err := p.errs.Err(); err != nil {
		return f, err
	}
	resolve(f, &p.errs)
	f.RenumberStmts()
	return f, p.errs.Err()
}

// ParseUnit parses text, the printed form of one program unit, into a
// unit that stands apart from f.Units: calls resolve against f's units
// (a call of the unit's own name reaches the unit f holds under it), and
// statement lines count from line, the unit's first line in the whole
// program's text; positions in errors count from 1. The editor's undo
// restores a unit this way and hands the result to Unit.Adopt.
func (f *File) ParseUnit(text string, line int) (*Unit, error) {
	lx, _ := NewLexer(text)
	stmts, errs := lx.Statements()
	p := &parser{stmts: stmts, dirs: lx.Directives(), errs: errs}
	var u *Unit
	if p.atEOF() {
		p.errs.add(Pos{1, 1}, "empty program unit")
	} else if u = p.parseUnit(f); u != nil && !p.atEOF() {
		p.beginStmt()
		p.errf("text after the unit's END")
	}
	if err := p.errs.Err(); err != nil {
		return nil, err
	}
	r := &resolver{file: f, unit: u, units: unitsByName(f), errs: &p.errs}
	r.stmts(u.Body)
	if err := p.errs.Err(); err != nil {
		return nil, err
	}
	u.Line += line - 1
	WalkStmts(u.Body, func(s Stmt) bool {
		s.base().LineN += line - 1
		return true
	})
	return u, nil
}

// ParseStmtIn parses one statement (possibly a multi-line block such
// as a DO or IF) in the context of unit u, resolving names against
// u's symbol table. Used by the editor for incremental edits.
func ParseStmtIn(f *File, u *Unit, text string) (Stmt, error) {
	lx, _ := NewLexer(text)
	stmts, errs := lx.Statements()
	if err := errs.Err(); err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		// Interactive edits arrive at column 1, where fixed-form
		// lexing reads 'c' / 'C' / '*' / '!' as a full-line comment —
		// so "call sweep(q, k)" lexes to nothing. When the whole text
		// vanished, retry with each such line shifted out of column 1;
		// comment-only text still has no statement either way.
		lx, _ = NewLexer(padColumnOne(text))
		stmts, errs = lx.Statements()
		if err := errs.Err(); err != nil {
			return nil, err
		}
	}
	if len(stmts) == 0 {
		return nil, &Error{Msg: "empty statement"}
	}
	p := &parser{stmts: stmts, dirs: lx.Directives()}
	p.unit = u
	p.beginStmt()
	s := p.parseStmt(u)
	if err := p.errs.Err(); err != nil {
		return nil, err
	}
	if s == nil {
		return nil, &Error{Msg: "no statement parsed"}
	}
	var rerrs ErrorList
	r := &resolver{file: f, unit: u, units: unitsByName(f), errs: &rerrs}
	body := []Stmt{s}
	r.stmts(body)
	if err := rerrs.Err(); err != nil {
		return nil, err
	}
	return body[0], nil
}

// padColumnOne shifts lines whose first character would make the
// fixed-form lexer treat them as full-line comments ('c', 'C', '*',
// '!') one column right, so statement keywords like CALL and CONTINUE
// typed at column 1 still lex. Parallel directives (c$par ...) keep
// their column-1 spelling — moved, they would stop being directives.
func padColumnOne(text string) string {
	lines := strings.Split(text, "\n")
	for i, ln := range lines {
		if ln == "" {
			continue
		}
		switch ln[0] {
		case 'c', 'C', '*', '!':
			if _, ok := parDirective(ln); !ok {
				lines[i] = " " + ln
			}
		}
	}
	return strings.Join(lines, "\n")
}

// MustParse parses src and panics on error; intended for tests and
// embedded workloads whose sources are fixed at build time.
func MustParse(path, src string) *File {
	f, err := Parse(path, src)
	if err != nil {
		panic("fortran: " + err.Error())
	}
	return f
}

type parser struct {
	stmts [][]Token
	dirs  []string // parallel directive per statement, "" for none
	si    int      // statement index
	toks  []Token
	ti    int // token index within current statement
	errs  ErrorList
	unit  *Unit
}

// directiveAt returns the parallel directive attached to statement i.
func (p *parser) directiveAt(i int) string {
	if i < len(p.dirs) {
		return p.dirs[i]
	}
	return ""
}

func (p *parser) atEOF() bool { return p.si >= len(p.stmts) }

// beginStmt loads statement si for token-level parsing.
func (p *parser) beginStmt() {
	p.toks = p.stmts[p.si]
	p.ti = 0
	if p.cur().Kind == TokLabel {
		p.ti++
	}
}

func (p *parser) stmtLabel() int {
	if len(p.toks) > 0 && p.toks[0].Kind == TokLabel {
		n, _ := strconv.Atoi(p.toks[0].Text)
		return n
	}
	return 0
}

func (p *parser) cur() Token {
	if p.ti < len(p.toks) {
		return p.toks[p.ti]
	}
	return Token{Kind: TokEOF}
}

func (p *parser) peek(n int) Token {
	if p.ti+n < len(p.toks) {
		return p.toks[p.ti+n]
	}
	return Token{Kind: TokEOF}
}

func (p *parser) next() Token {
	t := p.cur()
	p.ti++
	return t
}

func (p *parser) accept(k TokKind) bool {
	if p.cur().Kind == k {
		p.ti++
		return true
	}
	return false
}

func (p *parser) acceptWord(w string) bool {
	if p.cur().Kind == TokIdent && p.cur().Text == w {
		p.ti++
		return true
	}
	return false
}

func (p *parser) expect(k TokKind) Token {
	t := p.cur()
	if t.Kind != k {
		p.errf("expected %s, found %s", k, t)
		return t
	}
	p.ti++
	return t
}

func (p *parser) errf(format string, args ...interface{}) {
	t := p.cur()
	if t.Kind == TokEOF && len(p.toks) > 0 {
		t = p.toks[len(p.toks)-1]
	}
	p.errs.add(Pos{t.Line, t.Col}, format, args...)
}

// keyword returns the leading identifier text of the current
// statement, already lower case, or "".
func (p *parser) keyword() string {
	if p.cur().Kind == TokIdent {
		return p.cur().Text
	}
	return ""
}

// ---------------------------------------------------------------------------
// Program units

func (p *parser) parseUnit(f *File) *Unit {
	p.beginStmt()
	line := p.cur().Line
	u := &Unit{Syms: make(map[string]*Symbol), Line: line, File: f}
	p.unit = u

	kw := p.keyword()
	retType := TypeUnknown
	if t, ok := typeKeyword(kw); ok && p.peekTypeFunction() {
		retType = t
		p.skipTypeKeyword()
		kw = p.keyword()
	}
	switch kw {
	case "program":
		p.next()
		u.Kind = UnitProgram
		u.Name = p.ownName()
	case "subroutine":
		p.next()
		u.Kind = UnitSubroutine
		u.Name = p.ownName()
		p.parseArgList(u)
	case "function":
		p.next()
		u.Kind = UnitFunction
		u.RetType = retType
		u.Name = p.ownName()
		p.parseArgList(u)
		// The function name acts as the result variable.
		ret := &Symbol{Name: u.Name, Kind: SymScalar, Type: retType, Unit: u}
		if retType == TypeUnknown {
			ret.Type = implicitType(u.Name)
		}
		u.Syms[u.Name] = ret
	default:
		p.errf("expected PROGRAM, SUBROUTINE or FUNCTION, found %s", p.cur())
		p.si = len(p.stmts)
		return nil
	}
	p.si++

	// Declarations.
	for !p.atEOF() {
		p.beginStmt()
		if !p.parseDecl(u) {
			break
		}
		p.si++
	}

	// Executable statements until END.
	u.Body = p.parseBlock(u, map[string]bool{"end": true}, 0)
	if !p.atEOF() {
		p.beginStmt()
		if p.keyword() == "end" {
			p.si++
		}
	}
	return u
}

// peekTypeFunction reports whether the current statement is
// "<type> function name(...)".
func (p *parser) peekTypeFunction() bool {
	save := p.ti
	defer func() { p.ti = save }()
	kw := p.keyword()
	if _, ok := typeKeyword(kw); !ok {
		return false
	}
	p.skipTypeKeyword()
	return p.keyword() == "function"
}

func (p *parser) skipTypeKeyword() {
	kw := p.keyword()
	p.next()
	if kw == "double" && p.keyword() == "precision" {
		p.next()
	}
	// character*N
	if kw == "character" && p.accept(TokStar) {
		p.accept(TokInt)
	}
}

func typeKeyword(kw string) (Type, bool) {
	switch kw {
	case "integer":
		return TypeInteger, true
	case "real":
		return TypeReal, true
	case "double":
		return TypeDouble, true
	case "logical":
		return TypeLogical, true
	case "character":
		return TypeCharacter, true
	}
	return TypeUnknown, false
}

func implicitType(name string) Type {
	if name != "" && name[0] >= 'i' && name[0] <= 'n' {
		return TypeInteger
	}
	return TypeReal
}

func (p *parser) parseArgList(u *Unit) {
	if !p.accept(TokLParen) {
		return
	}
	if p.accept(TokRParen) {
		return
	}
	for {
		name := p.ownName()
		sym := &Symbol{Name: name, Kind: SymScalar, Type: implicitType(name),
			Dummy: true, ArgPos: len(u.Args), Unit: u}
		u.Syms[name] = sym
		u.Args = append(u.Args, sym)
		if !p.accept(TokComma) {
			break
		}
	}
	p.expect(TokRParen)
}

// parseDecl handles one declaration statement; returns false when the
// statement is executable (leaving it unconsumed).
func (p *parser) parseDecl(u *Unit) bool {
	kw := p.keyword()
	switch kw {
	case "integer", "real", "logical", "character":
		// Could be a declaration or an assignment to a variable that
		// happens to be named "real" — rule that out by checking the
		// next token is not '=' or '('.
		if p.peek(1).Kind == TokEq {
			return false
		}
		t, _ := typeKeyword(kw)
		p.skipTypeKeyword()
		p.parseDeclList(u, t)
		return true
	case "double":
		if p.peek(1).Kind == TokIdent && p.peek(1).Text == "precision" {
			p.skipTypeKeyword()
			p.parseDeclList(u, TypeDouble)
			return true
		}
		return false
	case "dimension":
		p.next()
		p.parseDeclList(u, TypeUnknown)
		return true
	case "parameter":
		p.next()
		p.expect(TokLParen)
		for {
			name := p.expect(TokIdent).Text
			p.expect(TokEq)
			val := p.parseExpr()
			sym := p.getSym(u, name)
			sym.Kind = SymParam
			sym.Value = val
			if !p.accept(TokComma) {
				break
			}
		}
		p.expect(TokRParen)
		return true
	case "common":
		p.next()
		blk := "blank"
		if p.accept(TokSlash) {
			blk = p.expect(TokIdent).Text
			p.expect(TokSlash)
		}
		for {
			name := p.expect(TokIdent).Text
			sym := p.getSym(u, name)
			sym.Common = blk
			if p.cur().Kind == TokLParen {
				sym.Kind = SymArray
				sym.Dims = p.parseDims()
			}
			if !p.accept(TokComma) {
				break
			}
		}
		return true
	case "external":
		p.next()
		for {
			name := p.expect(TokIdent).Text
			sym := p.getSym(u, name)
			sym.Kind = SymFunc
			if !p.accept(TokComma) {
				break
			}
		}
		return true
	case "intrinsic", "save":
		return true // recorded nowhere; semantics unaffected
	case "implicit":
		return true // implicit none — our default anyway
	case "data":
		p.next()
		p.parseData(u)
		return true
	}
	return false
}

// parseDeclList parses "name(dims), name, ..." giving each symbol the
// type t (TypeUnknown keeps/defaults the implicit type, as DIMENSION
// does).
func (p *parser) parseDeclList(u *Unit, t Type) {
	for {
		name := p.expect(TokIdent).Text
		sym := p.getSym(u, name)
		if t != TypeUnknown {
			sym.Type = t
		}
		if p.cur().Kind == TokLParen {
			sym.Kind = SymArray
			sym.Dims = p.parseDims()
		}
		if !p.accept(TokComma) {
			break
		}
	}
}

func (p *parser) parseDims() []Dimension {
	p.expect(TokLParen)
	var dims []Dimension
	for {
		var d Dimension
		if p.cur().Kind == TokStar {
			p.next()
			d.Lo = &IntLit{Val: 1}
			d.Hi = nil // assumed size
		} else {
			e := p.parseExpr()
			if p.accept(TokColon) {
				d.Lo = e
				if p.cur().Kind == TokStar {
					p.next()
					d.Hi = nil
				} else {
					d.Hi = p.parseExpr()
				}
			} else {
				d.Lo = &IntLit{Val: 1}
				d.Hi = e
			}
		}
		dims = append(dims, d)
		if !p.accept(TokComma) {
			break
		}
	}
	p.expect(TokRParen)
	return dims
}

// parseData handles a simple DATA list: DATA a /1.0/, b /2, 3/.
// Values are attached as Symbol.Value for scalars and ignored for
// arrays (the interpreter zero-initializes).
func (p *parser) parseData(u *Unit) {
	for {
		name := p.expect(TokIdent).Text
		sym := p.getSym(u, name)
		p.expect(TokSlash)
		var vals []Expr
		for {
			// DATA values are (possibly signed) constants; a full
			// expression parse would swallow the closing '/' as a
			// division.
			vals = append(vals, p.parseDataValue())
			if !p.accept(TokComma) {
				break
			}
		}
		p.expect(TokSlash)
		if sym.Kind == SymScalar && len(vals) == 1 {
			sym.Value = vals[0]
		}
		if !p.accept(TokComma) {
			break
		}
	}
}

// parseDataValue parses one DATA constant: an optionally signed
// literal or named constant.
func (p *parser) parseDataValue() Expr {
	neg := false
	if p.accept(TokMinus) {
		neg = true
	} else {
		p.accept(TokPlus)
	}
	e := p.parsePrimary()
	if neg {
		return &Unary{Op: TokMinus, X: e}
	}
	return e
}

// ownName expects an identifier and returns a copy of its text. A token's
// text may be a slice of the source, and unit and symbol names outlive
// the parse in places that keep nothing else of the program (cached
// renderings, dependence listings): a name that aliased the source would
// keep all of it alive.
func (p *parser) ownName() string {
	return strings.Clone(p.expect(TokIdent).Text)
}

// getSym returns the unit's symbol for name, creating a scalar with
// the implicit type when absent.
func (p *parser) getSym(u *Unit, name string) *Symbol {
	if s, ok := u.Syms[name]; ok {
		return s
	}
	name = strings.Clone(name) // see ownName
	s := &Symbol{Name: name, Kind: SymScalar, Type: implicitType(name), Unit: u}
	u.Syms[name] = s
	return s
}

// ---------------------------------------------------------------------------
// Executable statements

// parseBlock parses statements until one of the terminator keywords
// (which is left unconsumed), or until a statement labeled endLabel is
// consumed (labeled-DO termination; that statement is included when it
// is executable).
func (p *parser) parseBlock(u *Unit, stop map[string]bool, endLabel int) []Stmt {
	var out []Stmt
	for !p.atEOF() {
		p.beginStmt()
		kw := p.keyword()
		if stop[kw] || (kw == "end" && p.peek(1).Kind == TokIdent && stop["end "+p.peek(1).Text]) {
			return out
		}
		label := p.stmtLabel()
		s := p.parseStmt(u)
		if s != nil {
			out = append(out, s)
		}
		if endLabel != 0 && label == endLabel {
			return out
		}
	}
	return out
}

func (p *parser) parseStmt(u *Unit) Stmt {
	label := p.stmtLabel()
	line := p.cur().Line
	base := StmtBase{Label: label, LineN: line}
	kw := p.keyword()

	// Keywords that are really assignments when followed by '='
	// (Fortran has no reserved words).
	if p.peek(1).Kind == TokEq {
		kw = ""
	}

	var s Stmt
	switch kw {
	case "if":
		s = p.parseIf(u, base)
	case "do":
		s = p.parseDo(u, base)
	case "goto":
		p.next()
		t := p.expect(TokInt)
		n, _ := strconv.Atoi(t.Text)
		s = &GotoStmt{StmtBase: base, Target: n}
		p.si++
	case "go":
		p.next()
		if !p.acceptWord("to") {
			p.errf("expected TO after GO")
		}
		t := p.expect(TokInt)
		n, _ := strconv.Atoi(t.Text)
		s = &GotoStmt{StmtBase: base, Target: n}
		p.si++
	case "call":
		p.next()
		name := p.expect(TokIdent).Text
		var args []Expr
		if p.accept(TokLParen) {
			if !p.accept(TokRParen) {
				for {
					args = append(args, p.parseExpr())
					if !p.accept(TokComma) {
						break
					}
				}
				p.expect(TokRParen)
			}
		}
		s = &CallStmt{StmtBase: base, Name: name, Args: args}
		p.si++
	case "return":
		p.next()
		s = &ReturnStmt{StmtBase: base}
		p.si++
	case "stop":
		p.next()
		// Optional stop code.
		if p.cur().Kind == TokInt || p.cur().Kind == TokString {
			p.next()
		}
		s = &StopStmt{StmtBase: base}
		p.si++
	case "continue":
		p.next()
		s = &ContinueStmt{StmtBase: base}
		p.si++
	case "print":
		p.next()
		p.expect(TokStar)
		var items []Expr
		if p.accept(TokComma) {
			for {
				items = append(items, p.parseExpr())
				if !p.accept(TokComma) {
					break
				}
			}
		}
		s = &PrintStmt{StmtBase: base, Items: items}
		p.si++
	case "write":
		p.next()
		p.skipIOControl()
		var items []Expr
		if p.cur().Kind != TokNewline {
			for {
				items = append(items, p.parseExpr())
				if !p.accept(TokComma) {
					break
				}
			}
		}
		s = &PrintStmt{StmtBase: base, Items: items}
		p.si++
	case "read":
		p.next()
		p.skipIOControl()
		var items []Expr
		if p.cur().Kind != TokNewline {
			for {
				items = append(items, p.parseExpr())
				if !p.accept(TokComma) {
					break
				}
			}
		}
		s = &ReadStmt{StmtBase: base, Items: items}
		p.si++
	case "else", "elseif", "endif", "enddo", "end":
		// Structural keywords reaching here indicate a block
		// mismatch; report and consume to make progress.
		p.errf("unexpected %s", strings.ToUpper(kw))
		p.si++
		return nil
	default:
		s = p.parseAssign(u, base)
		p.si++
	}
	return s
}

// skipIOControl consumes "(*,*)"-style I/O control lists.
func (p *parser) skipIOControl() {
	if !p.accept(TokLParen) {
		return
	}
	depth := 1
	for depth > 0 && p.cur().Kind != TokNewline && p.cur().Kind != TokEOF {
		switch p.next().Kind {
		case TokLParen:
			depth++
		case TokRParen:
			depth--
		}
	}
}

func (p *parser) parseAssign(u *Unit, base StmtBase) Stmt {
	lhsTok := p.cur()
	if lhsTok.Kind != TokIdent {
		p.errf("expected statement, found %s", lhsTok)
		return nil
	}
	p.next()
	ref := &VarRef{Name: lhsTok.Text}
	if p.cur().Kind == TokLParen {
		p.next()
		for {
			ref.Subs = append(ref.Subs, p.parseExpr())
			if !p.accept(TokComma) {
				break
			}
		}
		p.expect(TokRParen)
	}
	p.expect(TokEq)
	rhs := p.parseExpr()
	if p.cur().Kind != TokNewline {
		p.errf("trailing tokens after assignment: %s", p.cur())
	}
	return &AssignStmt{StmtBase: base, Lhs: ref, Rhs: rhs}
}

func (p *parser) parseIf(u *Unit, base StmtBase) Stmt {
	p.next() // if
	p.expect(TokLParen)
	cond := p.parseExpr()
	p.expect(TokRParen)
	if p.acceptWord("then") {
		p.si++
		st := &IfStmt{StmtBase: base, Cond: cond}
		st.Then = p.parseBlock(u, map[string]bool{"else": true, "elseif": true, "endif": true, "end if": true}, 0)
		st.Else = p.parseElse(u)
		return st
	}
	// Logical IF: the rest of the statement is a single statement.
	inner := p.parseSimpleStmt(u)
	p.si++
	return &IfStmt{StmtBase: base, Cond: cond, Then: []Stmt{inner}}
}

// parseElse handles the else/elseif/endif tail of a block IF.
func (p *parser) parseElse(u *Unit) []Stmt {
	if p.atEOF() {
		return nil
	}
	p.beginStmt()
	line := p.cur().Line
	switch {
	case p.keyword() == "endif":
		p.si++
		return nil
	case p.keyword() == "end" && p.peek(1).Kind == TokIdent && p.peek(1).Text == "if":
		p.si++
		return nil
	case p.keyword() == "elseif",
		p.keyword() == "else" && p.peek(1).Kind == TokIdent && p.peek(1).Text == "if":
		if p.keyword() == "elseif" {
			p.next()
		} else {
			p.next()
			p.next()
		}
		p.expect(TokLParen)
		cond := p.parseExpr()
		p.expect(TokRParen)
		if !p.acceptWord("then") {
			p.errf("expected THEN after ELSE IF")
		}
		p.si++
		nested := &IfStmt{StmtBase: StmtBase{LineN: line}, Cond: cond}
		nested.Then = p.parseBlock(u, map[string]bool{"else": true, "elseif": true, "endif": true, "end if": true}, 0)
		nested.Else = p.parseElse(u)
		return []Stmt{nested}
	case p.keyword() == "else":
		p.si++
		body := p.parseBlock(u, map[string]bool{"endif": true, "end if": true}, 0)
		if !p.atEOF() {
			p.beginStmt()
			if p.keyword() == "endif" || (p.keyword() == "end" && p.peek(1).Text == "if") {
				p.si++
			}
		}
		return body
	}
	p.errf("expected ELSE or ENDIF")
	return nil
}

// parseSimpleStmt parses the statement embedded in a logical IF.
func (p *parser) parseSimpleStmt(u *Unit) Stmt {
	base := StmtBase{LineN: p.cur().Line}
	switch p.keyword() {
	case "goto":
		p.next()
		t := p.expect(TokInt)
		n, _ := strconv.Atoi(t.Text)
		return &GotoStmt{StmtBase: base, Target: n}
	case "go":
		p.next()
		p.acceptWord("to")
		t := p.expect(TokInt)
		n, _ := strconv.Atoi(t.Text)
		return &GotoStmt{StmtBase: base, Target: n}
	case "call":
		p.next()
		name := p.expect(TokIdent).Text
		var args []Expr
		if p.accept(TokLParen) {
			if !p.accept(TokRParen) {
				for {
					args = append(args, p.parseExpr())
					if !p.accept(TokComma) {
						break
					}
				}
				p.expect(TokRParen)
			}
		}
		return &CallStmt{StmtBase: base, Name: name, Args: args}
	case "return":
		p.next()
		return &ReturnStmt{StmtBase: base}
	case "stop":
		p.next()
		if p.cur().Kind == TokInt || p.cur().Kind == TokString {
			p.next()
		}
		return &StopStmt{StmtBase: base}
	case "continue":
		p.next()
		return &ContinueStmt{StmtBase: base}
	case "print":
		p.next()
		p.expect(TokStar)
		var items []Expr
		if p.accept(TokComma) {
			for {
				items = append(items, p.parseExpr())
				if !p.accept(TokComma) {
					break
				}
			}
		}
		return &PrintStmt{StmtBase: base, Items: items}
	}
	// Assignment.
	lhsTok := p.expect(TokIdent)
	ref := &VarRef{Name: lhsTok.Text}
	if p.accept(TokLParen) {
		for {
			ref.Subs = append(ref.Subs, p.parseExpr())
			if !p.accept(TokComma) {
				break
			}
		}
		p.expect(TokRParen)
	}
	p.expect(TokEq)
	rhs := p.parseExpr()
	return &AssignStmt{StmtBase: base, Lhs: ref, Rhs: rhs}
}

func (p *parser) parseDo(u *Unit, base StmtBase) Stmt {
	dir := p.directiveAt(p.si)
	p.next() // do
	if p.keyword() == "while" {
		p.next()
		p.expect(TokLParen)
		cond := p.parseExpr()
		p.expect(TokRParen)
		p.si++
		st := &WhileStmt{StmtBase: base, Cond: cond}
		st.Body = p.parseBlock(u, map[string]bool{"enddo": true, "end do": true}, 0)
		p.consumeEnddo()
		return st
	}
	endLabel := 0
	if p.cur().Kind == TokInt {
		endLabel, _ = strconv.Atoi(p.next().Text)
		p.accept(TokComma)
	}
	name := p.expect(TokIdent).Text
	sym := p.getSym(u, name)
	p.expect(TokEq)
	lo := p.parseExpr()
	p.expect(TokComma)
	hi := p.parseExpr()
	var step Expr
	if p.accept(TokComma) {
		step = p.parseExpr()
	}
	p.si++
	st := &DoStmt{StmtBase: base, Var: sym, Lo: lo, Hi: hi, Step: step}
	if dir != "" {
		p.applyDoallDirective(st, u, dir)
	}
	if endLabel != 0 {
		st.Body = p.parseBlock(u, map[string]bool{"end": true}, endLabel)
		// Drop a trailing bare CONTINUE terminator from the body: it
		// exists only to carry the label.
		if n := len(st.Body); n > 0 {
			if c, ok := st.Body[n-1].(*ContinueStmt); ok && c.Label == endLabel {
				st.Body = st.Body[:n-1]
			}
		}
	} else {
		st.Body = p.parseBlock(u, map[string]bool{"enddo": true, "end do": true}, 0)
		p.consumeEnddo()
	}
	return st
}

// applyDoallDirective restores the annotations a `c$par doall` comment
// carries onto the DO loop it precedes, making the printer's output a
// faithful parse round trip: `doall` sets Parallel, a private(...)
// clause rebuilds the private list, and reduction(op:var) clauses
// rebuild the reductions. An unrecognized directive body is ignored —
// the loop simply stays serial — so stale or foreign annotations can
// never make a parse fail.
func (p *parser) applyDoallDirective(st *DoStmt, u *Unit, dir string) {
	rest := strings.TrimSpace(dir)
	kw := rest
	if i := strings.IndexAny(kw, " \t("); i >= 0 {
		kw = kw[:i]
	}
	if !strings.EqualFold(kw, "doall") {
		return
	}
	st.Parallel = true
	rest = strings.TrimSpace(rest[len(kw):])
	for rest != "" {
		open := strings.IndexByte(rest, '(')
		if open < 0 {
			return
		}
		close := strings.IndexByte(rest, ')')
		if close < open {
			return
		}
		clause := strings.ToLower(strings.TrimSpace(rest[:open]))
		args := rest[open+1 : close]
		rest = strings.TrimSpace(rest[close+1:])
		switch clause {
		case "private":
			for _, nm := range strings.Split(args, ",") {
				if nm = strings.ToLower(strings.TrimSpace(nm)); nm != "" {
					st.Private = append(st.Private, p.getSym(u, nm))
				}
			}
		case "reduction":
			op, nm, ok := strings.Cut(args, ":")
			if !ok {
				continue
			}
			op = strings.ToLower(strings.TrimSpace(op))
			nm = strings.ToLower(strings.TrimSpace(nm))
			if nm == "" {
				continue
			}
			red := Reduction{Sym: p.getSym(u, nm)}
			switch op {
			case "+":
				red.Op = TokPlus
			case "*":
				red.Op = TokStar
			case "max", "min":
				red.Op = TokIdent
				red.OpName = op
			default:
				continue
			}
			st.Reductions = append(st.Reductions, red)
		}
	}
}

func (p *parser) consumeEnddo() {
	if p.atEOF() {
		p.errf("missing ENDDO")
		return
	}
	p.beginStmt()
	if p.keyword() == "enddo" || (p.keyword() == "end" && p.peek(1).Kind == TokIdent && p.peek(1).Text == "do") {
		p.si++
		return
	}
	p.errf("expected ENDDO, found %s", p.cur())
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

func (p *parser) parseExpr() Expr { return p.parseBinary(1) }

func (p *parser) parseBinary(minPrec int) Expr {
	lhs := p.parseUnary()
	for {
		op := p.cur().Kind
		prec := precOf(op)
		if prec < minPrec || prec == 0 {
			return lhs
		}
		p.next()
		var rhs Expr
		if op == TokPower {
			rhs = p.parseBinary(prec) // right associative
		} else {
			rhs = p.parseBinary(prec + 1)
		}
		lhs = &Binary{Op: op, X: lhs, Y: rhs}
	}
}

func (p *parser) parseUnary() Expr {
	switch p.cur().Kind {
	case TokMinus:
		p.next()
		return &Unary{Op: TokMinus, X: p.parseUnary()}
	case TokPlus:
		p.next()
		return p.parseUnary()
	case TokNot:
		p.next()
		return &Unary{Op: TokNot, X: p.parseUnary()}
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() Expr {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			p.errs.add(Pos{t.Line, t.Col}, "bad integer literal %q", t.Text)
		}
		return &IntLit{Val: v}
	case TokReal:
		p.next()
		text := t.Text
		double := strings.ContainsAny(text, "dD")
		norm := strings.Map(func(r rune) rune {
			if r == 'd' || r == 'D' {
				return 'e'
			}
			return r
		}, text)
		v, err := strconv.ParseFloat(norm, 64)
		if err != nil {
			p.errs.add(Pos{t.Line, t.Col}, "bad real literal %q", t.Text)
		}
		return &RealLit{Val: v, Double: double, Text: text}
	case TokString:
		p.next()
		return &StrLit{Val: t.Text}
	case TokTrue:
		p.next()
		return &LogLit{Val: true}
	case TokFalse:
		p.next()
		return &LogLit{Val: false}
	case TokLParen:
		p.next()
		e := p.parseExpr()
		p.expect(TokRParen)
		return e
	case TokIdent:
		p.next()
		ref := &VarRef{Name: t.Text}
		if p.cur().Kind == TokLParen {
			p.next()
			if !p.accept(TokRParen) {
				for {
					ref.Subs = append(ref.Subs, p.parseExpr())
					if !p.accept(TokComma) {
						break
					}
				}
				p.expect(TokRParen)
			}
		}
		return ref
	}
	p.errf("expected expression, found %s", t)
	p.next()
	return &IntLit{Val: 0}
}
