package fortran

import (
	"fmt"
	"strconv"
	"strings"
)

// Print regenerates Fortran source for the whole file. The output is
// free-form with six-space indentation steps, re-parseable by Parse.
func Print(f *File) string {
	var b strings.Builder
	for i, u := range f.Units {
		if i > 0 {
			b.WriteByte('\n')
		}
		PrintUnit(&b, u)
	}
	return b.String()
}

// PrintUnit writes one program unit to b.
func PrintUnit(b *strings.Builder, u *Unit) {
	b.WriteString("      ")
	switch u.Kind {
	case UnitProgram:
		b.WriteString("program ")
		b.WriteString(u.Name)
	case UnitSubroutine:
		b.WriteString("subroutine ")
		b.WriteString(u.Name)
		writeArgNames(b, u)
	case UnitFunction:
		if u.RetType != TypeUnknown {
			b.WriteString(u.RetType.String())
			b.WriteByte(' ')
		}
		b.WriteString("function ")
		b.WriteString(u.Name)
		writeArgNames(b, u)
	}
	b.WriteByte('\n')
	printDecls(b, u)
	pr := &printer{b: b, indent: 1}
	pr.stmts(u.Body)
	b.WriteString("      end\n")
}

func writeArgNames(b *strings.Builder, u *Unit) {
	b.WriteByte('(')
	for i, a := range u.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Name)
	}
	b.WriteByte(')')
}

// declOrder is the order type declarations print in.
var declOrder = [...]Type{TypeInteger, TypeReal, TypeDouble, TypeLogical, TypeCharacter, TypeUnknown}

// printDecls regenerates declaration statements from the symbol table
// in deterministic order: type declarations, EXTERNAL, commons,
// parameters. A function name is typed only when its type is not the
// one its name implies, and named EXTERNAL when it was, so that a parse
// of the text gives every name the kind and type it has.
func printDecls(b *strings.Builder, u *Unit) {
	var params, commons, externals []*Symbol
	byType := map[Type][]*Symbol{}
	for _, s := range u.SymbolsSorted() {
		switch s.Kind {
		case SymScalar, SymArray:
			byType[s.Type] = append(byType[s.Type], s)
			if s.Common != "" {
				commons = append(commons, s)
			}
		case SymFunc:
			if s.Type != implicitType(s.Name) {
				byType[s.Type] = append(byType[s.Type], s)
			}
			if s.External {
				externals = append(externals, s)
			}
		case SymParam:
			params = append(params, s)
		}
	}
	for _, t := range declOrder {
		syms := byType[t]
		if len(syms) == 0 {
			continue
		}
		b.WriteString("      ")
		b.WriteString(typeDeclName(t))
		b.WriteByte(' ')
		for i, s := range syms {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(s.Name)
			if s.Kind == SymArray {
				b.WriteByte('(')
				for j, d := range s.Dims {
					if j > 0 {
						b.WriteByte(',')
					}
					writeDim(b, d)
				}
				b.WriteByte(')')
			}
		}
		b.WriteByte('\n')
	}
	if len(externals) > 0 {
		b.WriteString("      external ")
		for i, s := range externals {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(s.Name)
		}
		b.WriteByte('\n')
	}
	for _, s := range commons {
		b.WriteString("      common /")
		b.WriteString(s.Common)
		b.WriteString("/ ")
		b.WriteString(s.Name)
		b.WriteByte('\n')
	}
	for _, s := range params {
		b.WriteString("      parameter (")
		b.WriteString(s.Name)
		b.WriteString(" = ")
		writeExpr(b, s.Value)
		b.WriteString(")\n")
	}
}

func typeDeclName(t Type) string {
	if t == TypeUnknown {
		return "real"
	}
	return t.String()
}

// writeDim appends one array bound: "hi", "lo:hi", "*" or "lo:*",
// leaving out a lower bound of 1.
func writeDim(b *strings.Builder, d Dimension) {
	if d.Lo != nil {
		if lit, one := d.Lo.(*IntLit); !one || lit.Val != 1 {
			writeExpr(b, d.Lo)
			b.WriteByte(':')
		}
	}
	if d.Hi == nil {
		b.WriteByte('*')
		return
	}
	writeExpr(b, d.Hi)
}

type printer struct {
	b      *strings.Builder
	indent int
}

// start begins a source line: the label left-justified in columns 1–5
// (or blanks), then the indentation.
func (p *printer) start(label int) {
	if label != 0 {
		var buf [20]byte
		n := len(strconv.AppendInt(buf[:0], int64(label), 10))
		p.b.Write(buf[:n])
		for ; n < 5; n++ {
			p.b.WriteByte(' ')
		}
		p.b.WriteByte(' ')
	} else {
		p.b.WriteString("      ")
	}
	for i := 1; i < p.indent; i++ {
		p.b.WriteString("  ")
	}
}

func (p *printer) line(label int, s string) {
	p.start(label)
	p.b.WriteString(s)
	p.b.WriteByte('\n')
}

func (p *printer) stmts(body []Stmt) {
	for _, s := range body {
		p.stmt(s)
	}
}

// StmtText renders a single statement (without its nested body) as
// one line of Fortran, used by the dependence pane and filters.
func StmtText(s Stmt) string {
	var b strings.Builder
	writeStmt(&b, s)
	return b.String()
}

// writeStmt appends what StmtText returns to b.
func writeStmt(b *strings.Builder, s Stmt) {
	switch st := s.(type) {
	case *AssignStmt:
		writeExpr(b, st.Lhs)
		b.WriteString(" = ")
		writeExpr(b, st.Rhs)
	case *IfStmt:
		writeCond(b, "if (", st.Cond, ") then")
	case *DoStmt:
		writeDoHeader(b, st)
	case *WhileStmt:
		writeCond(b, "do while (", st.Cond, ")")
	case *CallStmt:
		b.WriteString("call ")
		b.WriteString(st.Name)
		if len(st.Args) > 0 {
			writeArgs(b, st.Args, ", ")
		}
	case *ReturnStmt:
		b.WriteString("return")
	case *StopStmt:
		b.WriteString("stop")
	case *ContinueStmt:
		b.WriteString("continue")
	case *GotoStmt:
		var buf [20]byte
		b.WriteString("goto ")
		b.Write(strconv.AppendInt(buf[:0], int64(st.Target), 10))
	case *PrintStmt:
		b.WriteString("print *, ")
		writeList(b, st.Items)
	case *ReadStmt:
		b.WriteString("read(*,*) ")
		writeList(b, st.Items)
	default:
		fmt.Fprintf(b, "? %T", s)
	}
}

func writeCond(b *strings.Builder, before string, cond Expr, after string) {
	b.WriteString(before)
	writeExpr(b, cond)
	b.WriteString(after)
}

// writeList appends items separated by ", ".
func writeList(b *strings.Builder, items []Expr) {
	for i, it := range items {
		if i > 0 {
			b.WriteString(", ")
		}
		writeExpr(b, it)
	}
}

func writeDoHeader(b *strings.Builder, st *DoStmt) {
	b.WriteString("do ")
	b.WriteString(st.Var.Name)
	b.WriteString(" = ")
	writeExpr(b, st.Lo)
	b.WriteString(", ")
	writeExpr(b, st.Hi)
	if st.Step != nil {
		b.WriteString(", ")
		writeExpr(b, st.Step)
	}
}

// stmtLine writes s as one line: StmtText after the label and indent.
func (p *printer) stmtLine(label int, s Stmt) {
	p.start(label)
	writeStmt(p.b, s)
	p.b.WriteByte('\n')
}

func (p *printer) stmt(s Stmt) {
	label := s.base().Label
	switch st := s.(type) {
	case *IfStmt:
		// Logical IF with a single simple statement and no else.
		if len(st.Then) == 1 && len(st.Else) == 0 && isSimple(st.Then[0]) {
			p.start(label)
			writeCond(p.b, "if (", st.Cond, ") ")
			writeStmt(p.b, st.Then[0])
			p.b.WriteByte('\n')
			return
		}
		p.stmtLine(label, st)
		p.indent++
		p.stmts(st.Then)
		p.indent--
		p.printElse(st.Else)
		p.line(0, "endif")
	case *DoStmt:
		if st.Parallel {
			p.b.WriteString("c$par doall")
			if len(st.Private) > 0 {
				p.b.WriteString(" private(")
				for i, v := range st.Private {
					if i > 0 {
						p.b.WriteByte(',')
					}
					p.b.WriteString(v.Name)
				}
				p.b.WriteByte(')')
			}
			for _, r := range st.Reductions {
				p.b.WriteString(" reduction(")
				p.b.WriteString(r.Operator())
				p.b.WriteByte(':')
				p.b.WriteString(r.Sym.Name)
				p.b.WriteByte(')')
			}
			p.b.WriteByte('\n')
		}
		p.stmtLine(label, st)
		p.indent++
		p.stmts(st.Body)
		p.indent--
		p.line(0, "enddo")
	case *WhileStmt:
		p.stmtLine(label, st)
		p.indent++
		p.stmts(st.Body)
		p.indent--
		p.line(0, "enddo")
	default:
		p.stmtLine(label, s)
	}
}

func (p *printer) printElse(els []Stmt) {
	if len(els) == 0 {
		return
	}
	// ELSE IF chain: a single nested IfStmt prints as "else if".
	if len(els) == 1 {
		if nested, ok := els[0].(*IfStmt); ok && nested.Label == 0 && !(len(nested.Then) == 1 && len(nested.Else) == 0 && isSimple(nested.Then[0])) {
			p.start(0)
			writeCond(p.b, "else if (", nested.Cond, ") then")
			p.b.WriteByte('\n')
			p.indent++
			p.stmts(nested.Then)
			p.indent--
			p.printElse(nested.Else)
			return
		}
	}
	p.line(0, "else")
	p.indent++
	p.stmts(els)
	p.indent--
}

func isSimple(s Stmt) bool {
	switch s.(type) {
	case *AssignStmt, *CallStmt, *GotoStmt, *ReturnStmt, *StopStmt, *ContinueStmt, *PrintStmt:
		return true
	}
	return false
}

// Operator is the reduction's operator as a `c$par reduction(op:var)`
// annotation spells it: "+", "*", "max" or "min".
func (r Reduction) Operator() string {
	if r.OpName != "" {
		return r.OpName
	}
	switch r.Op {
	case TokPlus:
		return "+"
	case TokStar:
		return "*"
	}
	return "?"
}
