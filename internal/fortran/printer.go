package fortran

import (
	"fmt"
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
	switch u.Kind {
	case UnitProgram:
		fmt.Fprintf(b, "      program %s\n", u.Name)
	case UnitSubroutine:
		fmt.Fprintf(b, "      subroutine %s(%s)\n", u.Name, argNames(u))
	case UnitFunction:
		prefix := ""
		if u.RetType != TypeUnknown {
			prefix = u.RetType.String() + " "
		}
		fmt.Fprintf(b, "      %sfunction %s(%s)\n", prefix, u.Name, argNames(u))
	}
	printDecls(b, u)
	pr := &printer{b: b, indent: 1}
	pr.stmts(u.Body)
	b.WriteString("      end\n")
}

func argNames(u *Unit) string {
	names := make([]string, len(u.Args))
	for i, a := range u.Args {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// printDecls regenerates declaration statements from the symbol table
// in deterministic order: type declarations, commons, parameters.
func printDecls(b *strings.Builder, u *Unit) {
	var params, commons []string
	byType := map[Type][]string{}
	var typeOrder []Type
	for _, s := range u.SymbolsSorted() {
		switch s.Kind {
		case SymScalar, SymArray:
			decl := s.Name
			if s.Kind == SymArray {
				dims := make([]string, len(s.Dims))
				for i, d := range s.Dims {
					dims[i] = dimString(d)
				}
				decl += "(" + strings.Join(dims, ",") + ")"
			}
			if _, ok := byType[s.Type]; !ok {
				typeOrder = append(typeOrder, s.Type)
			}
			byType[s.Type] = append(byType[s.Type], decl)
			if s.Common != "" {
				commons = append(commons, fmt.Sprintf("      common /%s/ %s\n", s.Common, s.Name))
			}
		case SymParam:
			params = append(params, fmt.Sprintf("      parameter (%s = %s)\n", s.Name, s.Value))
		}
	}
	// Deterministic type order.
	order := []Type{TypeInteger, TypeReal, TypeDouble, TypeLogical, TypeCharacter, TypeUnknown}
	for _, t := range order {
		if names, ok := byType[t]; ok {
			fmt.Fprintf(b, "      %s %s\n", typeDeclName(t), strings.Join(names, ", "))
		}
	}
	for _, c := range commons {
		b.WriteString(c)
	}
	for _, p := range params {
		b.WriteString(p)
	}
}

func typeDeclName(t Type) string {
	if t == TypeUnknown {
		return "real"
	}
	return t.String()
}

func dimString(d Dimension) string {
	lo := "1"
	if d.Lo != nil {
		lo = d.Lo.String()
	}
	if d.Hi == nil {
		if lo == "1" {
			return "*"
		}
		return lo + ":*"
	}
	if lo == "1" {
		return d.Hi.String()
	}
	return lo + ":" + d.Hi.String()
}

type printer struct {
	b      *strings.Builder
	indent int
}

func (p *printer) line(label int, s string) {
	if label != 0 {
		fmt.Fprintf(p.b, "%-5d ", label)
	} else {
		p.b.WriteString("      ")
	}
	p.b.WriteString(strings.Repeat("  ", p.indent-1))
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
	switch st := s.(type) {
	case *AssignStmt:
		return st.Lhs.String() + " = " + st.Rhs.String()
	case *IfStmt:
		return "if (" + st.Cond.String() + ") then"
	case *DoStmt:
		return doHeader(st)
	case *WhileStmt:
		return "do while (" + st.Cond.String() + ")"
	case *CallStmt:
		if len(st.Args) == 0 {
			return "call " + st.Name
		}
		parts := make([]string, len(st.Args))
		for i, a := range st.Args {
			parts[i] = a.String()
		}
		return "call " + st.Name + "(" + strings.Join(parts, ", ") + ")"
	case *ReturnStmt:
		return "return"
	case *StopStmt:
		return "stop"
	case *ContinueStmt:
		return "continue"
	case *GotoStmt:
		return fmt.Sprintf("goto %d", st.Target)
	case *PrintStmt:
		parts := make([]string, len(st.Items))
		for i, it := range st.Items {
			parts[i] = it.String()
		}
		return "print *, " + strings.Join(parts, ", ")
	case *ReadStmt:
		parts := make([]string, len(st.Items))
		for i, it := range st.Items {
			parts[i] = it.String()
		}
		return "read(*,*) " + strings.Join(parts, ", ")
	}
	return fmt.Sprintf("? %T", s)
}

func doHeader(st *DoStmt) string {
	h := "do " + st.Var.Name + " = " + st.Lo.String() + ", " + st.Hi.String()
	if st.Step != nil {
		h += ", " + st.Step.String()
	}
	return h
}

func (p *printer) stmt(s Stmt) {
	label := s.base().Label
	switch st := s.(type) {
	case *IfStmt:
		// Logical IF with a single simple statement and no else.
		if len(st.Then) == 1 && len(st.Else) == 0 && isSimple(st.Then[0]) {
			p.line(label, "if ("+st.Cond.String()+") "+StmtText(st.Then[0]))
			return
		}
		p.line(label, "if ("+st.Cond.String()+") then")
		p.indent++
		p.stmts(st.Then)
		p.indent--
		p.printElse(st.Else)
		p.line(0, "endif")
	case *DoStmt:
		hdr := doHeader(st)
		if st.Parallel {
			ann := "c$par doall"
			if len(st.Private) > 0 {
				names := make([]string, len(st.Private))
				for i, v := range st.Private {
					names[i] = v.Name
				}
				ann += " private(" + strings.Join(names, ",") + ")"
			}
			for _, r := range st.Reductions {
				ann += " reduction(" + r.Operator() + ":" + r.Sym.Name + ")"
			}
			p.b.WriteString(ann + "\n")
		}
		p.line(label, hdr)
		p.indent++
		p.stmts(st.Body)
		p.indent--
		p.line(0, "enddo")
	case *WhileStmt:
		p.line(label, "do while ("+st.Cond.String()+")")
		p.indent++
		p.stmts(st.Body)
		p.indent--
		p.line(0, "enddo")
	default:
		p.line(label, StmtText(s))
	}
}

func (p *printer) printElse(els []Stmt) {
	if len(els) == 0 {
		return
	}
	// ELSE IF chain: a single nested IfStmt prints as "else if".
	if len(els) == 1 {
		if nested, ok := els[0].(*IfStmt); ok && nested.Label == 0 && !(len(nested.Then) == 1 && len(nested.Else) == 0 && isSimple(nested.Then[0])) {
			p.line(0, "else if ("+nested.Cond.String()+") then")
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
