package fortran

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"reflect"
	"sort"
	"testing"
)

// everyStmt holds one zero value of every statement type.
var everyStmt = []Stmt{
	&AssignStmt{}, &IfStmt{}, &DoStmt{}, &WhileStmt{}, &CallStmt{},
	&ReturnStmt{}, &StopStmt{}, &ContinueStmt{}, &GotoStmt{},
	&PrintStmt{}, &ReadStmt{},
}

// TestEveryStmtIsListed: everyStmt names every struct of this package
// that embeds StmtBase, so the test below sees a new statement type.
func TestEveryStmtIsListed(t *testing.T) {
	pkgs, err := goparser.ParseDir(token.NewFileSet(), ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, f := range pkgs["fortran"].Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, fld := range st.Fields.List {
					if id, ok := fld.Type.(*ast.Ident); ok && len(fld.Names) == 0 && id.Name == "StmtBase" {
						declared = append(declared, ts.Name.Name)
					}
				}
			}
			return true
		})
	}
	var listed []string
	for _, s := range everyStmt {
		listed = append(listed, reflect.TypeOf(s).Elem().Name())
	}
	sort.Strings(declared)
	sort.Strings(listed)
	if fmt.Sprint(declared) != fmt.Sprint(listed) {
		t.Errorf("statement types %v, everyStmt lists %v", declared, listed)
	}
}

// TestEditExprsVisitsEverySlot fills every Expr, *VarRef and []Expr
// field of every statement type with a distinct marker, and every
// []Stmt field with a statement holding a marker of its own. EditExprs
// must pass each slot's marker to fn exactly once, in field order,
// store what fn returns, and never reach the nested statement.
func TestEditExprsVisitsEverySlot(t *testing.T) {
	exprType := reflect.TypeOf((*Expr)(nil)).Elem()
	for _, proto := range everyStmt {
		typ := reflect.TypeOf(proto).Elem()
		v := reflect.New(typ)
		var want []string
		mark := func() *VarRef {
			m := &VarRef{Name: fmt.Sprintf("m%d", len(want))}
			want = append(want, m.Name)
			return m
		}
		for i := 0; i < typ.NumField(); i++ {
			f := v.Elem().Field(i)
			switch f.Type() {
			case exprType, reflect.TypeOf(&VarRef{}):
				f.Set(reflect.ValueOf(mark()))
			case reflect.TypeOf([]Expr{}):
				f.Set(reflect.ValueOf([]Expr{mark(), mark()}))
			case reflect.TypeOf([]Stmt{}):
				f.Set(reflect.ValueOf([]Stmt{&AssignStmt{Lhs: &VarRef{Name: "nested"}, Rhs: &VarRef{Name: "nested"}}}))
			}
		}
		s := v.Interface().(Stmt)
		var got []string
		EditExprs(s, func(e Expr) Expr {
			name := e.(*VarRef).Name
			got = append(got, name)
			return &VarRef{Name: name + "'"}
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: EditExprs visited %v, want %v", typ.Name(), got, want)
		}
		var stored []string
		WalkExprs(s, func(e Expr) { stored = append(stored, e.(*VarRef).Name) })
		for i, name := range want {
			if i >= len(stored) || stored[i] != name+"'" {
				t.Errorf("%s: slots hold %v after the edit, want each of %v primed", typ.Name(), stored, want)
				break
			}
		}
	}
}

// TestRewriteExprOperandsFirst: fn sees each operand before the
// expression holding it, and its result replaces the operand.
func TestRewriteExprOperandsFirst(t *testing.T) {
	e := &Binary{Op: TokPlus, X: &VarRef{Name: "a", Subs: []Expr{&VarRef{Name: "i"}}}, Y: &Unary{Op: TokMinus, X: &IntLit{Val: 1}}}
	var order []string
	got := RewriteExpr(e, func(x Expr) Expr {
		order = append(order, x.String())
		if vr, ok := x.(*VarRef); ok && vr.Name == "i" {
			return &IntLit{Val: 2}
		}
		return x
	})
	if want := "[i a(2) 1 -1 a(2) + -1]"; fmt.Sprint(order) != want {
		t.Errorf("visit order %v, want %s", order, want)
	}
	if got.String() != "a(2) + -1" {
		t.Errorf("rewritten to %s", got)
	}
}

// TestMentions: a reference is found under calls and subscripts, by
// symbol, not by name.
func TestMentions(t *testing.T) {
	a, i := &Symbol{Name: "a"}, &Symbol{Name: "i"}
	ref := &VarRef{Sym: a, Name: "a", Subs: []Expr{&VarRef{Sym: i, Name: "i"}}}
	e := &Binary{Op: TokStar, X: &FuncCall{Name: "f", Args: []Expr{ref}}, Y: &IntLit{Val: 3}}
	if !Mentions(e, a) || !Mentions(e, i) {
		t.Error("a reference under a call or a subscript is missed")
	}
	if Mentions(e, &Symbol{Name: "i"}) || Mentions(nil, i) {
		t.Error("Mentions matched a name, or found something in nothing")
	}
}
