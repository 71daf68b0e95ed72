// Package expr provides the symbolic expression algebra underlying
// ParaScope's analyses: canonical affine (linear) forms over program
// symbols, integer ranges, an assumption environment fed by constant
// propagation and user assertions, and a constant folder used by the
// transformations.
package expr

import (
	"fmt"
	"sort"
	"strings"

	"parascope/internal/fortran"
)

// Term is one c*sym component of a linear form.
type Term struct {
	Sym  *fortran.Symbol
	Coef int64
}

// Linear is a canonical affine form: sum of Terms plus Const. Terms
// are sorted by symbol name and never carry zero coefficients, so two
// equal forms are structurally identical.
type Linear struct {
	Terms []Term
	Const int64
}

// Con returns a constant linear form.
func Con(c int64) Linear { return Linear{Const: c} }

// Var returns the linear form 1*sym.
func Var(sym *fortran.Symbol) Linear {
	return Linear{Terms: []Term{{Sym: sym, Coef: 1}}}
}

// IsConst reports whether l has no symbolic terms.
func (l Linear) IsConst() bool { return len(l.Terms) == 0 }

// Coef returns the coefficient of sym (0 when absent).
func (l Linear) Coef(sym *fortran.Symbol) int64 {
	for _, t := range l.Terms {
		if t.Sym == sym {
			return t.Coef
		}
	}
	return 0
}

// Without returns l with sym's term removed.
func (l Linear) Without(sym *fortran.Symbol) Linear {
	out := Linear{Const: l.Const}
	for _, t := range l.Terms {
		if t.Sym != sym {
			out.Terms = append(out.Terms, t)
		}
	}
	return out
}

// Add returns l + m.
func (l Linear) Add(m Linear) Linear {
	coefs := map[*fortran.Symbol]int64{}
	var syms []*fortran.Symbol
	for _, t := range l.Terms {
		if _, ok := coefs[t.Sym]; !ok {
			syms = append(syms, t.Sym)
		}
		coefs[t.Sym] += t.Coef
	}
	for _, t := range m.Terms {
		if _, ok := coefs[t.Sym]; !ok {
			syms = append(syms, t.Sym)
		}
		coefs[t.Sym] += t.Coef
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i].Name < syms[j].Name })
	out := Linear{Const: l.Const + m.Const}
	for _, s := range syms {
		if c := coefs[s]; c != 0 {
			out.Terms = append(out.Terms, Term{Sym: s, Coef: c})
		}
	}
	return out
}

// Sub returns l - m.
func (l Linear) Sub(m Linear) Linear { return l.Add(m.Scale(-1)) }

// Scale returns c*l.
func (l Linear) Scale(c int64) Linear {
	if c == 0 {
		return Con(0)
	}
	out := Linear{Const: l.Const * c}
	for _, t := range l.Terms {
		out.Terms = append(out.Terms, Term{Sym: t.Sym, Coef: t.Coef * c})
	}
	return out
}

// Equal reports structural equality.
func (l Linear) Equal(m Linear) bool {
	if l.Const != m.Const || len(l.Terms) != len(m.Terms) {
		return false
	}
	for i := range l.Terms {
		if l.Terms[i].Sym != m.Terms[i].Sym || l.Terms[i].Coef != m.Terms[i].Coef {
			return false
		}
	}
	return true
}

// Subst replaces sym by the form v in l.
func (l Linear) Subst(sym *fortran.Symbol, v Linear) Linear {
	c := l.Coef(sym)
	if c == 0 {
		return l
	}
	return l.Without(sym).Add(v.Scale(c))
}

func (l Linear) String() string {
	if l.IsConst() {
		return fmt.Sprintf("%d", l.Const)
	}
	var b strings.Builder
	for i, t := range l.Terms {
		switch {
		case t.Coef == 1:
			if i > 0 {
				b.WriteString("+")
			}
		case t.Coef == -1:
			b.WriteString("-")
		default:
			if t.Coef > 0 && i > 0 {
				b.WriteString("+")
			}
			fmt.Fprintf(&b, "%d*", t.Coef)
		}
		b.WriteString(t.Sym.Name)
	}
	if l.Const > 0 {
		fmt.Fprintf(&b, "+%d", l.Const)
	} else if l.Const < 0 {
		fmt.Fprintf(&b, "%d", l.Const)
	}
	return b.String()
}

// Linearize converts e into an affine form over the unit's symbols.
// PARAMETER constants are substituted by their values. The second
// result is false when e is not affine with integer coefficients
// (products of variables, real arithmetic, calls, array references).
func Linearize(u *fortran.Unit, e fortran.Expr) (Linear, bool) {
	switch x := e.(type) {
	case *fortran.IntLit:
		return Con(x.Val), true
	case *fortran.VarRef:
		if len(x.Subs) > 0 {
			return Linear{}, false // array element: not affine in scalars
		}
		sym := x.Sym
		if sym == nil {
			sym = u.Lookup(x.Name)
		}
		if sym == nil {
			return Linear{}, false
		}
		if sym.Kind == fortran.SymParam && sym.Value != nil {
			return Linearize(u, sym.Value)
		}
		if sym.Type != fortran.TypeInteger {
			return Linear{}, false
		}
		return Var(sym), true
	case *fortran.Unary:
		if x.Op != fortran.TokMinus {
			return Linear{}, false
		}
		l, ok := Linearize(u, x.X)
		if !ok {
			return Linear{}, false
		}
		return l.Scale(-1), true
	case *fortran.Binary:
		lx, okx := Linearize(u, x.X)
		ly, oky := Linearize(u, x.Y)
		switch x.Op {
		case fortran.TokPlus:
			if okx && oky {
				return lx.Add(ly), true
			}
		case fortran.TokMinus:
			if okx && oky {
				return lx.Sub(ly), true
			}
		case fortran.TokStar:
			if okx && oky {
				if lx.IsConst() {
					return ly.Scale(lx.Const), true
				}
				if ly.IsConst() {
					return lx.Scale(ly.Const), true
				}
			}
		case fortran.TokSlash:
			if okx && oky && ly.IsConst() && ly.Const != 0 {
				// Exact integer division only.
				if lx.IsConst() && lx.Const%ly.Const == 0 {
					return Con(lx.Const / ly.Const), true
				}
				div := ly.Const
				out := Linear{}
				if lx.Const%div != 0 {
					return Linear{}, false
				}
				out.Const = lx.Const / div
				for _, t := range lx.Terms {
					if t.Coef%div != 0 {
						return Linear{}, false
					}
					out.Terms = append(out.Terms, Term{Sym: t.Sym, Coef: t.Coef / div})
				}
				return out, true
			}
		}
		return Linear{}, false
	}
	return Linear{}, false
}
