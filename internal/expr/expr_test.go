package expr

import (
	"math/rand"
	"testing"
	"testing/quick"

	"parascope/internal/fortran"
)

// testUnit builds a unit with integer scalars for the given names.
func testUnit(names ...string) *fortran.Unit {
	u := &fortran.Unit{Kind: fortran.UnitSubroutine, Name: "t", Syms: map[string]*fortran.Symbol{}}
	for _, n := range names {
		u.Syms[n] = &fortran.Symbol{Name: n, Kind: fortran.SymScalar, Type: fortran.TypeInteger, Unit: u}
	}
	return u
}

func parseExprIn(t *testing.T, u *fortran.Unit, src string) fortran.Expr {
	t.Helper()
	full := "      program main\n      integer "
	first := true
	for n := range u.Syms {
		if !first {
			full += ", "
		}
		full += n
		first = false
	}
	full += "\n      ires = " + src + "\n      end\n"
	f, err := fortran.Parse("e.f", full)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	as := f.Units[0].Body[0].(*fortran.AssignStmt)
	// Re-bind symbols to u's symbols by name so Linearize sees them.
	var rebind func(e fortran.Expr)
	rebind = func(e fortran.Expr) {
		switch x := e.(type) {
		case *fortran.VarRef:
			if s, ok := u.Syms[x.Name]; ok {
				x.Sym = s
			}
			for _, s := range x.Subs {
				rebind(s)
			}
		case *fortran.Unary:
			rebind(x.X)
		case *fortran.Binary:
			rebind(x.X)
			rebind(x.Y)
		case *fortran.FuncCall:
			for _, a := range x.Args {
				rebind(a)
			}
		}
	}
	rebind(as.Rhs)
	return as.Rhs
}

func TestLinearizeBasic(t *testing.T) {
	u := testUnit("i", "j", "n")
	cases := []struct {
		src  string
		want string
	}{
		{"i + 1", "i+1"},
		{"2*i + 3*j - 5", "2*i+3*j-5"},
		{"i - i", "0"},
		{"n - (n - 1)", "1"},
		{"-(i + j)", "-i-j"},
		{"4*(i+2)/2", "2*i+4"},
		{"3*i - 2*i", "i"},
	}
	for _, c := range cases {
		e := parseExprIn(t, u, c.src)
		l, ok := Linearize(u, e)
		if !ok {
			t.Errorf("%s: not affine", c.src)
			continue
		}
		if got := l.String(); got != c.want {
			t.Errorf("%s: got %s, want %s", c.src, got, c.want)
		}
	}
}

func TestLinearizeRejectsNonAffine(t *testing.T) {
	u := testUnit("i", "j")
	for _, src := range []string{"i*j", "i/2", "mod(i,2)", "i + 0.5"} {
		e := parseExprIn(t, u, src)
		if _, ok := Linearize(u, e); ok {
			t.Errorf("%s: unexpectedly affine", src)
		}
	}
}

func TestLinearizeParameter(t *testing.T) {
	u := testUnit("i")
	p := &fortran.Symbol{Name: "n", Kind: fortran.SymParam, Type: fortran.TypeInteger,
		Value: &fortran.IntLit{Val: 100}, Unit: u}
	u.Syms["n"] = p
	e := parseExprIn(t, u, "i + n")
	l, ok := Linearize(u, e)
	if !ok || l.String() != "i+100" {
		t.Errorf("got %v %v, want i+100", l, ok)
	}
}

func TestLinearAlgebraProperties(t *testing.T) {
	syms := []*fortran.Symbol{
		{Name: "a", Type: fortran.TypeInteger},
		{Name: "b", Type: fortran.TypeInteger},
		{Name: "c", Type: fortran.TypeInteger},
	}
	rnd := rand.New(rand.NewSource(42))
	randLin := func() Linear {
		l := Con(int64(rnd.Intn(21) - 10))
		for _, s := range syms {
			if rnd.Intn(2) == 1 {
				l = l.Add(Var(s).Scale(int64(rnd.Intn(11) - 5)))
			}
		}
		return l
	}
	for i := 0; i < 500; i++ {
		x, y, z := randLin(), randLin(), randLin()
		if !x.Add(y).Equal(y.Add(x)) {
			t.Fatalf("Add not commutative: %s, %s", x, y)
		}
		if !x.Add(y).Add(z).Equal(x.Add(y.Add(z))) {
			t.Fatalf("Add not associative")
		}
		if d := x.Sub(x); !d.IsConst() || d.Const != 0 {
			t.Fatalf("x - x != 0 for %s", x)
		}
		if d := x.Scale(3).Sub(x).Sub(x).Sub(x); !d.IsConst() || d.Const != 0 {
			t.Fatalf("3x - x - x - x != 0 for %s", x)
		}
		// Substituting a fresh var for itself is identity.
		if !x.Subst(syms[0], Var(syms[0])).Equal(x) {
			t.Fatalf("identity substitution changed %s", x)
		}
	}
}

func TestRangeArithmetic(t *testing.T) {
	r := Bounded(1, 10)
	s := Bounded(-2, 3)
	sum := r.Add(s)
	if sum.Lo != -1 || sum.Hi != 13 {
		t.Errorf("sum = %s", sum)
	}
	if got := r.Scale(-2); got.Lo != -20 || got.Hi != -2 {
		t.Errorf("scale = %s", got)
	}
	if got := r.Intersect(Bounded(5, 20)); got.Lo != 5 || got.Hi != 10 {
		t.Errorf("intersect = %s", got)
	}
	inf := AtLeast(3)
	if got := inf.Add(Exact(2)); got.Lo != 5 || !got.HiInf {
		t.Errorf("inf add = %s", got)
	}
	if !Bounded(3, 1).Empty() {
		t.Error("Bounded(3,1) should be empty")
	}
}

func TestRangePropertyContains(t *testing.T) {
	// Interval arithmetic must be conservative: if a ∈ r and b ∈ s
	// then a+b ∈ r.Add(s) and c*a ∈ r.Scale(c).
	f := func(a, b int16, c int8) bool {
		r := Bounded(int64(a)-3, int64(a)+3)
		s := Bounded(int64(b)-5, int64(b)+5)
		if !r.Add(s).Contains(int64(a) + int64(b)) {
			return false
		}
		return r.Scale(int64(c)).Contains(int64(a) * int64(c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEnvEvalRange(t *testing.T) {
	i := &fortran.Symbol{Name: "i", Type: fortran.TypeInteger}
	n := &fortran.Symbol{Name: "n", Type: fortran.TypeInteger}
	env := NewEnv()
	env.SetRange(i, Bounded(1, 100))
	env.SetValue(n, 100)

	// n - i: [0, 99]
	l := Var(n).Sub(Var(i))
	r := env.EvalRange(l)
	if r.Lo != 0 || r.Hi != 99 {
		t.Errorf("n-i = %s", r)
	}
	if !env.ProveNonNegative(l) {
		t.Error("n-i should be provably non-negative")
	}
}

func TestEnvIntersection(t *testing.T) {
	n := &fortran.Symbol{Name: "n", Type: fortran.TypeInteger}
	env := NewEnv()
	env.SetRange(n, AtLeast(1))
	env.SetRange(n, AtMost(50))
	r := env.RangeOf(n)
	if r.Lo != 1 || r.Hi != 50 || r.LoInf || r.HiInf {
		t.Errorf("n range = %s, want [1,50]", r)
	}
	clone := env.Clone()
	clone.SetValue(n, 7)
	if got := env.RangeOf(n); got.IsExact() {
		t.Error("Clone leaked writes back to the original env")
	}
}

func TestFold(t *testing.T) {
	u := testUnit("i", "n")
	cases := []struct {
		src, want string
	}{
		{"1 + 2", "3"},
		{"i + 0", "i"},
		{"0 + i", "i"},
		{"i*1", "i"},
		{"i*0", "0"},
		{"i - i", "0"},
		{"2*3 + i", "6 + i"},
		{"(n + 1) - 1", "n + 1 - 1"}, // fold is shallow over re-association
		{"i/1", "i"},
		{"2**3", "8"},
	}
	for _, c := range cases {
		e := parseExprIn(t, u, c.src)
		if got := Fold(e).String(); got != c.want {
			t.Errorf("Fold(%s) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestLinearizeViaFileParse(t *testing.T) {
	// End-to-end: symbols resolved by the real front end.
	f := fortran.MustParse("l.f", `
      program main
      integer i, j, k
      real a(100)
      a(2*i + 3) = 0.0
      a(i + j - k) = 1.0
      end
`)
	u := f.Units[0]
	a0 := u.Body[0].(*fortran.AssignStmt)
	l, ok := Linearize(u, a0.Lhs.Subs[0])
	if !ok || l.String() != "2*i+3" {
		t.Errorf("got %v %v", l, ok)
	}
	a1 := u.Body[1].(*fortran.AssignStmt)
	l, ok = Linearize(u, a1.Lhs.Subs[0])
	if !ok || l.Coef(u.Lookup("k")) != -1 {
		t.Errorf("got %v %v", l, ok)
	}
}

// Property (testing/quick): scaling distributes over addition and
// substitution respects evaluation, for arbitrary coefficients.
func TestQuickLinearLaws(t *testing.T) {
	x := &fortran.Symbol{Name: "x", Type: fortran.TypeInteger}
	y := &fortran.Symbol{Name: "y", Type: fortran.TypeInteger}
	evalAt := func(l Linear, vx, vy int64) int64 {
		v := l.Const
		for _, tm := range l.Terms {
			switch tm.Sym {
			case x:
				v += tm.Coef * vx
			case y:
				v += tm.Coef * vy
			}
		}
		return v
	}
	mk := func(cx, cy, c int8) Linear {
		return Var(x).Scale(int64(cx)).Add(Var(y).Scale(int64(cy))).Add(Con(int64(c)))
	}
	distributes := func(ax, ay, ac, bx, by, bc, k, vx, vy int8) bool {
		a, b := mk(ax, ay, ac), mk(bx, by, bc)
		lhs := a.Add(b).Scale(int64(k))
		rhs := a.Scale(int64(k)).Add(b.Scale(int64(k)))
		return lhs.Equal(rhs) &&
			evalAt(lhs, int64(vx), int64(vy)) == int64(k)*(evalAt(a, int64(vx), int64(vy))+evalAt(b, int64(vx), int64(vy)))
	}
	if err := quick.Check(distributes, nil); err != nil {
		t.Error(err)
	}
	substEval := func(ax, ay, ac, rx, rc, vx, vy int8) bool {
		// Substituting y := rx*x + rc must evaluate like composing.
		a := mk(ax, ay, ac)
		r := Var(x).Scale(int64(rx)).Add(Con(int64(rc)))
		sub := a.Subst(y, r)
		vyComposed := int64(rx)*int64(vx) + int64(rc)
		return evalAt(sub, int64(vx), 0) == evalAt(a, int64(vx), vyComposed)
	}
	if err := quick.Check(substEval, nil); err != nil {
		t.Error(err)
	}
}
