package prelude

import (
	"errors"
	"math"
	"slices"
	"testing"
)

// rtError is what the tests' fail hook panics with.
type rtError string

// runtimeError runs fn with RtErr turned into a panic and returns the
// message, or "" when fn finished without a runtime error.
func runtimeError(t *testing.T, fn func()) (msg string) {
	t.Helper()
	saved := fail
	fail = func(m string) { panic(rtError(m)) }
	defer func() {
		fail = saved
		if r := recover(); r != nil {
			e, ok := r.(rtError)
			if !ok {
				panic(r)
			}
			msg = string(e)
		}
	}()
	fn()
	return ""
}

func TestIdxColumnMajorWithLowerBounds(t *testing.T) {
	a := Mkdim[float64](-1, 2, 0, 2) // a(-1:2, 0:2): 4 x 3
	if len(a.Data) != 12 || !slices.Equal(a.Lo, []int64{-1, 0}) || !slices.Equal(a.Ext, []int64{4, 3}) {
		t.Fatalf("Mkdim shape: %d elements, lo %v, ext %v", len(a.Data), a.Lo, a.Ext)
	}
	for _, c := range []struct{ i, j, want int64 }{
		{-1, 0, 0}, {0, 0, 1}, {2, 0, 3}, {-1, 1, 4}, {1, 2, 10}, {2, 2, 11},
	} {
		if got := a.Idx(c.i, c.j); got != c.want {
			t.Errorf("Idx(%d,%d) = %d, want %d", c.i, c.j, got, c.want)
		}
	}
	// One subscript on a two-dimensional array indexes the storage
	// linearly from the first dimension's lower bound.
	if got := a.Idx(-1); got != 0 {
		t.Errorf("Idx(-1) = %d, want 0", got)
	}
	if got := a.Idx(10); got != 11 {
		t.Errorf("Idx(10) = %d, want 11", got)
	}
}

func TestRuntimeErrorWording(t *testing.T) {
	a := Mkdim[int64](1, 3, 1, 2)
	for _, c := range []struct {
		name string
		fn   func()
		want string
	}{
		{"below", func() { a.Idx(0, 1) }, "subscript 0 (dim 1) out of bounds"},
		{"above", func() { a.Idx(1, 3) }, "subscript 3 (dim 2) out of bounds"},
		{"linear-below", func() { a.Idx(0) }, "subscript 0 out of bounds"},
		{"linear-above", func() { a.Idx(7) }, "subscript 7 out of bounds"},
		{"arity", func() { a.Idx(1, 1, 1) }, "wrong number of subscripts"},
		{"empty-extent", func() { Mkdim[float64](2, 1) }, "array extent empty"},
		{"idiv", func() { Idiv(1, 0) }, "integer division by zero"},
		{"imod", func() { Imod(1, 0) }, "mod by zero"},
		{"must", func() { Must(0, errors.New("zero DO step")) }, "zero DO step"},
	} {
		if got := runtimeError(t, c.fn); got != c.want {
			t.Errorf("%s: runtime error %q, want %q", c.name, got, c.want)
		}
	}
	if msg := runtimeError(t, func() {
		if Idiv(-7, 2) != -3 || Imod(-7, 2) != -1 || Must(5, nil) != 5 || a.Idx(3, 2) != 5 {
			t.Error("wrong value on the error-free path")
		}
	}); msg != "" {
		t.Errorf("runtime error %q on valid operands", msg)
	}
}

// TestMinMaxPlainCompare: the interpreter's loop keeps the first
// argument unless a later one compares greater (less), so a NaN never
// replaces a number and a leading NaN is never replaced — unlike
// math.Max, which propagates NaN from either side.
func TestMinMaxPlainCompare(t *testing.T) {
	nan := math.NaN()
	if got := Fmax(1, nan, 3); got != 3 {
		t.Errorf("Fmax(1, NaN, 3) = %v, want 3", got)
	}
	if got := Fmin(2, nan, 1); got != 1 {
		t.Errorf("Fmin(2, NaN, 1) = %v, want 1", got)
	}
	if got := Fmax(nan, 1); !math.IsNaN(got) {
		t.Errorf("Fmax(NaN, 1) = %v, want NaN", got)
	}
	if got := Fmin(nan, 1); !math.IsNaN(got) {
		t.Errorf("Fmin(NaN, 1) = %v, want NaN", got)
	}
	if Imax(3, 9, -2) != 9 || Imin(3, 9, -2) != -2 {
		t.Error("Imax/Imin")
	}
}

// TestTailSequenceAssociation: passing a(i,j) to an array formal hands
// over the storage from that element on, one-dimensional from 1, and
// shares it.
func TestTailSequenceAssociation(t *testing.T) {
	a := Mkdim[float64](1, 3, 1, 2)
	for i := range a.Data {
		a.Data[i] = float64(i)
	}
	tl := a.Tail(2, 2) // element 4 of 0..5
	if !slices.Equal(tl.Lo, []int64{1}) || !slices.Equal(tl.Ext, []int64{2}) {
		t.Fatalf("tail shape lo %v ext %v, want [1] [2]", tl.Lo, tl.Ext)
	}
	if tl.Data[tl.Idx(1)] != 4 || tl.Data[tl.Idx(2)] != 5 {
		t.Fatalf("tail data %v", tl.Data)
	}
	tl.Data[tl.Idx(2)] = 50
	if a.Data[a.Idx(3, 2)] != 50 {
		t.Fatal("tail does not share the caller's storage")
	}
	if got := runtimeError(t, func() { tl.Idx(3) }); got != "subscript 3 (dim 1) out of bounds" {
		t.Fatalf("past the tail: %q", got)
	}

	b := a.Blank()
	if len(b.Data) != len(a.Data) || b.Data[5] != 0 || &b.Data[0] == &a.Data[0] {
		t.Fatal("Blank is not fresh zeroed storage of the same size")
	}
}

// TestIpow holds square-and-multiply to the repeated product it
// replaced — bit for bit where products wrap — and to an exponent no
// loop of that many rounds would ever finish.
func TestIpow(t *testing.T) {
	for _, c := range []struct{ a, b, want int64 }{
		{2, 62, 1 << 62}, {2, 63, math.MinInt64}, {2, 64, 0}, {-3, 5, -243}, {0, 0, 1}, {0, 7, 0},
		{7, 1, 7}, {-1, 9000000000000000001, -1}, {3, 9000000000000000000, -7299167144870150143},
	} {
		if got := Ipow(c.a, c.b); got != c.want {
			t.Errorf("Ipow(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	for a := int64(-7); a <= 7; a++ {
		want := int64(1)
		for b := int64(0); b < 70; b++ {
			if got := Ipow(a, b); got != want {
				t.Fatalf("Ipow(%d, %d) = %d, the repeated product is %d", a, b, got, want)
			}
			want *= a
		}
	}
}

func TestCellsAndInput(t *testing.T) {
	p, q := RefI(4), RefI(4)
	if p == q || *p != 4 {
		t.Fatal("RefI cells are not fresh")
	}
	if Ipow(3, 4) != 81 || Ipow(5, 0) != 1 || Iabs(-6) != 6 {
		t.Error("Ipow/Iabs")
	}
	if Fsign(-2, 1) != 2 || Fsign(2, -1) != -2 || Fdim(5, 3) != 2 || Fdim(3, 5) != 0 {
		t.Error("Fsign/Fdim")
	}
	// READ past the end of input yields zero and stays there.
	inVals, inPos = []float64{1.5, 2.5}, 0
	defer func() { inVals, inPos = nil, 0 }()
	if got := []float64{RdF(), RdF(), RdF(), RdF()}; !slices.Equal(got, []float64{1.5, 2.5, 0, 0}) {
		t.Errorf("RdF sequence %v", got)
	}
}
