// Package prelude is the runtime support every generated program
// calls: buffered locked output, whitespace-separated float input for
// READ, the generic array type replicating the interpreter's
// column-major indexing (per-dimension lower bounds, single-subscript
// linearized fallback, bounds checks), and the arithmetic helpers
// whose semantics mirror the interpreter's (runtime integer
// division-by-zero, plain-compare min/max without math.Max's NaN
// handling, fresh by-value cells).
//
// The compile backend stages this file verbatim, beside parrt and
// runfmt, in the runtime module generated programs require, and they
// dot-import it (as rt/prelude): its exported names are the code
// generator's vocabulary. Like its two neighbours it must stay
// dependency-free (standard library only) and self-contained in this
// one file.
package prelude

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"
)

// Workers is the -workers flag: goroutines per DOALL loop. Main
// registers it, not the package: the interpreter imports this package
// for Ipow, and its hosts have -workers flags of their own.
var Workers = new(int)

// Main runs a generated program: flags, all of stdin as READ input,
// the main unit, and the output flush a STOP or the END falls into.
func Main(program func()) {
	flag.IntVar(Workers, "workers", 1, "goroutines per DOALL loop (<=0 means GOMAXPROCS)")
	flag.Parse()
	readInput()
	program()
	flushOut()
}

// Must unwraps a runtime package's (value, error) result; the error
// is a runtime error here as in the interpreter.
func Must[T any](v T, err error) T {
	if err != nil {
		RtErr(err.Error())
	}
	return v
}

// CI and CF lift literals to non-constant typed values so the Go
// compiler's constant arithmetic never rejects what the interpreter
// would have evaluated at runtime.
func CI(v int64) int64     { return v }
func CF(v float64) float64 { return v }

var (
	out   = bufio.NewWriter(os.Stdout)
	outMu sync.Mutex
)

// Out appends one formatted record to the program's output.
func Out(record string) {
	outMu.Lock()
	out.WriteString(record)
	outMu.Unlock()
}

func flushOut() {
	outMu.Lock()
	out.Flush()
	outMu.Unlock()
}

// fail ends the program on a runtime error, after the output written
// so far. The package's tests replace it to observe the message.
var fail = func(msg string) {
	flushOut()
	fmt.Fprintln(os.Stderr, "runtime error: "+msg)
	os.Exit(2)
}

// RtErr reports a runtime error and does not return.
func RtErr(msg string) { fail(msg) }

var (
	inVals []float64
	inPos  int
)

func readInput() {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 64*1024), 1<<24)
	sc.Split(bufio.ScanWords)
	for sc.Scan() {
		v, err := strconv.ParseFloat(sc.Text(), 64)
		if err != nil {
			RtErr("bad input token " + sc.Text())
		}
		inVals = append(inVals, v)
	}
}

// RdF consumes the next input value; when input is exhausted it
// yields zero without advancing, like the interpreter's READ.
func RdF() float64 {
	if inPos < len(inVals) {
		v := inVals[inPos]
		inPos++
		return v
	}
	return 0
}

// Arr is one array's storage: column-major data with per-dimension
// lower bounds and extents. Passing an Arr by value shares the data
// (Fortran by-reference argument semantics) while letting callers
// substitute their own shape view.
type Arr[T any] struct {
	Data []T
	Lo   []int64
	Ext  []int64
}

// Mkdim allocates an array from (lo, hi) bound pairs.
func Mkdim[T any](bounds ...int64) Arr[T] {
	var lo, ext []int64
	n := int64(1)
	for i := 0; i < len(bounds); i += 2 {
		l, h := bounds[i], bounds[i+1]
		if h < l {
			RtErr("array extent empty")
		}
		lo = append(lo, l)
		ext = append(ext, h-l+1)
		n *= h - l + 1
	}
	return Arr[T]{Data: make([]T, n), Lo: lo, Ext: ext}
}

func (a Arr[T]) sz() int64 {
	n := int64(1)
	for _, e := range a.Ext {
		n *= e
	}
	return n
}

// Idx computes the column-major linear offset of the subscripts,
// supporting legacy single-subscript linearized access to
// multi-dimensional arrays.
func (a Arr[T]) Idx(subs ...int64) int64 {
	if len(subs) != len(a.Ext) {
		if len(subs) == 1 {
			off := subs[0] - a.Lo[0]
			if off < 0 || off >= a.sz() {
				RtErr("subscript " + strconv.FormatInt(subs[0], 10) + " out of bounds")
			}
			return off
		}
		RtErr("wrong number of subscripts")
	}
	var off, stride int64 = 0, 1
	for d := 0; d < len(subs); d++ {
		i := subs[d] - a.Lo[d]
		if i < 0 || i >= a.Ext[d] {
			RtErr("subscript " + strconv.FormatInt(subs[d], 10) + " (dim " + strconv.Itoa(d+1) + ") out of bounds")
		}
		off += i * stride
		stride *= a.Ext[d]
	}
	return off
}

// Tail aliases the storage from the given element onward with a
// one-dimensional unit-lower-bound shape (sequence association).
func (a Arr[T]) Tail(subs ...int64) Arr[T] {
	off := a.Idx(subs...)
	return Arr[T]{Data: a.Data[off:], Lo: []int64{1}, Ext: []int64{a.sz() - off}}
}

// Blank returns fresh zeroed storage with the same shape (private
// work arrays in DOALL workers).
func (a Arr[T]) Blank() Arr[T] {
	return Arr[T]{Data: make([]T, len(a.Data)), Lo: a.Lo, Ext: a.Ext}
}

// Fresh by-value cells for expression actuals.
func RefI(v int64) *int64     { return &v }
func RefF(v float64) *float64 { return &v }
func RefB(v bool) *bool       { return &v }
func RefS(v string) *string   { return &v }

func Idiv(a, b int64) int64 {
	if b == 0 {
		RtErr("integer division by zero")
	}
	return a / b
}

func Imod(a, b int64) int64 {
	if b == 0 {
		RtErr("mod by zero")
	}
	return a % b
}

// Ipow is a**b for b >= 0 by square and multiply: an exponent of any
// size costs at most 63 rounds. Products wrap, so the result has the
// bits the b-fold product would have. The interpreter and the code
// generator's constant folder call this same function.
func Ipow(a, b int64) int64 {
	r := int64(1)
	for ; b > 0; b >>= 1 {
		if b&1 == 1 {
			r *= a
		}
		a *= a
	}
	return r
}

func Iabs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Plain-comparison min/max: NaN never wins, matching the
// interpreter's loop rather than math.Max's NaN propagation.
func Imax(vs ...int64) int64 {
	best := vs[0]
	for _, v := range vs[1:] {
		if v > best {
			best = v
		}
	}
	return best
}

func Imin(vs ...int64) int64 {
	best := vs[0]
	for _, v := range vs[1:] {
		if v < best {
			best = v
		}
	}
	return best
}

func Fmax(vs ...float64) float64 {
	best := vs[0]
	for _, v := range vs[1:] {
		if v > best {
			best = v
		}
	}
	return best
}

func Fmin(vs ...float64) float64 {
	best := vs[0]
	for _, v := range vs[1:] {
		if v < best {
			best = v
		}
	}
	return best
}

// Feq and Fne are .eq. and .ne. on floats as the interpreter compares:
// a NaN is neither below nor above anything, so it equals everything.
// .le. and .ge. are lowered in line, as !(a > b) and !(a < b).
func Feq(a, b float64) bool { return !(a < b || a > b) }
func Fne(a, b float64) bool { return a < b || a > b }

func Fsign(a, b float64) float64 {
	m := math.Abs(a)
	if b < 0 {
		return -m
	}
	return m
}

func Fdim(a, b float64) float64 {
	d := a - b
	if d < 0 {
		return 0
	}
	return d
}
