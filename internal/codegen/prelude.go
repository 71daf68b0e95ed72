package codegen

// prelude is the runtime support emitted at the top of every
// generated program: buffered locked output through the shared runfmt
// package, DO-loop control through the shared parrt package,
// whitespace-separated float input for READ, the generic
// array type replicating the interpreter's column-major indexing
// (per-dimension lower bounds, single-subscript linearized fallback,
// bounds checks), and the arithmetic helpers whose semantics mirror
// the interpreter's (runtime integer division-by-zero, plain-compare
// min/max without math.Max's NaN handling, fresh by-value cells).
const prelude = `package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"

	"gen/parrt"
	"gen/runfmt"
)

var workersFlag = flag.Int("workers", 1, "goroutines per DOALL loop (<=0 means GOMAXPROCS)")

// doLoop resolves a DO loop's control; parrt's only error (a zero
// step) is a runtime error here as in the interpreter.
func doLoop(lo, hi, step int64) parrt.Loop {
	l, err := parrt.New(lo, hi, step)
	if err != nil {
		rtErr(err.Error())
	}
	return l
}

// cI and cF lift literals to non-constant typed values so the Go
// compiler's constant arithmetic never rejects what the interpreter
// would have evaluated at runtime.
func cI(v int64) int64   { return v }
func cF(v float64) float64 { return v }

var (
	out   = bufio.NewWriter(os.Stdout)
	outMu sync.Mutex
)

func wln(parts ...string) {
	outMu.Lock()
	out.WriteString(runfmt.Line(parts))
	outMu.Unlock()
}

func flushOut() {
	outMu.Lock()
	out.Flush()
	outMu.Unlock()
}

func rtErr(msg string) {
	flushOut()
	fmt.Fprintln(os.Stderr, "runtime error: "+msg)
	os.Exit(2)
}

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
			rtErr("bad input token " + sc.Text())
		}
		inVals = append(inVals, v)
	}
}

// rdF consumes the next input value; when input is exhausted it
// yields zero without advancing, like the interpreter's READ.
func rdF() float64 {
	if inPos < len(inVals) {
		v := inVals[inPos]
		inPos++
		return v
	}
	return 0
}

// arr is one array's storage: column-major data with per-dimension
// lower bounds and extents. Passing an arr by value shares the data
// (Fortran by-reference argument semantics) while letting callers
// substitute their own shape view.
type arr[T any] struct {
	data []T
	lo   []int64
	ext  []int64
}

// mkdim allocates an array from (lo, hi) bound pairs.
func mkdim[T any](bounds ...int64) arr[T] {
	var lo, ext []int64
	n := int64(1)
	for i := 0; i < len(bounds); i += 2 {
		l, h := bounds[i], bounds[i+1]
		if h < l {
			rtErr("array extent empty")
		}
		lo = append(lo, l)
		ext = append(ext, h-l+1)
		n *= h - l + 1
	}
	return arr[T]{data: make([]T, n), lo: lo, ext: ext}
}

func (a arr[T]) sz() int64 {
	n := int64(1)
	for _, e := range a.ext {
		n *= e
	}
	return n
}

// idx computes the column-major linear offset of the subscripts,
// supporting legacy single-subscript linearized access to
// multi-dimensional arrays.
func (a arr[T]) idx(subs ...int64) int64 {
	if len(subs) != len(a.ext) {
		if len(subs) == 1 {
			off := subs[0] - a.lo[0]
			if off < 0 || off >= a.sz() {
				rtErr("subscript " + strconv.FormatInt(subs[0], 10) + " out of bounds")
			}
			return off
		}
		rtErr("wrong number of subscripts")
	}
	var off, stride int64 = 0, 1
	for d := 0; d < len(subs); d++ {
		i := subs[d] - a.lo[d]
		if i < 0 || i >= a.ext[d] {
			rtErr("subscript " + strconv.FormatInt(subs[d], 10) + " (dim " + strconv.Itoa(d+1) + ") out of bounds")
		}
		off += i * stride
		stride *= a.ext[d]
	}
	return off
}

// tail aliases the storage from the given element onward with a
// one-dimensional unit-lower-bound shape (sequence association).
func (a arr[T]) tail(subs ...int64) arr[T] {
	off := a.idx(subs...)
	return arr[T]{data: a.data[off:], lo: []int64{1}, ext: []int64{a.sz() - off}}
}

// blank returns fresh zeroed storage with the same shape (private
// work arrays in DOALL workers).
func (a arr[T]) blank() arr[T] {
	return arr[T]{data: make([]T, len(a.data)), lo: a.lo, ext: a.ext}
}

// Fresh by-value cells for expression actuals.
func refI(v int64) *int64     { return &v }
func refF(v float64) *float64 { return &v }
func refB(v bool) *bool       { return &v }
func refS(v string) *string   { return &v }

func idiv(a, b int64) int64 {
	if b == 0 {
		rtErr("integer division by zero")
	}
	return a / b
}

func imod(a, b int64) int64 {
	if b == 0 {
		rtErr("mod by zero")
	}
	return a % b
}

func ipow(a, b int64) int64 {
	r := int64(1)
	for k := int64(0); k < b; k++ {
		r *= a
	}
	return r
}

func iabs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Plain-comparison min/max: NaN never wins, matching the
// interpreter's loop rather than math.Max's NaN propagation.
func imax(vs ...int64) int64 {
	best := vs[0]
	for _, v := range vs[1:] {
		if v > best {
			best = v
		}
	}
	return best
}

func imin(vs ...int64) int64 {
	best := vs[0]
	for _, v := range vs[1:] {
		if v < best {
			best = v
		}
	}
	return best
}

func fmax(vs ...float64) float64 {
	best := vs[0]
	for _, v := range vs[1:] {
		if v > best {
			best = v
		}
	}
	return best
}

func fmin(vs ...float64) float64 {
	best := vs[0]
	for _, v := range vs[1:] {
		if v < best {
			best = v
		}
	}
	return best
}

func fsign(a, b float64) float64 {
	m := math.Abs(a)
	if b < 0 {
		return -m
	}
	return m
}

func fdim(a, b float64) float64 {
	d := a - b
	if d < 0 {
		return 0
	}
	return d
}

var (
	_ = refI
	_ = refB
	_ = refS
	_ = idiv
	_ = imod
	_ = ipow
	_ = iabs
	_ = imax
	_ = imin
	_ = fmax
	_ = fmin
	_ = fsign
	_ = fdim
	_ = rdF
	_ = math.Pow
)

`
