// Package parrt is the single definition of the DO-loop execution
// protocol shared by every execution backend. The interpreter imports
// it directly; the compiled backend stages this file verbatim in the
// runtime module generated programs require (as package rt/parrt), so
// a loop the editor marked `c$par doall` obeys the same rules whether
// the program is interpreted or compiled, and differential tests may
// compare output byte for byte at equal worker counts.
//
// It owns eight decisions and nothing else: the trip count and the
// zero-step error (New), when a marked loop forks and on how many
// workers (Fork), which iterations a worker runs (Run), the loop
// variable's value in iteration n and after the loop (Index, Final),
// and each reduction's identity, operator and combine order (Identity,
// Combine, Reduce). Storage, error reporting and cancellation are the
// backends' own.
//
// The package must stay dependency-free (standard library only) and
// self-contained in this one file — the code generator ships exactly
// this file, nothing else.
package parrt

import (
	"errors"
	"math"
	"runtime"
	"sync"
)

// ErrZeroStep is New's error for a DO loop whose step evaluates to 0.
var ErrZeroStep = errors.New("zero DO step")

// Loop is the resolved control of one execution of a DO loop.
type Loop struct {
	Lo, Step int64
	// Trip is the number of iterations, numbered 0..Trip-1.
	Trip int64
}

// New resolves the control of `do v = lo, hi, step`.
func New(lo, hi, step int64) (Loop, error) {
	if step == 0 {
		return Loop{}, ErrZeroStep
	}
	trip := (hi - lo + step) / step
	if trip < 0 {
		trip = 0
	}
	return Loop{Lo: lo, Step: step, Trip: trip}, nil
}

// Index is the loop variable's value in iteration n.
func (l Loop) Index(n int64) int64 { return l.Lo + n*l.Step }

// Final is the loop variable's value once every iteration has run.
func (l Loop) Final() int64 { return l.Index(l.Trip) }

// Fork decides how one execution of a loop marked `c$par doall` runs:
// it returns the number of workers to hand to Run, or 0 when the loop
// has too few iterations to fork and runs sequentially. requested is
// the user's worker count; <= 0 means GOMAXPROCS.
func (l Loop) Fork(requested int) int64 {
	if l.Trip <= 1 {
		return 0
	}
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	return min(int64(requested), l.Trip)
}

// Run executes the loop on workers goroutines (a count Fork returned)
// and returns when all have finished. Worker w runs the iterations
// first, first+stride, first+2*stride, ... below l.Trip; the shares
// partition 0..Trip-1.
func (l Loop) Run(workers int64, worker func(w, first, stride int64)) {
	var wg sync.WaitGroup
	for w := int64(0); w < workers; w++ {
		wg.Add(1)
		go func(w int64) {
			defer wg.Done()
			worker(w, w, workers)
		}(w)
	}
	wg.Wait()
}

// Op names a reduction operator by its spelling in a
// `c$par reduction(op:var)` annotation.
type Op string

const (
	Sum     Op = "+"
	Product Op = "*"
	Max     Op = "max"
	Min     Op = "min"
)

// Number is the storage type of a reduction variable: INTEGER, or REAL
// and DOUBLE PRECISION alike.
type Number interface{ int64 | float64 }

// Identity is the value a worker's private copy of a reduction
// variable starts from.
func Identity[T Number](op Op) T {
	var v T
	switch p := any(&v).(type) {
	case *int64:
		switch op {
		case Max:
			*p = math.MinInt64
		case Min:
			*p = math.MaxInt64
		}
	case *float64:
		switch op {
		case Max:
			*p = math.Inf(-1)
		case Min:
			*p = math.Inf(1)
		}
	}
	if op == Product {
		v = 1
	}
	return v
}

// Combine folds one worker's partial result v into acc. Max and Min
// are plain comparisons: a NaN never replaces acc.
func Combine[T Number](op Op, acc, v T) T {
	switch op {
	case Max:
		if v > acc {
			return v
		}
		return acc
	case Min:
		if v < acc {
			return v
		}
		return acc
	case Product:
		return acc * v
	}
	return acc + v
}

// Reduce combines the workers' partial results into the shared
// variable: a left fold in worker order seeded with the variable's
// value before the loop. The order is fixed so that floating-point
// results repeat bit for bit at equal worker counts.
func Reduce[T Number](op Op, shared T, perWorker []T) T {
	for _, v := range perWorker {
		shared = Combine(op, shared, v)
	}
	return shared
}
