package parrt

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
)

var (
	steps     = []int64{1, -1, 3}
	requested = []int{-1, 0, 1, 2, 3, 8, 64}
	ops       = []Op{Sum, Product, Max, Min}
)

// loopOfTrip builds `do v = 5, hi, step` with exactly trip iterations.
func loopOfTrip(t *testing.T, trip, step int64) Loop {
	t.Helper()
	lo := int64(5)
	l, err := New(lo, lo+(trip-1)*step, step)
	if err != nil {
		t.Fatal(err)
	}
	if l.Trip != trip {
		t.Fatalf("trip %d step %d: New counted %d iterations", trip, step, l.Trip)
	}
	return l
}

func TestProtocolZeroStep(t *testing.T) {
	if _, err := New(1, 10, 0); !errors.Is(err, ErrZeroStep) {
		t.Fatalf("zero step: got %v", err)
	}
}

// TestProtocolIndexFinal counts a plain loop beside New:
// same iterations, same values, same value left in the variable.
func TestProtocolIndexFinal(t *testing.T) {
	for _, step := range steps {
		for lo := int64(-3); lo <= 3; lo++ {
			for hi := int64(-12); hi <= 12; hi++ {
				l, err := New(lo, hi, step)
				if err != nil {
					t.Fatal(err)
				}
				n, v := int64(0), lo
				for ; (step > 0 && v <= hi) || (step < 0 && v >= hi); v += step {
					if n >= l.Trip {
						t.Fatalf("do %d,%d,%d: trip %d is short", lo, hi, step, l.Trip)
					}
					if got := l.Index(n); got != v {
						t.Fatalf("do %d,%d,%d: Index(%d) = %d, want %d", lo, hi, step, n, got, v)
					}
					n++
				}
				if n != l.Trip || l.Final() != v {
					t.Fatalf("do %d,%d,%d: trip %d final %d, want %d and %d", lo, hi, step, l.Trip, l.Final(), n, v)
				}
			}
		}
	}
}

// TestProtocolForkRunPartition checks rules 2-4: no fork at trip <= 1, the
// worker count defaults to GOMAXPROCS and never exceeds the trip
// count, and the workers' shares partition [0, trip).
func TestProtocolForkRunPartition(t *testing.T) {
	for _, step := range steps {
		for trip := int64(0); trip <= 40; trip++ {
			l := loopOfTrip(t, trip, step)
			for _, req := range requested {
				nw := l.Fork(req)
				if trip <= 1 {
					if nw != 0 {
						t.Fatalf("trip %d: forked %d workers", trip, nw)
					}
					continue
				}
				want := int64(req)
				if req <= 0 {
					want = int64(runtime.GOMAXPROCS(0))
				}
				want = min(want, trip)
				if nw != want {
					t.Fatalf("trip %d requested %d: %d workers, want %d", trip, req, nw, want)
				}
				var mu sync.Mutex
				ran := make([]int, trip)
				seenW := make([]int, nw)
				l.Run(nw, func(w, first, stride int64) {
					mu.Lock()
					defer mu.Unlock()
					seenW[w]++
					for n := first; n < l.Trip; n += stride {
						ran[n]++
					}
				})
				for w, c := range seenW {
					if c != 1 {
						t.Fatalf("trip %d workers %d: worker %d ran %d times", trip, nw, w, c)
					}
				}
				for n, c := range ran {
					if c != 1 {
						t.Fatalf("trip %d workers %d: iteration %d ran %d times", trip, nw, n, c)
					}
				}
			}
		}
	}
}

func checkIdentityNeutral[T Number](t *testing.T, samples []T) {
	t.Helper()
	for _, op := range ops {
		id := Identity[T](op)
		for _, v := range samples {
			if got := Combine(op, id, v); got != v {
				t.Errorf("%T %s: Combine(identity, %v) = %v", v, op, v, got)
			}
			if got := Combine(op, v, id); got != v {
				t.Errorf("%T %s: Combine(%v, identity) = %v", v, op, v, got)
			}
		}
	}
}

func TestProtocolIdentityNeutral(t *testing.T) {
	checkIdentityNeutral(t, []int64{0, 1, -1, 7, -40, math.MaxInt64, math.MinInt64})
	checkIdentityNeutral(t, []float64{0, 1, -1, 0.1, -2.5e300, math.MaxFloat64, math.Inf(1), math.Inf(-1)})
}

// fold is the reference Reduce is held to, written out per operator.
func fold[T Number](op Op, shared T, parts []T) T {
	acc := shared
	for w := 0; w < len(parts); w++ {
		switch op {
		case Sum:
			acc = acc + parts[w]
		case Product:
			acc = acc * parts[w]
		case Max:
			if parts[w] > acc {
				acc = parts[w]
			}
		case Min:
			if parts[w] < acc {
				acc = parts[w]
			}
		}
	}
	return acc
}

func checkReduce[T Number](t *testing.T, shared T, parts []T) {
	t.Helper()
	for _, op := range ops {
		for nw := 0; nw <= len(parts); nw++ {
			got, want := Reduce(op, shared, parts[:nw]), fold(op, shared, parts[:nw])
			if got != want {
				t.Errorf("%T %s over %d workers: %v, want %v", shared, op, nw, got, want)
			}
		}
	}
}

func TestProtocolReduceOrder(t *testing.T) {
	checkReduce(t, int64(3), []int64{4, -9, 0, 12, 7, -2, 5, 1})
	checkReduce(t, 0.25, []float64{0.1, 0.2, 0.3, -7.5, 1e-9, 3, 0.7, 2})

	// A sum whose bits depend on the order: seeded left to right the
	// small terms are absorbed one by one, any other order keeps them.
	shared, parts := 1e16, []float64{1, 1, -1e16}
	got := Reduce(Sum, shared, parts)
	if want := ((shared + parts[0]) + parts[1]) + parts[2]; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Reduce = %v, left fold = %v", got, want)
	}
	if other := shared + (parts[2] + (parts[1] + parts[0])); math.Float64bits(got) == math.Float64bits(other) {
		t.Fatalf("the case does not distinguish orders: both give %v", got)
	}
	// A NaN partial never wins a max or min.
	if got := Reduce(Max, 1.0, []float64{math.NaN(), 2}); got != 2 {
		t.Fatalf("max with a NaN partial = %v", got)
	}
}
