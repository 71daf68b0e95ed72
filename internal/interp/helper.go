package interp

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"parascope/internal/fortran"
)

// RunCapture executes the file's main program and returns everything
// it printed.
func RunCapture(f *fortran.File, workers int, input []float64) (string, error) {
	out, _, err := RunCaptureSim(f, workers, input)
	return out, err
}

// RunCaptureSim additionally returns the simulated parallel execution
// time in cycles (critical path over the DOALL workers), the
// machine-independent speedup measure.
func RunCaptureSim(f *fortran.File, workers int, input []float64) (string, int64, error) {
	m := New(f)
	var out strings.Builder
	m.Out = &out
	m.Workers = workers
	m.Input = input
	m.StmtLimit = 500_000_000
	if err := m.Run(); err != nil {
		return out.String(), m.SimCycles, err
	}
	return out.String(), m.SimCycles, nil
}

// OutputsEquivalent compares two list-directed outputs token-wise,
// treating numeric tokens as equal within a relative tolerance —
// parallel reduction order legitimately perturbs low-order bits.
func OutputsEquivalent(a, b string, tol float64) (bool, string) {
	ta := strings.Fields(a)
	tb := strings.Fields(b)
	if len(ta) != len(tb) {
		return false, fmt.Sprintf("token counts differ: %d vs %d", len(ta), len(tb))
	}
	for i := range ta {
		fa, errA := strconv.ParseFloat(ta[i], 64)
		fb, errB := strconv.ParseFloat(tb[i], 64)
		if errA == nil && errB == nil {
			diff := math.Abs(fa - fb)
			scale := math.Max(math.Abs(fa), math.Abs(fb))
			if scale < 1 {
				scale = 1
			}
			if diff/scale > tol {
				return false, fmt.Sprintf("token %d: %s vs %s", i, ta[i], tb[i])
			}
			continue
		}
		if ta[i] != tb[i] {
			return false, fmt.Sprintf("token %d: %q vs %q", i, ta[i], tb[i])
		}
	}
	return true, ""
}
