package perf_test

import (
	"testing"

	"parascope/internal/fortran"
	"parascope/internal/perf"
	"parascope/internal/workloads"
)

// TestUnitCostsOrderFree: a unit's price is a function of its text and
// its callees' prices, so it does not depend on which unit a fresh
// estimator is asked to price first. Under every rotation of the
// pricing order every unit's price must be the first rotation's, bit
// for bit. TwoCycles can be entered at every member of its cycles, so
// a price that depended on where its cycle was entered would show
// there.
func TestUnitCostsOrderFree(t *testing.T) {
	ws := append(workloads.All(), workloads.CallHeavy(24),
		workloads.TwoCycles())
	for _, w := range ws {
		f, err := fortran.Parse(w.Name+".f", w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		n := len(f.Units)
		var first map[*fortran.Unit]float64
		for r := 0; r < n; r++ {
			e := perf.New(f, perf.DefaultParams())
			prices := map[*fortran.Unit]float64{}
			for i := 0; i < n; i++ {
				u := f.Units[(r+i)%n]
				prices[u] = e.UnitCost(u)
			}
			if first == nil {
				first = prices
				continue
			}
			for _, u := range f.Units {
				if prices[u] != first[u] {
					t.Errorf("%s: priced from %s first, %s costs %v; from %s first, %v",
						w.Name, f.Units[r].Name, u.Name, prices[u], f.Units[0].Name, first[u])
				}
			}
		}
	}
}
