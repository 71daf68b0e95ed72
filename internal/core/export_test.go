package core

import "parascope/internal/fortran"

// ImageSrc is the program the source-image tests edit, for the external
// tests.
const ImageSrc = imageSrc

// MemoizedCost returns the per-call cost of u the session's cost memo
// holds, pricing it first if the memo does not.
func (s *Session) MemoizedCost(u *fortran.Unit) float64 { return s.est.UnitCost(u) }

// Prints counts the unit texts the session has printed.
func (s *Session) Prints() int { return s.prints }

// Unpriced counts the units that have no estimate, each of which
// EstimateOf would price.
func (s *Session) Unpriced() int {
	n := 0
	for _, st := range s.units {
		if st.estimate == nil {
			n++
		}
	}
	return n
}
