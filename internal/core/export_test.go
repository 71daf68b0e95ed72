package core

import "parascope/internal/fortran"

// ImageSrc is the program the source-image tests edit, for the external
// tests.
const ImageSrc = imageSrc

// MemoizedCost returns the per-call cost of u the session's cost memo
// holds, pricing it first if the memo does not.
func (s *Session) MemoizedCost(u *fortran.Unit) float64 { return s.est.UnitCost(u) }
