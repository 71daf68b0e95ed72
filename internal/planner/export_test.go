package planner

// Decisions is decisions, for the external tests that compare it with
// the editor's other views of a loop's DOALL verdict.
var Decisions = decisions
