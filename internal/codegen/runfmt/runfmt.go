// Package runfmt is the single definition of list-directed output
// formatting shared by every execution backend. The interpreter
// imports it directly; the compiled backend stages this file verbatim
// in the runtime module generated programs require (as package
// rt/runfmt), so the two backends cannot drift apart: a PRINT * record is formatted by the
// same code whether the program is interpreted or compiled, and
// differential tests may compare output byte for byte.
//
// The package must stay dependency-free (standard library only) and
// self-contained in this one file — the code generator ships exactly
// this file, nothing else.
package runfmt

import (
	"strconv"
	"strings"
)

// Int formats an INTEGER value.
func Int(v int64) string { return strconv.FormatInt(v, 10) }

// Real formats a REAL or DOUBLE PRECISION value: the shortest decimal
// form that round-trips, exactly what fmt's %g verb produces for a
// float64.
func Real(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// Logical formats a LOGICAL value the way list-directed output does.
func Logical(b bool) string {
	if b {
		return "T"
	}
	return "F"
}

// Line renders one PRINT statement's already-formatted items as a
// complete output record: items joined by single spaces, newline
// terminated.
func Line(parts []string) string { return strings.Join(parts, " ") + "\n" }
