// Package view renders the ParaScope Editor's book-metaphor display
// as text: the source pane with marginal analysis annotations, the
// dependence pane, the variable pane, and user-controlled view
// filtering over source lines — the window layout of Figure 1.
package view

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"parascope/internal/core"
	"parascope/internal/dep"
	"parascope/internal/fortran"
)

// SourceFilter is a view-filter predicate over source lines; lines
// whose statement fails the predicate are elided (shown as "...").
type SourceFilter func(s fortran.Stmt) bool

// FilterLoopsOnly shows only loop headers (the loop-structure view).
func FilterLoopsOnly(s fortran.Stmt) bool {
	switch s.(type) {
	case *fortran.DoStmt, *fortran.WhileStmt:
		return true
	}
	return false
}

// FilterContains shows lines whose text contains the substring.
func FilterContains(sub string) SourceFilter {
	return func(s fortran.Stmt) bool {
		return strings.Contains(fortran.StmtText(s), sub)
	}
}

// FilterParallel shows parallel loops.
func FilterParallel(s fortran.Stmt) bool {
	do, ok := s.(*fortran.DoStmt)
	return ok && do.Parallel
}

// SourcePane renders the current unit's statements with marginal
// annotations: statement ids, loop parallel/serial marks, and a "»"
// marker on the selected loop. A non-nil filter elides non-matching
// lines (progressive disclosure).
func SourcePane(s *core.Session, filter SourceFilter) string {
	var b strings.Builder
	u := s.CurrentUnit()
	fmt.Fprintf(&b, "── source: %s %s ", u.Kind, u.Name)
	b.WriteString(strings.Repeat("─", 40))
	b.WriteByte('\n')
	sel := s.SelectedLoop()
	elided := false
	var render func(body []fortran.Stmt, depth int)
	render = func(body []fortran.Stmt, depth int) {
		for _, st := range body {
			show := filter == nil || filter(st)
			if show {
				elided = false
				mark := "   "
				if do, ok := st.(*fortran.DoStmt); ok {
					mark = " s " // serial loop
					if do.Parallel {
						mark = " P "
					}
					if sel != nil && sel.Do == do {
						mark = "»" + strings.TrimLeft(mark, " ")
					}
				}
				fmt.Fprintf(&b, "%4d%s%s%s\n", st.ID(), mark,
					strings.Repeat("  ", depth), fortran.StmtText(st))
			} else if !elided {
				b.WriteString("        ...\n")
				elided = true
			}
			switch x := st.(type) {
			case *fortran.IfStmt:
				render(x.Then, depth+1)
				if len(x.Else) > 0 {
					if show {
						fmt.Fprintf(&b, "    %s%selse\n", "   ", strings.Repeat("  ", depth))
					}
					render(x.Else, depth+1)
				}
			case *fortran.DoStmt:
				render(x.Body, depth+1)
			case *fortran.WhileStmt:
				render(x.Body, depth+1)
			}
		}
	}
	render(u.Body, 0)
	return b.String()
}

// UnitLine renders one row of the `units` listing; "»" marks the
// current unit.
func UnitLine(kind, name string, current bool) string {
	marker := "  "
	if current {
		marker = "» "
	}
	return fmt.Sprintf("%s%s %s\n", marker, kind, name)
}

// LoopList renders the current unit's loops in source order — the
// numbers `loop <n>` takes — with "P" on the parallel ones, a line each
// as "%3d %s depth %d line %d: %s" prints it.
func LoopList(s *core.Session) string {
	loops := s.Loops()
	b := make([]byte, 0, 64*len(loops))
	for i, l := range loops {
		mark := " "
		if l.Do.Parallel {
			mark = "P"
		}
		b = appendPadded(b, strconv.Itoa(i+1), 3)
		b = append(b, ' ')
		b = append(b, mark...)
		b = append(b, " depth "...)
		b = strconv.AppendInt(b, int64(l.Depth), 10)
		b = append(b, " line "...)
		b = strconv.AppendInt(b, int64(l.Do.Line()), 10)
		b = append(b, ": "...)
		b = append(b, fortran.StmtText(l.Do)...)
		b = append(b, '\n')
	}
	return string(b)
}

// DepPane renders the dependence list for the selected loop with
// marking states — the middle pane of the Ped window.
func DepPane(s *core.Session, f core.DepFilter) string {
	return DepPaneOf(f.Filter(s.DepRows()), s.SelectedLoop() != nil)
}

// DepPaneOf renders the dependence pane from its rows, filtered
// already — the one renderer of the pane, for a live session and for
// rows a cache kept. selected says whether a loop is selected at all.
func DepPaneOf(rows []core.DepInfo, selected bool) string {
	var b strings.Builder
	b.WriteString("── dependences ")
	b.WriteString(strings.Repeat("─", 48))
	b.WriteByte('\n')
	if !selected {
		b.WriteString("  (no loop selected)\n")
		return b.String()
	}
	if len(rows) == 0 {
		b.WriteString("  (none — the loop is parallelizable as shown)\n")
		return b.String()
	}
	for _, d := range rows {
		carrier := "indep"
		if d.Level > 0 {
			carrier = fmt.Sprintf("level %d", d.Level)
		}
		fmt.Fprintf(&b, "%4d  %-7s %-10s %-12s %-8s s%d -> s%d  [%s]",
			d.ID, d.Class, d.Sym, d.Dir, carrier, d.SrcStmt, d.DstStmt, d.Mark)
		if d.Reason != "" {
			fmt.Fprintf(&b, " (%s)", d.Reason)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// appendPadded appends s padded with spaces to width runes, as fmt's
// %*s does: on the right for a negative width ("%-10s"), on the left for
// a positive one ("%3d" of a number's digits).
func appendPadded(b []byte, s string, width int) []byte {
	pad := width
	if pad < 0 {
		pad = -pad
	}
	pad -= utf8.RuneCountInString(s)
	if width > 0 {
		for ; pad > 0; pad-- {
			b = append(b, ' ')
		}
	}
	b = append(b, s...)
	for ; pad > 0; pad-- {
		b = append(b, ' ')
	}
	return b
}

// VarPane renders the variable classification pane for the selected
// loop.
func VarPane(s *core.Session) string { return VarPaneOf(s.VariablePane()) }

// varPaneTitle heads the variable pane.
var varPaneTitle = "── variables " + strings.Repeat("─", 50) + "\n"

// VarPaneOf renders the variable classification pane from its rows, for
// a caller that has computed them already: a line each as
// "  %-10s %-10s %-9d %-7s %s" prints name, class, dependences, liveout
// and note.
func VarPaneOf(rows []core.VarInfo) string {
	if len(rows) == 0 {
		return varPaneTitle + "  (no loop selected)\n"
	}
	b := make([]byte, 0, len(varPaneTitle)+48*(len(rows)+1))
	b = append(b, varPaneTitle...)
	b = append(b, "  name       class      deps      liveout note\n"...)
	for _, r := range rows {
		note := ""
		if r.Sym.Kind == fortran.SymScalar && !r.Privatizable && r.Class == core.ClassShared {
			note = r.PrivReason
		}
		live := ""
		if r.LiveOut {
			live = "yes"
		}
		b = append(b, "  "...)
		b = appendPadded(b, r.Sym.Name, -10)
		b = append(b, ' ')
		b = appendPadded(b, r.Class.String(), -10)
		b = append(b, ' ')
		b = appendPadded(b, strconv.Itoa(r.DepCount), -9)
		b = append(b, ' ')
		b = appendPadded(b, live, -7)
		b = append(b, ' ')
		b = append(b, note...)
		b = append(b, '\n')
	}
	return string(b)
}

// Window renders the full three-pane Ped display (Figure 1 of the
// paper): source on top, dependences in the middle, variables below.
func Window(s *core.Session, srcFilter SourceFilter, depFilter core.DepFilter) string {
	deps, vars := s.LoopPanes()
	var b strings.Builder
	b.WriteString("┌─ ParaScope Editor ")
	b.WriteString(strings.Repeat("─", 44))
	b.WriteString("┐\n")
	b.WriteString(SourcePane(s, srcFilter))
	b.WriteString(DepPaneOf(depFilter.Filter(deps), s.SelectedLoop() != nil))
	b.WriteString(VarPaneOf(vars))
	b.WriteString("└")
	b.WriteString(strings.Repeat("─", 63))
	b.WriteString("┘\n")
	return b.String()
}

// Legend explains the pane annotations (shown by the help command).
func Legend() string {
	return strings.Join([]string{
		"source pane:  P parallel loop, s serial loop, » selected loop",
		"dep pane:     class, variable, direction vector, carrier level,",
		"              endpoints (statement ids), marking state",
		"marking:      proven | pending | accepted | rejected",
		"var pane:     classification for the selected loop",
	}, "\n") + "\n"
}

// DepSummary renders per-class counts for a loop — the header line of
// the dependence pane.
func DepSummary(s *core.Session) string { return DepSummaryOf(s.DepRows(), s.SelectedLoop() != nil) }

// DepSummaryOf renders the per-class counts of a loop's unfiltered
// dependence rows; selected says whether a loop is selected at all.
func DepSummaryOf(rows []core.DepInfo, selected bool) string {
	if !selected {
		return "no loop selected"
	}
	counts := map[string]int{}
	for _, d := range rows {
		counts[d.Class]++
	}
	return fmt.Sprintf("true %d, anti %d, output %d, control %d", counts[dep.ClassFlow.String()],
		counts[dep.ClassAnti.String()], counts[dep.ClassOutput.String()], counts[dep.ClassControl.String()])
}
