// Package view renders the ParaScope Editor's book-metaphor display
// as text: the source pane with marginal analysis annotations, the
// dependence pane, the variable pane, and user-controlled view
// filtering over source lines — the window layout of Figure 1.
package view

import (
	"fmt"
	"strings"

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
// numbers `loop <n>` takes — with "P" on the parallel ones.
func LoopList(s *core.Session) string {
	var b strings.Builder
	for i, l := range s.Loops() {
		mark := " "
		if l.Do.Parallel {
			mark = "P"
		}
		fmt.Fprintf(&b, "%3d %s depth %d line %d: %s\n",
			i+1, mark, l.Depth, l.Do.Line(), fortran.StmtText(l.Do))
	}
	return trimmed(&b)
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

// trimmed returns the builder's text in an allocation of exactly its
// length. Some texts are kept — the server caches the loop list of every
// unit and the variable pane of every loop of every program it has
// opened — and a string taken straight from a builder keeps the
// builder's spare capacity alive with it, up to as much again.
func trimmed(b *strings.Builder) string {
	return strings.Clone(b.String())
}

// VarPane renders the variable classification pane for the selected
// loop.
func VarPane(s *core.Session) string { return VarPaneOf(s.VariablePane()) }

// VarPaneOf renders the variable classification pane from its rows, for
// a caller that has computed them already.
func VarPaneOf(rows []core.VarInfo) string {
	var b strings.Builder
	b.WriteString("── variables ")
	b.WriteString(strings.Repeat("─", 50))
	b.WriteByte('\n')
	if len(rows) == 0 {
		b.WriteString("  (no loop selected)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  %-10s %-10s %-9s %-7s %s\n", "name", "class", "deps", "liveout", "note")
	for _, r := range rows {
		note := ""
		if r.Sym.Kind == fortran.SymScalar && !r.Privatizable && r.Class == core.ClassShared {
			note = r.PrivReason
		}
		live := ""
		if r.LiveOut {
			live = "yes"
		}
		fmt.Fprintf(&b, "  %-10s %-10s %-9d %-7s %s\n", r.Sym.Name, r.Class, r.DepCount, live, note)
	}
	return trimmed(&b)
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
