package core

// The one scratch oracle of the module's equivalence tests. A session,
// whatever edits, transformations and undos brought it where it stands,
// cannot be told from Open of the text it saves — up to what no edited
// session shares with a fresh one: a patch, on any rung, numbers a
// graph's edges and counts its tests its own way. So a unit no patch
// has touched is compared with the fresh session's edge for edge,
// identifiers and statistics included; a patched one edge set for edge
// set; estimates bit for bit everywhere. It is exported for the
// harness of the external tests, which runs it after every op.

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"testing"

	"parascope/internal/dep"
	"parascope/internal/fortran"
)

// DumpUnit renders one unit's analysis results: dependences, estimates,
// liveness, privatizability, reductions, the variables the unit assigns
// and its statements. exact keeps the graph's own order, edge
// identifiers and test statistics; otherwise the edges are listed sorted
// and without identifiers.
func DumpUnit(s *Session, u *fortran.Unit, exact bool) string {
	st := s.StateOf(u)
	var edges []string
	for _, d := range st.Deps.Deps {
		e := fmt.Sprintf("%s %s #%d->#%d l%d %v %v %v %s %s %q %q", d.Class, d.Sym.Name,
			d.Src.ID(), d.Dst.ID(), d.Level, d.Dirs, d.Dist, d.Known, d.Mark, d.Test, d.Reason, d.Blockers)
		if exact {
			e = fmt.Sprintf("%d %s", d.ID, e)
		}
		edges = append(edges, e)
	}
	var b strings.Builder
	if exact {
		stats := st.Deps.Stats
		fmt.Fprintf(&b, "pairs %d applied %v disproved %v proven %v\n",
			stats.PairsTested, stats.Applied, stats.Disproved, stats.Proven)
	} else {
		sort.Strings(edges)
	}
	b.WriteString(strings.Join(edges, "\n"))
	est := s.EstimateOf(u)
	fmt.Fprintf(&b, "\ntotal %b\n", est.Total)
	for _, le := range est.Loops {
		fmt.Fprintf(&b, "loop #%d %b %b %b %b %b %b\n", le.Loop.Do.ID(),
			le.Trip, le.BodyCost, le.SeqTime, le.ParTime, le.Speedup, le.Fraction)
	}
	// What the data-flow solution says beyond the dependence tester's
	// inputs: liveness at entry, and per loop what may be made private.
	var exposed []string
	for sym := range st.DF.UpwardExposed() {
		exposed = append(exposed, sym.Name)
	}
	sort.Strings(exposed)
	fmt.Fprintf(&b, "upward exposed %v\n", exposed)
	for _, l := range st.DF.Tree.All {
		fmt.Fprintf(&b, "loop #%d", l.Do.ID())
		for _, sym := range u.SymbolsSorted() {
			if sym.Kind == fortran.SymScalar {
				fmt.Fprintf(&b, " %s:%v", sym.Name, st.DF.Privatizable(l, sym))
			}
		}
		fmt.Fprintf(&b, " reductions %v\n", st.DF.Reductions(l))
	}
	var assigned []string
	for _, sym := range u.SymbolsSorted() {
		if st.DF.Assigned(sym) {
			assigned = append(assigned, sym.Name)
		}
	}
	fmt.Fprintf(&b, "assigned %v\n", assigned)
	fortran.WalkStmts(u.Body, func(x fortran.Stmt) bool {
		fmt.Fprintf(&b, "#%d %s\n", x.ID(), fortran.StmtText(x))
		return true
	})
	return b.String()
}

// ExpectFresh holds s to a fresh Open of its saved text: the source
// image holds, the saved text reopens and prints back to itself, every
// name the fresh session has is of the kind and type it is in s (a
// function no statement calls may be gone), and every unit's analysis
// dumps as the fresh session's does once that has the user's marks,
// assertions and classes s has.
func ExpectFresh(t testing.TB, s *Session, context string) {
	t.Helper()
	if err := s.CheckSourceImage(); err != nil {
		t.Fatalf("%s: %v", context, err)
	}
	fresh, err := Open(s.File.Path, s.Save())
	if err != nil {
		t.Fatalf("%s: saved text does not reopen: %v\n%s", context, err, s.Save())
	}
	if fresh.Save() != s.Save() {
		t.Fatalf("%s: the saved text does not print back to itself\n--- saved ---\n%s--- reopened ---\n%s", context, s.Save(), fresh.Save())
	}
	// The user's marks, assertions and classes are no part of the text:
	// the fresh session takes the live one's, analyzing each unit that
	// has assertions with them, and then the marks edge by edge, keyed
	// by the fresh unit's statements, twin edges of one key told apart
	// by their order.
	for i, u := range s.File.Units {
		st, fst := s.units[u], fresh.units[fresh.File.Units[i]]
		fst.assertions = slices.Clone(st.assertions)
		maps.Copy(fst.classes, st.classes)
		if len(st.assertions) > 0 {
			fresh.ReanalyzeUnit(fst.Unit)
		}
	}
	type twin struct {
		k depKey
		n int
	}
	for i, u := range s.File.Units {
		st, fst := s.units[u], fresh.units[fresh.File.Units[i]]
		if len(st.marks) == 0 {
			continue
		}
		uids, now, marks, seen := map[int]int{}, stmtUIDs(fst.Unit), map[twin]dep.Mark{}, map[depKey]int{}
		for j, id := range stmtUIDs(u) {
			uids[id] = now[j]
		}
		for _, d := range st.Deps.Deps {
			k := keyOf(d)
			k.srcUID, k.dstUID = uids[k.srcUID], uids[k.dstUID]
			if d.Mark == dep.MarkAccepted || d.Mark == dep.MarkRejected {
				marks[twin{k, seen[k]}] = d.Mark
			}
			seen[k]++
		}
		clear(seen)
		for _, d := range fst.Deps.Deps {
			if m, ok := marks[twin{keyOf(d), seen[keyOf(d)]}]; ok {
				d.Mark = m
			}
			seen[keyOf(d)]++
		}
	}
	for i, u := range s.File.Units {
		fu := fresh.File.Units[i]
		for _, sym := range u.SymbolsSorted() {
			switch re := fu.Syms[sym.Name]; {
			case re == nil && sym.Kind != fortran.SymFunc && sym.Kind != fortran.SymIntrinsic:
				t.Fatalf("%s: %s's %s %s is gone after a fresh open\n%s", context, u.Name, sym.Kind, sym.Name, s.Save())
			case re != nil && (re.Kind != sym.Kind || re.Type != sym.Type || re.External != sym.External || len(re.Dims) != len(sym.Dims)):
				t.Fatalf("%s: %s's %s is a %s %s (external %t), after a fresh open a %s %s (external %t)\n%s",
					context, u.Name, sym.Name, sym.Type, sym.Kind, sym.External, re.Type, re.Kind, re.External, s.Save())
			}
		}
		for name := range fu.Syms {
			if u.Syms[name] == nil {
				t.Fatalf("%s: %s's %s appears after a fresh open\n%s", context, u.Name, name, s.Save())
			}
		}
		// A graph no patch has touched since its last full run numbers
		// its edges and counts its tests as the fresh session's does.
		exact := s.StateOf(u).Deps.Patches == 0
		if got, want := DumpUnit(s, u, exact), DumpUnit(fresh, fu, exact); got != want {
			t.Fatalf("%s: unit %s (exact=%v) differs from a fresh open\n--- session ---\n%s--- fresh ---\n%s",
				context, u.Name, exact, got, want)
		}
	}
}
