// Package experiments regenerates every table and figure of the
// paper's evaluation from the reproduced system: the program suite
// (Table 1), the user-session results (Table 2), the
// analysis-capability ablation matrix (Table 3), the Ped window
// (Figure 1), the power-steering transcript (the worked
// transformation example), the dependence-test effectiveness
// breakdown, the measured parallel speedups, and the incremental-
// reanalysis timing that makes the editor interactive.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"parascope/internal/core"
	"parascope/internal/fortran"
	"parascope/internal/interp"
	"parascope/internal/view"
	"parascope/internal/workloads"
	"parascope/internal/xform"
)

// Table1 regenerates the program-suite table: name, description,
// size, procedures, loops.
func Table1() (string, error) {
	var b strings.Builder
	b.WriteString("Table 1: the program suite (synthetic, modeled on the paper's user codes)\n\n")
	fmt.Fprintf(&b, "%-8s  %-45s %6s %6s %6s\n", "name", "description", "lines", "procs", "loops")
	for _, w := range workloads.All() {
		st, err := w.Measure()
		if err != nil {
			return "", fmt.Errorf("%s: %v", w.Name, err)
		}
		fmt.Fprintf(&b, "%-8s  %-45s %6d %6d %6d\n", w.Name, w.Description, st.Lines, st.Procedures, st.Loops)
	}
	b.WriteString("\nmodeled after:\n")
	for _, w := range workloads.All() {
		fmt.Fprintf(&b, "  %-8s %s\n", w.Name, w.ModeledAfter)
	}
	return b.String(), nil
}

// SessionResult is one row of Table 2.
type SessionResult struct {
	Name              string
	Loops             int
	Parallelized      int
	Assertions        int
	DepsRejected      int
	Reclassifications int
	Transformations   map[string]int
}

// RunSessions replays every workload's scripted user session.
func RunSessions() ([]SessionResult, error) {
	var out []SessionResult
	for _, w := range workloads.All() {
		s, err := w.Session()
		if err != nil {
			return nil, fmt.Errorf("%s: %v", w.Name, err)
		}
		n, err := w.Script(s)
		if err != nil {
			return nil, fmt.Errorf("%s: script: %v", w.Name, err)
		}
		st, err := w.Measure()
		if err != nil {
			return nil, err
		}
		out = append(out, SessionResult{
			Name:              w.Name,
			Loops:             st.Loops,
			Parallelized:      n,
			Assertions:        s.Stats.Assertions,
			DepsRejected:      s.Stats.DepsRejected,
			Reclassifications: s.Stats.Reclassifications,
			Transformations:   s.Stats.Transformations,
		})
	}
	return out, nil
}

// Table2 regenerates the user-session results table.
func Table2() (string, error) {
	rows, err := RunSessions()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Table 2: scripted user sessions (loops parallelized and user actions)\n\n")
	fmt.Fprintf(&b, "%-8s %6s %9s %8s %8s  %s\n",
		"name", "loops", "parallel", "asserts", "deleted", "transformations")
	for _, r := range rows {
		var ts []string
		for name, n := range r.Transformations {
			ts = append(ts, fmt.Sprintf("%s:%d", name, n))
		}
		sort.Strings(ts)
		fmt.Fprintf(&b, "%-8s %6d %9d %8d %8d  %s\n",
			r.Name, r.Loops, r.Parallelized, r.Assertions, r.DepsRejected, strings.Join(ts, " "))
	}
	return b.String(), nil
}

// AblationConfig is one column of Table 3.
type AblationConfig struct {
	Name string
	// Apply configures a fresh session for the configuration.
	Apply func(s *core.Session)
	// WithScript also replays the workload's user script (assertions,
	// deletions, transformations) on top of the analyses.
	WithScript bool
}

// AblationConfigs returns the Table 3 columns, cumulative left to
// right: plain dependence analysis; + interprocedural Mod/Ref and
// scalar/array Kill; + regular sections; + the interactive session.
func AblationConfigs() []AblationConfig {
	return []AblationConfig{
		{Name: "dep", Apply: func(s *core.Session) {
			s.Conservative = true
			s.Opts.UseSections = false
			s.AnalyzeAll()
		}},
		{Name: "+killmodref", Apply: func(s *core.Session) {
			s.Opts.UseSections = false
			s.AnalyzeAll()
		}},
		{Name: "+sections", Apply: func(s *core.Session) {
			s.AnalyzeAll()
		}},
		{Name: "+user", Apply: func(s *core.Session) {
			s.AnalyzeAll()
		}, WithScript: true},
	}
}

// AblationCell is one measurement: loops parallelized under a config.
// Outer counts only outermost (depth-1) parallel loops — the
// granularity that actually pays on a multiprocessor.
type AblationCell struct {
	Workload string
	Config   string
	Parallel int
	Outer    int
}

// RunAblation measures every workload under every configuration.
func RunAblation() ([]AblationCell, error) {
	var out []AblationCell
	for _, w := range workloads.All() {
		for _, cfg := range AblationConfigs() {
			s, err := w.Session()
			if err != nil {
				return nil, err
			}
			cfg.Apply(s)
			if cfg.WithScript {
				if _, err := w.Script(s); err != nil {
					// A script may legitimately fail under a degraded
					// configuration; count what it achieved anyway.
					_ = err
				}
			} else {
				s.AutoParallelize()
			}
			total, outer := countParallel(s)
			out = append(out, AblationCell{Workload: w.Name, Config: cfg.Name, Parallel: total, Outer: outer})
		}
	}
	return out, nil
}

// countParallel counts the parallel loops of the session's main unit,
// total and outermost-level.
func countParallel(s *core.Session) (total, outer int) {
	main := s.File.Main()
	if main == nil {
		return 0, 0
	}
	var walk func(body []fortran.Stmt, depth int)
	walk = func(body []fortran.Stmt, depth int) {
		for _, st := range body {
			switch x := st.(type) {
			case *fortran.DoStmt:
				if x.Parallel {
					total++
					if depth == 1 {
						outer++
					}
				}
				walk(x.Body, depth+1)
			case *fortran.IfStmt:
				walk(x.Then, depth)
				walk(x.Else, depth)
			case *fortran.WhileStmt:
				walk(x.Body, depth+1)
			}
		}
	}
	walk(main.Body, 1)
	return total, outer
}

// Table3 regenerates the analysis-capability matrix: how many loops
// each analysis level parallelizes, per program, plus the trait
// annotations from the suite.
func Table3() (string, error) {
	cells, err := RunAblation()
	if err != nil {
		return "", err
	}
	byKey := map[string]int{}
	for _, c := range cells {
		byKey[c.Workload+"/"+c.Config] = c.Parallel
	}
	outerKey := map[string]int{}
	for _, c := range cells {
		outerKey[c.Workload+"/"+c.Config] = c.Outer
	}
	var b strings.Builder
	b.WriteString("Table 3: parallel loops per analysis level (outer/total, cumulative columns)\n\n")
	cfgs := AblationConfigs()
	fmt.Fprintf(&b, "%-8s", "name")
	for _, c := range cfgs {
		fmt.Fprintf(&b, " %12s", c.Name)
	}
	fmt.Fprintf(&b, "  %s\n", "needs (traits)")
	for _, w := range workloads.All() {
		fmt.Fprintf(&b, "%-8s", w.Name)
		for _, c := range cfgs {
			cell := fmt.Sprintf("%d/%d", outerKey[w.Name+"/"+c.Name], byKey[w.Name+"/"+c.Name])
			fmt.Fprintf(&b, " %12s", cell)
		}
		var traits []string
		for _, t := range w.Traits {
			traits = append(traits, string(t))
		}
		fmt.Fprintf(&b, "  %s\n", strings.Join(traits, ", "))
	}
	return b.String(), nil
}

// Figure1 renders the Ped window over the arc3d filter loop — the
// paper's Figure 1 layout.
func Figure1() (string, error) {
	w := workloads.ByName("arc3d")
	s, err := w.Session()
	if err != nil {
		return "", err
	}
	if err := s.SelectLoop(2); err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 1: the Ped window (source, dependence and variable panes)\n\n")
	b.WriteString(view.Window(s, nil, core.DepFilter{CarriedOnly: true}))
	b.WriteString("\n")
	b.WriteString(view.Legend())
	return b.String(), nil
}

// PowerSteering renders the worked transformation transcript: the
// shear nest diagnosed and interchanged, verdict by verdict.
func PowerSteering() (string, error) {
	w := workloads.ByName("shear")
	s, err := w.Session()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Power steering transcript (worked example: shear relaxation nest)\n\n")
	var target *fortran.DoStmt
	for _, l := range s.Loops() {
		if l.Depth != 1 {
			continue
		}
		v := s.Check(xform.Parallelize{Do: l.Do})
		fmt.Fprintf(&b, "parallelize do %s (line %d)?\n  %s\n", l.Do.Var.Name, l.Do.Line(), v)
		if !v.Safe && len(l.Children) == 1 {
			target = l.Do
		}
	}
	if target == nil {
		return "", fmt.Errorf("power steering: no blocked nest found")
	}
	iv := s.Check(xform.Interchange{Outer: target})
	fmt.Fprintf(&b, "interchange do %s nest?\n  %s\n", target.Var.Name, iv)
	if _, err := s.Transform(xform.Interchange{Outer: target}); err != nil {
		return "", err
	}
	pv := s.Check(xform.Parallelize{Do: target})
	fmt.Fprintf(&b, "parallelize do %s (after interchange)?\n  %s\n", target.Var.Name, pv)
	if _, err := s.Transform(xform.Parallelize{Do: target}); err != nil {
		return "", err
	}
	b.WriteString("\nresulting loop nest:\n")
	b.WriteString(view.SourcePane(s, view.FilterLoopsOnly))
	return b.String(), nil
}

// depKernels is a corpus of subscript patterns exercising every tier
// of the hierarchical dependence test suite, complementing the
// workloads for the effectiveness experiment.
const depKernels = `
      program depk
      integer i, j, n
      parameter (n = 100)
      real a(400), m(100,100)
      do i = 1, n
         a(5) = a(i) + 1.0
      enddo
      do i = 1, n
         a(2*i) = a(3*i + 1)*0.5
      enddo
      do i = 1, n
         do j = 1, n
            a(2*i + 2*j) = a(2*i + 2*j + 101)
         enddo
      enddo
      do i = 1, 50
         do j = 1, 50
            a(i + j) = a(i + j + 200)
         enddo
      enddo
      do i = 2, n
         do j = 2, n
            m(i,j) = m(i-1,j-1)*0.5
         enddo
      enddo
      do i = 2, n
         m(i,i) = m(i-1,i-2) + 1.0
      enddo
      print *, a(5), m(50,50)
      end
`

// DepTestStats aggregates the hierarchical suite's effectiveness over
// the workload suite plus a kernel corpus covering every test tier —
// the "inexpensive tests first" claim.
func DepTestStats() (string, error) {
	total := struct {
		pairs     int
		applied   map[string]int
		disproved map[string]int
		proven    map[string]int
	}{applied: map[string]int{}, disproved: map[string]int{}, proven: map[string]int{}}
	collect := func(s *core.Session) {
		for _, u := range s.File.Units {
			st := s.StateOf(u)
			total.pairs += st.Deps.Stats.PairsTested
			for k, v := range st.Deps.Stats.Applied {
				total.applied[k] += v
			}
			for k, v := range st.Deps.Stats.Disproved {
				total.disproved[k] += v
			}
			for k, v := range st.Deps.Stats.Proven {
				total.proven[k] += v
			}
		}
	}
	for _, w := range workloads.All() {
		s, err := w.Session()
		if err != nil {
			return "", err
		}
		collect(s)
	}
	ks, err := core.Open("depk.f", depKernels)
	if err != nil {
		return "", err
	}
	collect(ks)
	var names []string
	for k := range total.applied {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		if total.applied[names[i]] != total.applied[names[j]] {
			return total.applied[names[i]] > total.applied[names[j]]
		}
		return names[i] < names[j]
	})
	var b strings.Builder
	b.WriteString("Dependence-test effectiveness over the suite\n\n")
	fmt.Fprintf(&b, "reference pairs tested: %d\n\n", total.pairs)
	fmt.Fprintf(&b, "%-18s %9s %10s %8s\n", "test", "applied", "disproved", "proven")
	for _, n := range names {
		fmt.Fprintf(&b, "%-18s %9d %10d %8d\n", n, total.applied[n], total.disproved[n], total.proven[n])
	}
	return b.String(), nil
}

// SpeedupRow is one workload's measured execution: wall-clock times
// plus the machine-independent simulated cycle counts (critical path
// over DOALL workers — the 8-processor substitute that works even on
// a single-core host).
type SpeedupRow struct {
	Name       string
	Workers    []int
	Times      []time.Duration
	Speedup    []float64
	SimCycles  []int64
	SimSpeedup []float64
}

// MeasureSpeedups scripts each workload, then times the parallelized
// program at each worker count (the goroutine executor standing in
// for the paper's 8-processor shared-memory machines).
func MeasureSpeedups(workerCounts []int, repeats int) ([]SpeedupRow, error) {
	var out []SpeedupRow
	for _, w := range workloads.All() {
		s, err := w.Session()
		if err != nil {
			return nil, err
		}
		if _, err := w.Script(s); err != nil {
			return nil, fmt.Errorf("%s: %v", w.Name, err)
		}
		row := SpeedupRow{Name: w.Name, Workers: workerCounts}
		for _, nw := range workerCounts {
			best := time.Duration(0)
			var cycles int64
			for r := 0; r < repeats; r++ {
				start := time.Now()
				_, c, err := interp.RunCaptureSim(s.File, nw, w.Input)
				if err != nil {
					return nil, fmt.Errorf("%s @%d workers: %v", w.Name, nw, err)
				}
				el := time.Since(start)
				if best == 0 || el < best {
					best = el
				}
				cycles = c
			}
			row.Times = append(row.Times, best)
			row.SimCycles = append(row.SimCycles, cycles)
		}
		base := row.Times[0].Seconds()
		simBase := float64(row.SimCycles[0])
		for i, t := range row.Times {
			row.Speedup = append(row.Speedup, base/t.Seconds())
			row.SimSpeedup = append(row.SimSpeedup, simBase/float64(row.SimCycles[i]))
		}
		out = append(out, row)
	}
	return out, nil
}

// SpeedupTable renders the measured speedups: simulated (machine-
// independent) speedup per worker count, plus single-worker wall time
// for scale.
func SpeedupTable(workerCounts []int, repeats int) (string, error) {
	rows, err := MeasureSpeedups(workerCounts, repeats)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Parallel execution: simulated speedup (critical-path cycles)\n")
	b.WriteString("and wall-clock time at 1 worker\n\n")
	fmt.Fprintf(&b, "%-8s %12s %12s", "name", "cycles(1w)", "t(1w)")
	for _, nw := range workerCounts[1:] {
		fmt.Fprintf(&b, " %8s", fmt.Sprintf("S(%d)", nw))
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %12d %12s", r.Name, r.SimCycles[0], r.Times[0].Round(10*time.Microsecond))
		for i := range r.Workers[1:] {
			fmt.Fprintf(&b, " %8.2f", r.SimSpeedup[i+1])
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// BigProgram synthesizes a spec77-scale multi-unit program (for the
// incremental-reanalysis experiment): k compute subroutines plus a
// main calling them all.
func BigProgram(k int) string {
	var b strings.Builder
	b.WriteString("      program big\n      integer i\n      real a(1000)\n")
	b.WriteString("      do i = 1, 1000\n         a(i) = real(i)\n      enddo\n")
	for u := 0; u < k; u++ {
		fmt.Fprintf(&b, "      call unit%d(a, 1000)\n", u)
	}
	b.WriteString("      print *, a(1)\n      end\n")
	for u := 0; u < k; u++ {
		fmt.Fprintf(&b, "      subroutine unit%d(x, n)\n", u)
		b.WriteString("      integer n, i, j\n      real x(n), t, s\n")
		b.WriteString("      s = 0.0\n")
		b.WriteString("      do i = 2, n\n")
		b.WriteString("         t = x(i)*0.5 + x(i-1)*0.25\n")
		b.WriteString("         x(i) = t + 0.001\n")
		b.WriteString("         s = s + t\n")
		b.WriteString("      enddo\n")
		b.WriteString("      do j = 1, n\n")
		b.WriteString("         x(j) = x(j) + s*0.0001\n")
		b.WriteString("      enddo\n")
		b.WriteString("      end\n")
	}
	return b.String()
}

// IncrementalResult reports the editor-responsiveness measurement.
type IncrementalResult struct {
	Units       int
	FullTime    time.Duration
	UnitTime    time.Duration
	EditTime    time.Duration
	SpeedupFull float64
	// FullPairs, UnitPairs and EditPairs count the reference pairs each
	// of the three paths put to the dependence tests — the work behind
	// the times, and unlike them the same on a loaded host.
	FullPairs, UnitPairs, EditPairs int
}

// MeasureIncremental compares whole-program reanalysis against the
// incremental unit-level path the editor uses after a local edit.
func MeasureIncremental(units int) (IncrementalResult, error) {
	src := BigProgram(units)
	s, err := core.Open("big.f", src)
	if err != nil {
		return IncrementalResult{}, err
	}
	res := IncrementalResult{Units: units}
	start := time.Now()
	s.AnalyzeAll()
	res.FullTime = time.Since(start)
	for _, u := range s.File.Units {
		res.FullPairs += s.StateOf(u).Deps.Stats.PairsTested
	}

	u := s.File.Unit("unit0")
	start = time.Now()
	s.ReanalyzeUnit(u)
	res.UnitTime = time.Since(start)
	res.UnitPairs = s.StateOf(u).Deps.Stats.PairsTested

	if err := s.SelectUnit("unit0"); err != nil {
		return IncrementalResult{}, err
	}
	target := s.Loops()[0].Do.Body[0]
	start = time.Now()
	if err := s.EditStmt(target.ID(), "t = x(i)*0.5 + x(i-1)*0.3"); err != nil {
		return IncrementalResult{}, err
	}
	res.EditTime = time.Since(start)
	// A patched graph's counts accumulate over the unit's last whole
	// run; one analyzed whole again starts over.
	res.EditPairs = s.StateOf(u).Deps.Stats.PairsTested
	if s.StateOf(u).Deps.Patches > 0 {
		res.EditPairs -= res.UnitPairs
	}
	if res.UnitTime > 0 {
		res.SpeedupFull = res.FullTime.Seconds() / res.UnitTime.Seconds()
	}
	return res, nil
}

// IncrementalTable renders the editor-responsiveness experiment.
func IncrementalTable(sizes []int) (string, error) {
	var b strings.Builder
	b.WriteString("Incremental reanalysis vs whole-program reanalysis\n\n")
	fmt.Fprintf(&b, "%6s %12s %12s %12s %8s\n", "units", "full", "one-unit", "edit", "ratio")
	for _, n := range sizes {
		r, err := MeasureIncremental(n)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%6d %12s %12s %12s %8.1f\n", r.Units,
			r.FullTime.Round(10*time.Microsecond),
			r.UnitTime.Round(10*time.Microsecond),
			r.EditTime.Round(10*time.Microsecond),
			r.SpeedupFull)
	}
	return b.String(), nil
}
