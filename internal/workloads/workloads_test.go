package workloads

import (
	"slices"
	"testing"

	"parascope/internal/fortran"
	"parascope/internal/interp"
)

func TestSuiteParses(t *testing.T) {
	for _, w := range All() {
		if _, err := w.Parse(); err != nil {
			t.Errorf("%s: parse: %v", w.Name, err)
		}
	}
}

func TestSuiteMeasure(t *testing.T) {
	names := map[string]bool{}
	for _, w := range All() {
		st, err := w.Measure()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if st.Lines < 15 {
			t.Errorf("%s: only %d lines", w.Name, st.Lines)
		}
		if st.Loops < 2 {
			t.Errorf("%s: only %d loops", w.Name, st.Loops)
		}
		if names[w.Name] {
			t.Errorf("duplicate workload %s", w.Name)
		}
		names[w.Name] = true
	}
	if len(names) != 9 {
		t.Errorf("suite has %d programs, want 9", len(names))
	}
}

func TestSuiteRunsSequentially(t *testing.T) {
	for _, w := range All() {
		f := w.MustParse()
		out, err := interp.RunCapture(f, 1, w.Input)
		if err != nil {
			t.Errorf("%s: run: %v", w.Name, err)
			continue
		}
		if len(out) == 0 {
			t.Errorf("%s: no output", w.Name)
		}
	}
}

// TestScriptsParallelizeAndPreserveSemantics replays each workload's
// documented user session, then checks the parallelized program
// produces the sequential program's output on 4 workers.
func TestScriptsParallelizeAndPreserveSemantics(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			seq := w.MustParse()
			seqOut, err := interp.RunCapture(seq, 1, w.Input)
			if err != nil {
				t.Fatalf("sequential run: %v", err)
			}
			s, err := w.Session()
			if err != nil {
				t.Fatal(err)
			}
			n, err := w.Script(s)
			if err != nil {
				t.Fatalf("script: %v", err)
			}
			if n == 0 {
				t.Fatal("script parallelized nothing")
			}
			parOut, err := interp.RunCapture(s.File, 4, w.Input)
			if err != nil {
				t.Fatalf("parallel run: %v", err)
			}
			if ok, why := interp.OutputsEquivalent(seqOut, parOut, 1e-4); !ok {
				t.Errorf("outputs differ (%s):\nseq: %s\npar: %s", why, seqOut, parOut)
			}
		})
	}
}

func TestByName(t *testing.T) {
	if ByName("spec77") == nil || ByName("nope") != nil {
		t.Error("ByName lookup broken")
	}
}

func TestTraitCoverage(t *testing.T) {
	// Every Table 3 row must be exercised by at least one program.
	rows := []Trait{TraitDependence, TraitSections, TraitScalarKill, TraitArrayKill,
		TraitSymbolics, TraitIndexArray, TraitReductions, TraitTransforms}
	for _, tr := range rows {
		found := false
		for _, w := range All() {
			if slices.Contains(w.Traits, tr) {
				found = true
			}
		}
		if !found {
			t.Errorf("no workload exercises trait %s", tr)
		}
	}
}

// TestSuitePrinterRoundTrip: every workload must survive
// parse -> print -> parse -> print with identical output, and the
// reprinted program must behave identically under execution.
func TestSuitePrinterRoundTrip(t *testing.T) {
	for _, w := range All() {
		f1 := w.MustParse()
		p1 := fortran.Print(f1)
		f2, err := fortran.Parse(w.Name+"-rt.f", p1)
		if err != nil {
			t.Errorf("%s: reprint does not parse: %v", w.Name, err)
			continue
		}
		if p2 := fortran.Print(f2); p1 != p2 {
			t.Errorf("%s: print not idempotent", w.Name)
		}
		want, err := interp.RunCapture(f1, 1, w.Input)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		got, err := interp.RunCapture(f2, 1, w.Input)
		if err != nil {
			t.Fatalf("%s (reprinted): %v", w.Name, err)
		}
		if ok, why := interp.OutputsEquivalent(want, got, 1e-12); !ok {
			t.Errorf("%s: reprinted program behaves differently: %s", w.Name, why)
		}
	}
}

// TestSuiteSimulatedSpeedupShape asserts the e6 shape: spec77 and
// shear scale well at 8 workers; arc3d stays Amdahl-limited.
func TestSuiteSimulatedSpeedupShape(t *testing.T) {
	sim := func(name string) float64 {
		w := ByName(name)
		s, err := w.Session()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Script(s); err != nil {
			t.Fatal(err)
		}
		_, c1, err := interp.RunCaptureSim(s.File, 1, w.Input)
		if err != nil {
			t.Fatal(err)
		}
		_, c8, err := interp.RunCaptureSim(s.File, 8, w.Input)
		if err != nil {
			t.Fatal(err)
		}
		return float64(c1) / float64(c8)
	}
	if v := sim("spec77"); v < 5 {
		t.Errorf("spec77 S(8) = %.2f, want > 5", v)
	}
	if v := sim("shear"); v < 5 {
		t.Errorf("shear S(8) = %.2f, want > 5", v)
	}
	if v := sim("arc3d"); v > 2 {
		t.Errorf("arc3d S(8) = %.2f, want Amdahl-limited (< 2)", v)
	}
}
