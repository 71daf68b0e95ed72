package experiments

import (
	"strings"
	"testing"

	"parascope/internal/core"
)

func coreOpen(src string) (*core.Session, error) { return core.Open("big.f", src) }

func TestTable1(t *testing.T) {
	out, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"spec77", "pneoss", "nxsns", "arc3d", "slab2d", "onedim", "shear", "direct", "interior"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table 1 missing %s", name)
		}
	}
}

func TestTable2SessionsAllParallelizeSomething(t *testing.T) {
	rows, err := RunSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Parallelized == 0 {
			t.Errorf("%s: session parallelized nothing", r.Name)
		}
	}
	// arc3d needed an assertion; onedim needed dependence deletion;
	// shear and slab2d needed restructuring transformations.
	byName := map[string]SessionResult{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if byName["arc3d"].Assertions == 0 {
		t.Error("arc3d session should record an assertion")
	}
	if byName["onedim"].DepsRejected == 0 {
		t.Error("onedim session should record dependence deletions")
	}
	if byName["shear"].Transformations["interchange"] == 0 {
		t.Error("shear session should record an interchange")
	}
	if byName["slab2d"].Transformations["distribute"] == 0 {
		t.Error("slab2d session should record a distribution")
	}
}

func TestTable3AblationMonotone(t *testing.T) {
	cells, err := RunAblation()
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]int{}
	outer := map[string]int{}
	for _, c := range cells {
		byKey[c.Workload+"/"+c.Config] = c.Parallel
		outer[c.Workload+"/"+c.Config] = c.Outer
	}
	order := []string{"dep", "+killmodref", "+sections", "+user"}
	for _, w := range []string{"spec77", "pneoss", "nxsns", "arc3d", "slab2d", "onedim", "shear", "direct", "interior"} {
		prev := -1
		for _, cfg := range order {
			v, ok := byKey[w+"/"+cfg]
			if !ok {
				t.Fatalf("missing cell %s/%s", w, cfg)
			}
			if v < prev {
				t.Errorf("%s: adding analysis lost parallelism: %s=%d after %d", w, cfg, v, prev)
			}
			prev = v
		}
	}
	// Key claims of the paper's matrix:
	if byKey["spec77/+killmodref"] >= byKey["spec77/+sections"] {
		t.Error("spec77: sections must unlock the call loops")
	}
	if byKey["nxsns/dep"] >= byKey["nxsns/+killmodref"] {
		t.Error("nxsns: interprocedural kill must unlock the flux loop")
	}
	if byKey["arc3d/+sections"] >= byKey["arc3d/+user"] {
		t.Error("arc3d: the user assertion must unlock the filter loop")
	}
	if byKey["onedim/+sections"] >= byKey["onedim/+user"] {
		t.Error("onedim: dependence deletion must unlock the scatter loop")
	}
	if outer["shear/+sections"] >= outer["shear/+user"] {
		t.Error("shear: interchange must move parallelism to the outer level")
	}
}

func TestFigure1(t *testing.T) {
	out, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ParaScope Editor", "dependences", "variables", "symbolic"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 1 missing %q", want)
		}
	}
}

func TestPowerSteering(t *testing.T) {
	out, err := PowerSteering()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"applicable", "safe", "interchange", "parallelize"} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript missing %q:\n%s", want, out)
		}
	}
}

func TestDepTestStats(t *testing.T) {
	out, err := DepTestStats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "strong-siv") {
		t.Errorf("stats missing strong-siv:\n%s", out)
	}
}

func TestSpeedupsRun(t *testing.T) {
	rows, err := MeasureSpeedups([]int{1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("got %d rows", len(rows))
	}
}

func TestIncremental(t *testing.T) {
	r, err := MeasureIncremental(10)
	if err != nil {
		t.Fatal(err)
	}
	// Counted, not timed: a wall-clock ratio misses under a loaded run.
	if r.UnitPairs == 0 || r.UnitPairs >= r.FullPairs || r.EditPairs > r.UnitPairs {
		t.Errorf("pairs tested: whole program %d, one unit %d, one edit %d; want each path strictly under the one before (the edit at most the unit's)",
			r.FullPairs, r.UnitPairs, r.EditPairs)
	}
	t.Logf("whole program %d pairs in %s, one unit %d in %s, one edit %d in %s: one unit %.1fx faster than the whole program",
		r.FullPairs, r.FullTime, r.UnitPairs, r.UnitTime, r.EditPairs, r.EditTime, r.SpeedupFull)
}

func TestBigProgramParses(t *testing.T) {
	src := BigProgram(5)
	s, err := coreOpen(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.File.Units) != 6 {
		t.Errorf("units = %d, want 6", len(s.File.Units))
	}
}

// TestReportDeterminism guards against map-iteration nondeterminism
// in the generated tables: two runs must render identically.
func TestReportDeterminism(t *testing.T) {
	for name, fn := range map[string]func() (string, error){
		"t1": Table1,
		"t2": Table2,
		"t3": Table3,
		"f1": Figure1,
		"f2": PowerSteering,
		"e5": DepTestStats,
	} {
		a, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a != b {
			t.Errorf("%s: output differs between runs", name)
		}
	}
}
