package repl

import (
	"strings"
	"testing"

	"parascope/internal/workloads"
)

// drive runs a command script against a workload session and returns
// the combined output.
func drive(t *testing.T, workload string, commands ...string) string {
	t.Helper()
	w := workloads.ByName(workload)
	if w == nil {
		t.Fatalf("no workload %s", workload)
	}
	s, err := w.Session()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	r := New(s, &out)
	if err := r.Run(strings.NewReader(strings.Join(commands, "\n"))); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestLoopsAndSelect(t *testing.T) {
	out := drive(t, "pneoss", "loops", "loop 2", "deps carried", "vars")
	if !strings.Contains(out, "do i") {
		t.Errorf("loops output:\n%s", out)
	}
	if !strings.Contains(out, "private") && !strings.Contains(out, "induction") {
		t.Errorf("vars output missing classes:\n%s", out)
	}
}

func TestCheckAndApply(t *testing.T) {
	out := drive(t, "pneoss",
		"loop 2",
		"check parallelize 2",
		"apply parallelize 2",
		"loops",
	)
	if !strings.Contains(out, "applicable: yes") {
		t.Errorf("check output:\n%s", out)
	}
	if !strings.Contains(out, "applied parallelize") {
		t.Errorf("apply output:\n%s", out)
	}
	if !strings.Contains(out, "P depth") && !strings.Contains(out, "  2 P") {
		t.Errorf("loop list should show a parallel loop:\n%s", out)
	}
}

func TestAssertWorkflow(t *testing.T) {
	out := drive(t, "arc3d",
		"loop 2",
		"check parallelize 2",
		"assert jp .ge. 500",
		"check parallelize 2",
	)
	// First check blocked, second safe.
	first := strings.Index(out, "safe: no")
	second := strings.Index(out, "safe: yes")
	if first < 0 || second < 0 || second < first {
		t.Errorf("assertion flow wrong:\n%s", out)
	}
}

func TestMarkReject(t *testing.T) {
	out := drive(t, "onedim",
		"loop 2",
		"deps carried on fld",
	)
	if !strings.Contains(out, "index-array") {
		t.Fatalf("expected index-array deps:\n%s", out)
	}
	// Extract the first dep id from the pane (first token of a line).
	var id string
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) > 2 && (f[1] == "true" || f[1] == "anti" || f[1] == "output") {
			id = f[0]
			break
		}
	}
	if id == "" {
		t.Fatalf("no dep id found:\n%s", out)
	}
	out2 := drive(t, "onedim",
		"loop 2",
		"mark "+id+" reject",
		"deps carried on fld hiderejected",
	)
	if strings.Contains(out2, "error") {
		t.Errorf("mark failed:\n%s", out2)
	}
}

func TestRunCommand(t *testing.T) {
	out := drive(t, "pneoss", "auto", "run 2")
	if !strings.Contains(out, "parallelized") {
		t.Errorf("auto output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	if len(strings.Fields(last)) == 0 {
		t.Errorf("run produced no output:\n%s", out)
	}
}

func TestEditUndoSave(t *testing.T) {
	out := drive(t, "pneoss",
		"loops",
		"save",
	)
	if !strings.Contains(out, "program pneoss") {
		t.Errorf("save output:\n%s", out)
	}
	out = drive(t, "pneoss",
		"apply parallelize 2",
		"undo",
		"loops",
	)
	if strings.Contains(out, "error") {
		t.Errorf("undo flow failed:\n%s", out)
	}
}

func TestPerfAndNext(t *testing.T) {
	out := drive(t, "spec77", "perf", "next", "rank")
	if !strings.Contains(out, "performance estimate") {
		t.Errorf("perf output:\n%s", out)
	}
	if !strings.Contains(out, "selected do") {
		t.Errorf("next output:\n%s", out)
	}
	if !strings.Contains(out, "spec77") || !strings.Contains(out, "gloop") {
		t.Errorf("rank output:\n%s", out)
	}
}

func TestSourceFilters(t *testing.T) {
	out := drive(t, "shear", "source loops")
	if strings.Contains(out, "print") {
		t.Errorf("filtered source leaked non-loops:\n%s", out)
	}
}

func TestUnknownCommand(t *testing.T) {
	out := drive(t, "pneoss", "frobnicate")
	if !strings.Contains(out, "unknown command") {
		t.Errorf("output:\n%s", out)
	}
}

func TestHelpAndUnits(t *testing.T) {
	out := drive(t, "spec77", "help", "units", "callgraph", "history", "legend")
	for _, want := range []string{"commands:", "program spec77", "calls gloop", "proven | pending"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTransformationParsingErrors(t *testing.T) {
	for _, bad := range []string{
		"apply parallelize",    // missing loop
		"apply parallelize 99", // out of range
		"apply unroll 1",       // missing factor
		"apply nosuch 1",       // unknown xform
		"mark x reject",        // bad id
		"assert n",             // malformed
	} {
		out := drive(t, "pneoss", bad)
		if !strings.Contains(out, "error") {
			t.Errorf("%q should error, got:\n%s", bad, out)
		}
	}
}

func TestFullCommandSurface(t *testing.T) {
	out := drive(t, "spec77",
		"units",
		"unit gloop",
		"loops",
		"unit spec77",
		"window",
		"source",
		"source parallel",
		"loop 2",
		"deps",
		"deps true anti output",
		"deps hideprivate",
		"vars",
		"classify t private",
		"compose",
		"quit",
	)
	for _, want := range []string{"» program spec77", "ParaScope Editor", "every call site agrees"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestApplyEveryTransformation(t *testing.T) {
	// A program shaped so each transformation has a legal target.
	w := workloads.ByName("shear")
	s, err := w.Session()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	r := New(s, &out)
	cmds := []string{
		"check interchange 3",
		"apply interchange 3",
		"check reverse 1",
		"apply reverse 1",
		"apply stripmine 5 8",
		"check unroll 2 2",
		"apply parallelize 1",
		"apply serialize 1",
		"check skew 1 1",
		"check distribute 1",
		"check peel 2",
		"check privatize 5 s",
		"check expand 5 s",
		"check reductions 5",
		"check normalize 2",
	}
	for _, cmd := range cmds {
		if err := r.Execute(cmd); err != nil {
			// check/apply legitimately report unsafe targets; only
			// parse-level failures are bugs.
			if strings.Contains(err.Error(), "unknown") || strings.Contains(err.Error(), "usage") {
				t.Errorf("%q: %v", cmd, err)
			}
		}
	}
	if !strings.Contains(out.String(), "applicable") {
		t.Errorf("no verdicts produced:\n%s", out.String())
	}
}

func TestEndpointsCommand(t *testing.T) {
	out := drive(t, "spec77",
		"loop 2",
		"deps carried on u",
	)
	// Grab a dep id from the istep loop (call-based deps on u).
	var id string
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) > 2 && (f[1] == "true" || f[1] == "anti" || f[1] == "output") {
			id = f[0]
			break
		}
	}
	if id == "" {
		t.Skipf("no dep id found:\n%s", out)
	}
	out2 := drive(t, "spec77", "loop 2", "endpoints "+id)
	if !strings.Contains(out2, "source:") || !strings.Contains(out2, "in gloop") {
		t.Errorf("endpoints output:\n%s", out2)
	}
}

func TestInlineCommand(t *testing.T) {
	out := drive(t, "spec77",
		"loop 2",
		"source contains call",
	)
	// Find the gloop call's statement id from the pane.
	var id string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "call gloop") {
			id = strings.Fields(line)[0]
			break
		}
	}
	if id == "" {
		t.Fatalf("no call statement found:\n%s", out)
	}
	out2 := drive(t, "spec77",
		"check inline "+id,
		"apply inline "+id,
		"loops",
	)
	if !strings.Contains(out2, "applied inline") {
		t.Errorf("inline flow failed:\n%s", out2)
	}
	if !strings.Contains(out2, "do k") {
		t.Errorf("callee loop not exposed after inlining:\n%s", out2)
	}
}

func TestDeleteAndEditCommands(t *testing.T) {
	out := drive(t, "pneoss", "source contains print")
	var id string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "print") {
			id = strings.Fields(line)[0]
			break
		}
	}
	if id == "" {
		t.Fatalf("no print stmt:\n%s", out)
	}
	out2 := drive(t, "pneoss",
		"edit "+id+" print *, s, cs(1)",
		"delete "+id,
		"undo",
	)
	if strings.Contains(out2, "error") {
		t.Errorf("edit/delete/undo flow:\n%s", out2)
	}
	// Edit, delete and undo each say which reanalysis rung they took,
	// and an undo never takes the analyze-everything one.
	if n := strings.Count(out2, "reanalyzed in "); n != 3 || strings.Contains(out2, "(full)") {
		t.Errorf("want three reanalysis lines, none of them (full):\n%s", out2)
	}
}

func TestSetAnalysisToggles(t *testing.T) {
	// spec77's call loops need sections: toggling them off must make
	// parallelization fail, toggling back on restore it.
	out := drive(t, "spec77",
		"check parallelize 1",
		"set sections off",
		"check parallelize 1",
		"set sections on",
		"check parallelize 1",
	)
	occurrences := strings.Count(out, "safe: yes")
	if occurrences != 2 {
		t.Errorf("want 2 safe verdicts (before and after restore), got %d:\n%s", occurrences, out)
	}
	if !strings.Contains(out, "safe: no") {
		t.Errorf("sections-off verdict should be blocked:\n%s", out)
	}
	bad := drive(t, "spec77", "set nosuch on", "set sections maybe")
	if strings.Count(bad, "error") != 2 {
		t.Errorf("invalid set forms should error:\n%s", bad)
	}
}

func TestPlanVerbs(t *testing.T) {
	out := drive(t, "direct",
		"plan nointerp", "plans", "apply-plan 1", "save", "undo")
	if !strings.Contains(out, "accept a plan with: apply-plan") {
		t.Errorf("plan output:\n%s", out)
	}
	if !strings.Contains(out, "applied plan ") {
		t.Errorf("apply-plan output:\n%s", out)
	}
	if !strings.Contains(out, "doall") {
		t.Errorf("accepted plan did not parallelize anything:\n%s", out)
	}
	// plans reprints, so the ranked header appears at least twice.
	if strings.Count(out, "1. plan ") < 2 {
		t.Errorf("plans did not reprint the ranking:\n%s", out)
	}
}

func TestApplyPlanStale(t *testing.T) {
	out := drive(t, "direct",
		"plan nointerp", "loop 1", "apply parallelize 1", "apply-plan 1")
	if !strings.Contains(out, "stale") {
		t.Errorf("stale apply-plan not rejected:\n%s", out)
	}
}
