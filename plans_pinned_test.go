// Pinned planner output. The search's worlds may be evaluated any way
// that reaches the same states; this test holds planner.Search's whole
// Result — the counts, every plan's steps, verdicts, hashes, scores,
// decisions, diff and final source — to what commit d6db164 made,
// when every world was a fresh parse of its parent's printed source.
package parascope

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"parascope/internal/planner"
	"parascope/internal/workloads"
)

// pinnedPlan is a plan as the golden file holds it: Source, which the
// wire form leaves out, included.
type pinnedPlan struct {
	planner.Plan
	Source string `json:"source"`
}

// planRecord renders one search's Result with Elapsed left out.
func planRecord(res *planner.Result) string {
	out := struct {
		*planner.Result
		Plans []pinnedPlan `json:"plans"`
	}{Result: res}
	for _, p := range res.Plans {
		out.Plans = append(out.Plans, pinnedPlan{p, p.Source})
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		panic(err)
	}
	return string(b) + "\n"
}

// planSearches is every search the golden file records, by name: the
// suite, the call-heavy and the conditional-constant programs, each
// with interpretation on and off, with no deadline to cut one short.
func planSearches(t *testing.T) (names []string, records map[string]string) {
	records = map[string]string{}
	for _, w := range append(workloads.All(), workloads.CallHeavy(24), workloads.CondConst()) {
		for _, interp := range []bool{true, false} {
			res, err := planner.Search(context.Background(), w.Name+".f", w.Source, "",
				planner.Options{Interp: interp, Timeout: -1}, nil)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			name := fmt.Sprintf("%s interp=%v", w.Name, interp)
			names = append(names, name)
			records[name] = planRecord(res)
		}
	}
	return names, records
}

// TestPlansPinned compares every search with testdata/plans.golden,
// where each record follows a "== <name>" line.
func TestPlansPinned(t *testing.T) {
	golden, err := os.ReadFile("testdata/plans.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, rec := range strings.Split(string(golden), "== ")[1:] {
		name, body, _ := strings.Cut(rec, "\n")
		want[name] = body
	}
	names, got := planSearches(t)
	if len(want) != len(names) {
		t.Errorf("%d searches, golden has %d", len(names), len(want))
	}
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: the Result moved:\n%s", name, planner.Diff(want[name], got[name]))
		}
	}
}
