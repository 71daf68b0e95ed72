// Pinned panes. The artifact cache keeps, for every program it opens,
// the loop list and performance report of every unit and the variable
// pane and dependence rows of every loop, and serves them as a live
// session would print them; this test holds those texts to what the
// tree before the estimator priced units from the session's analyses
// and the panes were written without fmt printed.
package parascope

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"parascope/internal/core"
	"parascope/internal/server"
	"parascope/internal/workloads"
)

// TestPaneTextsPinned: one digest per workload of the JSON of
// server.BuildArtifacts over a fresh session — every unit's LoopsText
// and PerfText, every loop's VarPane and dependence rows — as the tree
// at commit 7b0a07d made them.
func TestPaneTextsPinned(t *testing.T) {
	want := map[string]string{
		"spec77": "ad1cb32d48bb4685", "pneoss": "c2170c2f66cd779d", "nxsns": "086d0616b6dc0049",
		"arc3d": "a71c77779d1887ff", "slab2d": "125c1f6df1b41df1", "onedim": "ae4f763a2a3e9d28",
		"shear": "e1ff95e0d9551ba6", "direct": "cabb09e77da4bb79", "interior": "d6c213263806b56b",
		"callheavy": "d1cf6898e7c1ee79", "condconst": "3e94df8f65220462",
	}
	for _, w := range append(workloads.All(), workloads.CallHeavy(24), workloads.CondConst()) {
		s, err := core.Open(w.Name+".f", w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		js, err := json.Marshal(server.BuildArtifacts(w.Name, s))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(js))[:16]; got != want[w.Name] {
			t.Errorf("%s: pane texts moved: digest %s, want %s", w.Name, got, want[w.Name])
		}
	}
}
