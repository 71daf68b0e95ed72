package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestManifestMatchesCode keeps BENCHMARK.json and the tables the
// program reports from saying the same thing.
func TestManifestMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n%+v\n%+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
	if len(m.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(m.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest says %q (%q), program %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name, or bad unit", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestSmoke runs both passes of every workload at the smallest size
// that still does every kind of operation once: every listed metric
// comes out exactly once, finite and with its unit, nothing fails, and
// the traced pass leaves a span file in which children start inside
// their parents.
func TestSmoke(t *testing.T) {
	defer func(n int) { minSetups = n }(minSetups)
	minSetups = 1
	for _, w := range allWorkloads {
		if testing.Short() && (w == t2Sessions || w == planRun) {
			continue // these two build programs with the Go toolchain
		}
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", w.name, "-seed", "3", "-seconds", "0.2", "-trace", []string{"0", "1"}[trace]}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %d: exit %d\n%s", w.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var out map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
				t.Fatalf("%s trace %d: last line is not JSON: %v", w.name, trace, err)
			}
			if len(out) != 4 {
				t.Errorf("%s trace %d: result has %d keys, want correct, attempted, failed, metrics", w.name, trace, len(out))
			}
			var res outcome
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, the manifest lists %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace %d: metric %s = %+v (present %v)", w.name, trace, d.Name, v, ok)
				}
				if trace == 0 && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, d.Name, v.Value)
				}
			}
			var rec record
			if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rec); err != nil {
				t.Fatalf("%s trace %d: record line: %v", w.name, trace, err)
			}
			if rec.Seed != 3 || rec.GoVersion == "" || rec.NProc < 1 || rec.GOMAXPROCS < 1 || rec.CPU == "" || rec.Date == "" || rec.Commit == "" || rec.Claim != nil {
				t.Errorf("%s trace %d: incomplete record %+v", w.name, trace, rec)
			}
			if trace == 1 {
				checkSpans(t, w)
			}
		}
	}
}

func checkSpans(t *testing.T, w *workload) {
	t.Helper()
	data, err := os.ReadFile(spanFile(w.name))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	nested, layers := 0, map[string]bool{}
	for _, s := range spans {
		layers[s.Name] = true
		if s.End < s.Start {
			t.Fatalf("%s: span %+v ends before it starts", w.name, s)
		}
		if s.Parent < 0 {
			continue
		}
		// A child starts inside its parent; it may end after it, by what a
		// handler does once its response is written.
		p := spans[s.Parent]
		if p.Req != s.Req || s.Start < p.Start || s.Start > p.End {
			t.Fatalf("%s: span %+v does not start inside its parent %+v", w.name, s, p)
		}
		nested++
	}
	if nested == 0 || !layers["pedd"] || layers["gateway"] != w.gateway {
		t.Errorf("%s: %d nested spans, layers %v (gateway workload: %v)", w.name, nested, layers, w.gateway)
	}
}

// TestCorruptGoldenFails is the benchmark's own negative control: with
// one golden output wrong, the run must count failures, say so in its
// result, and exit non-zero.
func TestCorruptGoldenFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds programs with the Go toolchain")
	}
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(goldenDir)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "arc3d.out"), []byte("0.5 0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	defer func(d string, n int) { goldenDir, minSetups = d, n }(goldenDir, minSetups)
	goldenDir, minSetups = dir, 1
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "t2_sessions", "-seconds", "0.2"}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("no result line: %v\n%s", err, stderr.String())
	}
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("corrupt golden file: exit %d, correct=%v, failed=%d\n%s", code, res.Correct, res.Failed, stderr.String())
	}
}
