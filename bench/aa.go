package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runAA checks that the benchmark agrees with itself: two sets, A and
// B, of n full untraced runs of this same tree, interleaved A B A B …
// with a fresh seed per pair, every run a process of its own like the
// driver's. It prints the median and quartiles of every end-to-end
// metric per workload and set, and returns non-zero when the two sets'
// medians differ by more than the metric's bound.
func runAA(n int, seed int64, seconds float64, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// values[workload][metric][set] lists that set's n readings.
	values := map[string]map[string]*[2][]float64{}
	for _, w := range allWorkloads {
		values[w.name] = map[string]*[2][]float64{}
		for _, d := range endToEnd {
			values[w.name][d.Name] = &[2][]float64{}
		}
	}
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range allWorkloads {
				cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed+int64(i), 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
				cmd.Stderr = io.Discard
				raw, err := cmd.Output()
				if err != nil {
					fmt.Fprintf(stderr, "bench: -aa: %s run %d of set %c: %v\n", w.name, i+1, 'A'+set, err)
					return 1
				}
				lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
				var out outcome
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
					fmt.Fprintf(stderr, "bench: -aa: %s: %v\n", w.name, err)
					return 1
				}
				for name, v := range out.Metrics {
					values[w.name][name][set] = append(values[w.name][name][set], v.Value)
				}
				fmt.Fprintf(stderr, "-aa: %s run %d/%d of set %c done\n", w.name, i+1, n, 'A'+set)
			}
		}
	}
	code := 0
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%-13s %-15s %-4s %12s %12s %12s %8s %8s\n", "workload", "metric", "set", "q1", "median", "q3", "diff", "bound")
	for _, w := range allWorkloads {
		for _, d := range endToEnd {
			sets := values[w.name][d.Name]
			medA, medB := median(sets[0]), median(sets[1])
			// How much worse B's median reads than A's, as a share of A's.
			diff := (medB - medA) / medA
			if d.Better == "higher" {
				diff = -diff
			}
			verdict := ""
			if diff > d.Bound || -diff > d.Bound {
				verdict = "  DISAGREE"
				code = 1
			}
			for set := 0; set < 2; set++ {
				xs := sets[set]
				fmt.Fprintf(&buf, "%-13s %-15s %-4c %12.4f %12.4f %12.4f", w.name, d.Name, 'A'+set,
					quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75))
				if set == 1 {
					fmt.Fprintf(&buf, " %+7.1f%% %7.0f%%%s", 100*diff, 100*d.Bound, verdict)
				}
				fmt.Fprintln(&buf)
			}
		}
	}
	_, _ = stdout.Write(buf.Bytes())
	return code
}
