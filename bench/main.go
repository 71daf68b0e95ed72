// Command bench is the layered Ped benchmark: four user-loop workloads
// driven through server.Client against an in-process pedd (and, for
// one of them, pedgw), with named end-to-end metrics from an untraced
// pass and named per-layer metrics from a separate traced pass. See
// README.md; BENCHMARK.json at the repository root is its manifest.
//
//	go run -C bench . -workload t2_sessions -seed 1 -seconds 20 -trace 0
//	go run -C bench . -aa 5            # two interleaved sets of runs must agree
//	go run -C bench . -update-golden   # rewrite testdata/golden
//
// The last line on standard output is the result; the line before it
// is the full record (host, seed, sample counts, "claim": null — this
// benchmark measures, it claims nothing). Everything else goes to
// standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// record is one run's full output.
type record struct {
	host
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Golden   string  `json:"golden"`
	// PaceMs is the host's pace during the run (pace.go); the untraced
	// pass reports its times multiplied by paceRefMs/PaceMs.
	PaceMs float64             `json:"pace_ms"`
	Kinds  map[string]kindStat `json:"kinds"`
	Result outcome             `json:"result"`
	Claim  *string             `json:"claim"`
}

// outcome is the result line: exactly these four keys.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: t2_sessions, browse_reads, big_edit, plan_run or all")
	seed := fs.Int64("seed", defaultSeed, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 20, "how long the timed section drives the workload")
	trace := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	aa := fs.Int("aa", 0, "run two interleaved sets of this many full runs and compare their medians")
	update := fs.Bool("update-golden", false, "rewrite testdata/golden from the interpreter and the compiled backend")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *update {
		if err := updateGolden(); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *aa > 0 {
		return runAA(*aa, *seed, *seconds, stdout, stderr)
	}
	ws := allWorkloads
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		ws = []*workload{w}
	}
	code := 0
	for _, w := range ws {
		if c := runOne(w, *seed, *seconds, *trace, stdout, stderr); c != 0 {
			code = c
		}
	}
	return code
}

// runOne runs one pass of one workload and prints its record and
// result. It returns 1 when the pass could not run or an operation
// failed or answered wrongly.
func runOne(w *workload, seed int64, seconds float64, trace int, stdout, stderr io.Writer) int {
	dur := time.Duration(seconds * float64(time.Second))
	var res result
	var err error
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
		res, err = tracePass(w, seed, dur)
	} else {
		res, err = measure(w, seed, dur)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	for _, e := range res.errs {
		fmt.Fprintln(stderr, "bench: failed:", e)
	}
	out := outcome{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: fill(defs, res.metrics)}
	rec := record{host: describeHost(), Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
		Golden: "committed", Kinds: res.kinds, PaceMs: res.paceMs, Result: out}
	if seed != defaultSeed {
		rec.Golden = "suite programs committed; generated programs checked against the sequential interpreter"
		fmt.Fprintf(stderr, "bench: seed %d has no committed outputs for generated programs; every backend is checked against the sequential interpreter\n", seed)
	}
	printTable(stderr, w, defs, out, res.kinds)
	for _, v := range []interface{}{rec, out} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if !out.Correct {
		return 1
	}
	return 0
}

// printTable lists every metric by name with its unit for a reader,
// then the sample count, median and share of action time of each kind.
func printTable(w io.Writer, wl *workload, defs []metricDef, out outcome, kinds map[string]kindStat) {
	fmt.Fprintf(w, "%s: %d operations, %d failed\n", wl.name, out.Attempted, out.Failed)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, out.Metrics[d.Name].Value, d.Unit)
	}
	names := make([]string, 0, len(kinds))
	var total float64
	for k, st := range kinds {
		names = append(names, k)
		total += st.SumMs
	}
	sort.Strings(names)
	for _, k := range names {
		st := kinds[k]
		fmt.Fprintf(w, "  kind %-10s n=%-6d p50 %10.3f ms  %5.1f%% of action time\n", k, st.N, st.P50Ms, 100*st.SumMs/total)
	}
}
