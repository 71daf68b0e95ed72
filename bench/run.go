package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// The untraced pass builds the whole stack at least minSetups times,
// and more while that takes under setupBudget in all (a 40 ms set-up
// needs more than three readings for a steady median); setup_s is the
// median, and the last stack built is the one measured.
const (
	maxSetups   = 25
	setupBudget = 1500 * time.Millisecond
)

var minSetups = 3 // the smoke test sets 1

// kindStat summarizes the latencies of one action kind.
type kindStat struct {
	N     int     `json:"n"`
	P50Ms float64 `json:"p50_ms"`
	SumMs float64 `json:"sum_ms"`
}

func kindStats(rec *recorder) map[string]kindStat {
	out := map[string]kindStat{}
	for k, v := range rec.samples {
		out[k] = kindStat{N: len(v), P50Ms: median(v), SumMs: sum(v)}
	}
	return out
}

// result is what one run found, before it is rendered.
type result struct {
	attempted int
	failed    int
	errs      []string
	metrics   map[string]float64
	// kinds is the sample count, median and total behind the latencies,
	// by action kind.
	kinds map[string]kindStat
	// paceMs is the host's pace during the run (pace.go).
	paceMs float64
}

// measure is the untraced pass: set the stack up, drive the workload
// for the given time with tracing off, and report the end-to-end
// metrics, every time among them scaled to the reference host's pace.
func measure(w *workload, seed int64, dur time.Duration) (result, error) {
	pc, err := newPacer()
	if err != nil {
		return result{}, err
	}
	defer pc.close()

	var e *env
	var setupS []float64
	for began := time.Now(); len(setupS) < minSetups || (len(setupS) < maxSetups && time.Since(began) < setupBudget); {
		if e != nil {
			e.close()
		}
		start := time.Now()
		if e, err = startEnv(w, seed, nil); err != nil {
			return result{}, err
		}
		took := time.Since(start).Seconds()
		pc.breathe()
		pace, err := pc.take()
		if err != nil {
			e.close()
			return result{}, err
		}
		setupS = append(setupS, took*paceRefMs/pace)
	}
	defer e.close()

	// Let connections and the heap settle before timing. Set-up's and the
	// warm-up's operations are checked but not timed.
	d := newDriver(e, w)
	warm := d.run(1, dur/8, nil).rec
	win := d.run(1, dur, func(int) { pc.breathe() })
	pc.breathe()
	pace, err := pc.take()
	if err != nil {
		return result{}, err
	}
	scale := paceRefMs / pace
	rec := win.rec
	rec.tally(e.primed)
	rec.tally(warm)
	res := result{attempted: rec.attempted, failed: rec.failed, errs: rec.errs, kinds: kindStats(rec), paceMs: pace}
	rss, err := peakRSSMB()
	if err != nil {
		return res, err
	}
	res.metrics = map[string]float64{
		"setup_s":        median(setupS),
		"sessions_per_s": win.steadySessionsPerS() / scale,
		"action_p50_ms":  win.latencyP50("") * scale,
		"open_p50_ms":    win.latencyP50(kOpen) * scale,
		"read_p50_ms":    win.latencyP50(kRead) * scale,
		"peak_rss_mb":    rss,
	}
	return res, nil
}

// peakRSSMB reads this process's resident-set high-water mark; the
// daemon and gateway run in-process, so it covers them.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
