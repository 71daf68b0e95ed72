// Estimate: performance-estimator-guided navigation — rank the
// procedures and loops of the spec77 workload by predicted cost,
// follow the estimator to the hottest serial loop, parallelize along
// the way, and finally measure real speedup on the parallel
// interpreter.
package main

import (
	"fmt"
	"log"
	"time"

	"parascope/internal/interp"
	"parascope/internal/workloads"
	"parascope/internal/xform"
)

func main() {
	w := workloads.ByName("spec77")
	s, err := w.Session()
	if err != nil {
		log.Fatal(err)
	}

	// Procedure-level ranking (the "big picture" users asked for).
	fmt.Println("procedure ranking (predicted cost per invocation):")
	for i, row := range s.Estimator().ProcedureRank() {
		fmt.Printf("  %d. %-10s %10.0f\n", i+1, row.Unit.Name, row.Cost)
	}

	// Loop-level ranking inside the main program.
	fmt.Println("\nloop ranking (estimator report):")
	fmt.Print(s.Estimate().Report())

	// Estimator-guided parallelization: repeatedly navigate to the
	// most expensive serial loop and try to parallelize it.
	fmt.Println("\nestimator-guided walk:")
	for {
		l, ok := s.NextByPerformance()
		if !ok {
			break
		}
		v, err := s.Transform(xform.Parallelize{Do: l.Do})
		if err != nil {
			fmt.Printf("  do %s (line %d): left serial (%s)\n",
				l.Header().Name, l.Do.Line(), v)
			// Recurse into children via auto mode and stop walking
			// this loop.
			s.AutoParallelize()
			break
		}
		fmt.Printf("  do %s (line %d): parallelized\n", l.Header().Name, l.Do.Line())
	}

	// Measure the result.
	fmt.Println("\nmeasured execution (parallel interpreter):")
	var t1 time.Duration
	for _, workers := range []int{1, 2, 4, 8} {
		start := time.Now()
		if _, err := interp.RunCapture(s.File, workers, w.Input); err != nil {
			log.Fatal(err)
		}
		el := time.Since(start)
		if workers == 1 {
			t1 = el
		}
		fmt.Printf("  %d workers: %10s  (speedup %.2fx)\n",
			workers, el.Round(10*time.Microsecond), t1.Seconds()/el.Seconds())
	}
}
