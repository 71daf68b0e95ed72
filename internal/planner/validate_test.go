package planner_test

import (
	"context"
	"os"
	"reflect"
	"testing"
	"time"

	"parascope/internal/execguard"
	"parascope/internal/faultpoint"
	"parascope/internal/planner"
	"parascope/internal/workloads"
)

// TestConcurrentValidationMatchesSerial: the base and the finalists
// are validated side by side, yet what a search returns — discards,
// speedups, scores, ranks — is what one worker returns, on every suite
// program and on the benchmark's mid-size generated shape.
func TestConcurrentValidationMatchesSerial(t *testing.T) {
	mid, err := os.ReadFile("testdata/mid.f")
	if err != nil {
		t.Fatal(err)
	}
	type prog struct{ path, source string }
	progs := []prog{{"mid.f", string(mid)}}
	for _, w := range workloads.All() {
		progs = append(progs, prog{w.Name + ".f", w.Source})
	}
	for _, p := range progs {
		t.Run(p.path, func(t *testing.T) {
			var results []*planner.Result
			for _, workers := range []int{1, 4} {
				res, err := planner.Search(context.Background(), p.path, p.source, "",
					planner.Options{Interp: true, Workers: workers, Timeout: -1}, nil)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				res.Elapsed = 0
				results = append(results, res)
			}
			if !reflect.DeepEqual(results[0], results[1]) {
				t.Fatalf("Workers 1 and 4 disagree:\n%+v\n%+v", results[0], results[1])
			}
		})
	}
}

// TestValidationPanicConfined arms a panic inside one validation run.
// In a finalist's it costs that plan and nothing else; in the base's
// every plan stays, ranked by its estimate alone.
func TestValidationPanicConfined(t *testing.T) {
	defer faultpoint.Reset()
	clean := search(t, "spec77", planner.Options{Interp: true})
	if len(clean.Plans) < 2 {
		t.Fatalf("want >= 2 plans to lose one of, got %d", len(clean.Plans))
	}

	victim := clean.Plans[0]
	disarm := faultpoint.Arm(faultpoint.PlanValidate, faultpoint.Fault{Match: victim.ID, Panic: true})
	res := search(t, "spec77", planner.Options{Interp: true})
	if faultpoint.Fired(faultpoint.PlanValidate) != 1 {
		t.Fatalf("fault fired %d times, want 1", faultpoint.Fired(faultpoint.PlanValidate))
	}
	disarm()
	if res.WorldsDiscarded != clean.WorldsDiscarded+1 {
		t.Fatalf("discarded %d worlds, want %d", res.WorldsDiscarded, clean.WorldsDiscarded+1)
	}
	want := clean.Plans[1:]
	if len(res.Plans) != len(want) {
		t.Fatalf("%d plans survived, want %d", len(res.Plans), len(want))
	}
	for i, p := range res.Plans {
		w := want[i]
		w.Rank = i + 1
		if !reflect.DeepEqual(p, w) {
			t.Fatalf("plan %d changed beside its rank:\n%+v\n%+v", i, p, w)
		}
	}

	// A finalist's run the governor cut short is not a crash: the plan
	// stays, unvalidated, and nothing else moves.
	disarm = faultpoint.Arm(faultpoint.PlanValidate,
		faultpoint.Fault{Match: victim.ID, Err: execguard.TimeoutError(time.Second)})
	res = search(t, "spec77", planner.Options{Interp: true})
	disarm()
	if len(res.Plans) != len(clean.Plans) || res.WorldsDiscarded != clean.WorldsDiscarded {
		t.Fatalf("a cut-short validation cost plans: %d plans, %d discarded", len(res.Plans), res.WorldsDiscarded)
	}
	for _, p := range res.Plans {
		if (p.ID == victim.ID) != (p.SimSpeedup == 0) {
			t.Fatalf("plan %s: sim %.2f; only the cut-short plan %s is unvalidated", p.ID, p.SimSpeedup, victim.ID)
		}
	}

	disarm = faultpoint.Arm(faultpoint.PlanValidate, faultpoint.Fault{Match: clean.BaseHash, Panic: true})
	res = search(t, "spec77", planner.Options{Interp: true})
	disarm()
	if len(res.Plans) != len(clean.Plans) || res.WorldsDiscarded != clean.WorldsDiscarded {
		t.Fatalf("base validation panic cost plans: %d plans, %d discarded", len(res.Plans), res.WorldsDiscarded)
	}
	for _, p := range res.Plans {
		if p.SimSpeedup != 0 || p.Score != p.EstSpeedup {
			t.Fatalf("plan %s scored on a validation that never ran: %+v", p.ID, p)
		}
	}
}

// TestValidationWithFewerSlotsThanWorkers: when the governor admits
// fewer runs than the search has workers, validation runs no wider
// than the slots — a run that lost the race for a slot used to come
// back busy and leave its plan unvalidated, so the ranks depended on
// scheduling. One slot must give what no limit gives, every time.
func TestValidationWithFewerSlotsThanWorkers(t *testing.T) {
	for _, name := range []string{"shear", "interior"} {
		t.Run(name, func(t *testing.T) {
			w := workloads.ByName(name)
			opts := planner.Options{Interp: true, Workers: 4, Timeout: -1}
			want, err := planner.Search(context.Background(), w.Name+".f", w.Source, "", opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			want.Elapsed = 0
			for i := 0; i < 10; i++ {
				opts.Gov = execguard.New(execguard.Config{MaxRuns: 1})
				got, err := planner.Search(context.Background(), w.Name+".f", w.Source, "", opts, nil)
				if err != nil {
					t.Fatal(err)
				}
				got.Elapsed = 0
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("search %d under one slot differs from the unlimited search:\n%+v\n%+v", i, got, want)
				}
			}
		})
	}
}
