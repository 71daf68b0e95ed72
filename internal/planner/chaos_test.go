package planner_test

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"parascope/internal/execguard"
	"parascope/internal/faultpoint"
	"parascope/internal/planner"
	"parascope/internal/workloads"
)

// TestWorldPanicConfined arms a one-shot panic at the world-fork
// boundary: exactly one world dies, the search completes, and the
// surviving worlds still produce plans.
func TestWorldPanicConfined(t *testing.T) {
	defer faultpoint.Reset()
	disarm := faultpoint.Arm(faultpoint.PlanFork, faultpoint.Fault{Panic: true, Times: 1})
	defer disarm()

	res := search(t, "spec77", planner.Options{Interp: false})
	if faultpoint.Fired(faultpoint.PlanFork) != 1 {
		t.Fatalf("fault fired %d times, want 1", faultpoint.Fired(faultpoint.PlanFork))
	}
	if res.WorldsDiscarded < 1 {
		t.Fatalf("panicking world was not discarded: %+v", res)
	}
	if len(res.Plans) < 2 {
		t.Fatalf("search did not survive one world panic: %d plans", len(res.Plans))
	}
}

// TestEveryWorldPanicsSearchStillCompletes is the total-loss case: a
// panic armed at scoring kills every world, and the search must
// return an empty (not failed) result.
func TestEveryWorldPanicsSearchStillCompletes(t *testing.T) {
	defer faultpoint.Reset()
	disarm := faultpoint.Arm(faultpoint.PlanScore, faultpoint.Fault{Panic: true})
	defer disarm()

	res := search(t, "direct", planner.Options{Interp: false})
	if len(res.Plans) != 0 {
		t.Fatalf("every world panicked yet %d plans survived", len(res.Plans))
	}
	if res.WorldsDiscarded == 0 {
		t.Fatal("no worlds recorded as discarded")
	}
	if res.WorldsScored != 0 {
		t.Fatalf("worlds scored after a pre-scoring panic: %d", res.WorldsScored)
	}
}

// TestWorldErrFaultDiscards: an Err fault (not a panic) at the fork
// site discards matching worlds without killing the search.
func TestWorldErrFaultDiscards(t *testing.T) {
	defer faultpoint.Reset()
	disarm := faultpoint.Arm(faultpoint.PlanFork,
		faultpoint.Fault{Match: "parallelize", Err: context.DeadlineExceeded})
	defer disarm()

	w := workloads.ByName("direct")
	res, err := planner.Search(context.Background(), w.Name+".f", w.Source, "",
		planner.Options{Interp: false}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.WorldsDiscarded == 0 {
		t.Fatal("err-faulted worlds were not discarded")
	}
	for _, p := range res.Plans {
		for _, st := range p.Steps {
			if strings.HasPrefix(st.Line, "apply parallelize") {
				t.Fatalf("a faulted parallelize step survived into plan %s", p.ID)
			}
		}
	}
}

// hostileProgram has one loop worth parallelizing, so the search finds
// a finalist, and then never ends: it spins, or floods its output.
func hostileProgram(tail string) string {
	return "      program hostile\n      integer i, k\n      real a(1000)\n" +
		"      do i = 1, 1000\n         a(i) = 0.5*real(i)\n      enddo\n      k = 0\n" +
		tail + "      end\n"
}

// TestHostileProgramObeysTheSearch: validation runs take the path a
// user's run takes, so a finalist (and a base) that never terminates is
// stopped by the search deadline or by the governor's wall and output
// limits, whichever comes first — Search returns within its budget plus
// one run limit, and a run cut short leaves its plan unvalidated
// (ranked by its estimate), not discarded as crashing.
func TestHostileProgramObeysTheSearch(t *testing.T) {
	spin := hostileProgram("   10 k = k + 1\n      goto 10\n")
	flood := hostileProgram("   10 print *, 123456789, a(1)\n      goto 10\n")
	for _, c := range []struct {
		name, src string
		budget    time.Duration // the search's
		limits    execguard.Limits
	}{
		{"spin/run-limit", spin, time.Minute, execguard.Limits{Timeout: 300 * time.Millisecond}},
		{"spin/deadline", spin, 400 * time.Millisecond, execguard.Limits{Timeout: time.Minute}},
		{"flood/output-cap", flood, time.Minute, execguard.Limits{Timeout: time.Minute, OutputBytes: 4096}},
	} {
		t.Run(c.name, func(t *testing.T) {
			estimated, err := planner.Search(context.Background(), "hostile.f", c.src, "",
				planner.Options{Interp: false, Workers: 2}, nil)
			if err != nil || len(estimated.Plans) == 0 {
				t.Fatalf("no plan to validate: %v, %+v", err, estimated)
			}
			start := time.Now()
			res, err := planner.Search(context.Background(), "hostile.f", c.src, "", planner.Options{
				Interp: true, Workers: 2, Timeout: c.budget,
				Gov: execguard.New(execguard.Config{Limits: c.limits}),
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Whichever of the two bounds a case leaves at a minute must
			// not be the one that ended it.
			if took := time.Since(start); took > 10*time.Second {
				t.Errorf("search took %s; budget %s, run limit %s", took, c.budget, c.limits.Timeout)
			}
			if len(res.Plans) != len(estimated.Plans) || res.WorldsDiscarded != estimated.WorldsDiscarded {
				t.Fatalf("a run cut short cost plans: %d plans (%d discarded), want %d (%d)",
					len(res.Plans), res.WorldsDiscarded, len(estimated.Plans), estimated.WorldsDiscarded)
			}
			for _, p := range res.Plans {
				if p.SimSpeedup != 0 || p.Score != p.EstSpeedup {
					t.Errorf("plan %s scored on a run that never finished: %+v", p.ID, p)
				}
			}
		})
	}
}

// TestWorldPanicDoesNotPoisonSiblings arms one panic at scoring, after
// the world's step has applied to the session it borrowed. That world
// is discarded, and every other world and plan is the unfaulted
// search's: had the panicked session gone back to its pool, the next
// sibling to borrow it would have applied its step on top of another.
// One level deep and with room for every plan, no world depends on
// which one the fault took.
func TestWorldPanicDoesNotPoisonSiblings(t *testing.T) {
	defer faultpoint.Reset()
	for _, workload := range []string{"spec77", "interior"} {
		for _, workers := range []int{1, 4} {
			opts := planner.Options{Interp: false, MaxDepth: 1, TopPlans: 64, Workers: workers}
			clean := search(t, workload, opts)
			disarm := faultpoint.Arm(faultpoint.PlanScore, faultpoint.Fault{Panic: true, Times: 1})
			res := search(t, workload, opts)
			if n := faultpoint.Fired(faultpoint.PlanScore); n != 1 {
				t.Fatalf("%s: fault fired %d times, want 1", workload, n)
			}
			disarm()
			if clean.WorldsScored < 2 {
				t.Fatalf("%s: %d worlds: no sibling to poison", workload, clean.WorldsScored)
			}
			if res.WorldsForked != clean.WorldsForked || res.WorldsScored != clean.WorldsScored-1 ||
				res.WorldsDiscarded != clean.WorldsDiscarded+1 {
				t.Errorf("%s, %d workers: forked/scored/discarded %d/%d/%d, want %d/%d/%d", workload, workers,
					res.WorldsForked, res.WorldsScored, res.WorldsDiscarded,
					clean.WorldsForked, clean.WorldsScored-1, clean.WorldsDiscarded+1)
			}
			want := map[string]planner.Plan{}
			for _, p := range clean.Plans {
				want[p.ID] = p
			}
			if len(res.Plans) < len(clean.Plans)-1 {
				t.Errorf("%s, %d workers: %d plans, want at least %d", workload, workers, len(res.Plans), len(clean.Plans)-1)
			}
			for _, p := range res.Plans {
				w, ok := want[p.ID]
				p.Rank = w.Rank
				if !ok || !reflect.DeepEqual(p, w) {
					t.Errorf("%s, %d workers: plan %s is not the unfaulted search's: %+v", workload, workers, p.ID, p)
				}
			}
		}
	}
}

// TestSearchIndependentOfWorkers: which session a world borrows — its
// parent's own, one a sibling undid, or a fresh parse — depends on the
// scheduler; the Result must not.
func TestSearchIndependentOfWorkers(t *testing.T) {
	for _, c := range []struct {
		workload string
		interp   bool
	}{{"spec77", true}, {"spec77", false}, {"interior", false}, {"onedim", true}, {"nxsns", false}} {
		var first *planner.Result
		for _, workers := range []int{1, 2, 8} {
			res := search(t, c.workload, planner.Options{Interp: c.interp, Workers: workers, Timeout: -1})
			res.Elapsed = 0
			if first == nil {
				first = res
				continue
			}
			if !reflect.DeepEqual(res, first) {
				t.Errorf("%s interp=%v: %d workers gave another Result than 1:\n%+v\n%+v", c.workload, c.interp, workers, res, first)
			}
		}
	}
}
