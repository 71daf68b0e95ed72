package server

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"

	"parascope/internal/planner"
	"parascope/internal/repl"
	"parascope/internal/workloads"
)

// probeLines lists, for every verb the table classes Read or Cursor,
// the lines that probe it: no argument, a valid one, a malformed one
// and one out of range, as far as the verb takes any. %s is the last
// unit of the program.
var probeLines = map[string][]string{
	"help":      {"help", "help loops"},
	"quit":      {"quit", "quit now"},
	"exit":      {"exit", "exit 1"},
	"units":     {"units", "UNITS", "units x"},
	"callgraph": {"callgraph", "callgraph x"},
	"loops":     {"loops", "loops 1"},
	"window":    {"window", "window x"},
	"source":    {"source", "source loops", "source contains do", "source contains", "source nosuch"},
	"deps": {"deps", "deps carried", "deps on", "deps nosuch", "deps hideprivate", "deps hiderejected carried",
		"deps true anti", "deps on i", "deps on I", "deps Carried"},
	"vars":      {"vars", "vars x"},
	"check":     {"check", "check parallelize 1", "check parallelize x", "check parallelize 99"},
	"perf":      {"perf", "perf x"},
	"rank":      {"rank", "rank x"},
	"advise":    {"advise", "advise x"},
	"endpoints": {"endpoints", "endpoints 1", "endpoints x", "endpoints 9999"},
	"compose":   {"compose", "compose x"},
	"history":   {"history", "history x"},
	"save":      {"save", "save x"},
	"legend":    {"legend", "legend x"},
	"unit":      {"unit", "unit %s", "Unit %s", "unit %s extra", "unit nosuch"},
	"loop":      {"loop", "loop 1", "loop x", "loop 1 2", "loop 99", "loop 0", "loop -1"},
	"next":      {"next", "next x"},
}

// probeSelects are the typed counterparts of the cursor lines.
var probeSelects = []SelectRequest{
	{}, {Loop: 1}, {Unit: "%s"}, {Unit: "%s", Loop: 1}, {Loop: 99}, {Loop: -1},
	{Unit: "nosuch"}, {Unit: "nosuch", Loop: 1}, {Unit: "%s", Loop: 99},
}

// probed is everything a client sees of one request, and where it left
// the session.
type probed struct {
	Out, Err, Unit, State string
	Loop                  int
	Sel                   SelectResponse
}

func probeCursor(t *testing.T, ss *Session, p *probed) {
	t.Helper()
	if err := ss.post(bg, func() { p.Unit, p.Loop = ss.cursor() }, false); err != nil {
		t.Fatal(err)
	}
	p.State = ss.StateName()
}

func probeLine(t *testing.T, ss *Session, line string) probed {
	t.Helper()
	resp, err := ss.Cmd(bg, line)
	if err != nil {
		t.Fatalf("cmd %q: %v", line, err)
	}
	p := probed{Out: resp.Output, Err: resp.Err}
	probeCursor(t, ss, &p)
	return p
}

func probeSelect(t *testing.T, ss *Session, req SelectRequest) probed {
	t.Helper()
	var p probed
	var err error
	if p.Sel, err = ss.Select(bg, req); err != nil {
		p.Err = err.Error()
	}
	probeCursor(t, ss, &p)
	return p
}

// TestArtifactAnswersMatchLive holds the artifact reader to its
// reference. On every suite workload, from a fresh cursor and from a
// selected loop, every probe of every Read and Cursor verb (and every
// typed select) gets from an artifact-backed session the output, error,
// cursor and state a cold live session gives — and the session has
// materialized exactly when the line was not one the artifacts answer:
// a blank line, an argument-less verb of artifactReads, `deps` with
// arguments the live REPL accepts, or a cursor move the live session
// accepts.
func TestArtifactAnswersMatchLive(t *testing.T) {
	var answered []string
	for verb := range artifactReads {
		answered = append(answered, verb)
	}
	sort.Strings(answered)
	if want := []string{"deps", "exit", "help", "legend", "loops", "perf", "quit", "save", "units", "vars"}; !reflect.DeepEqual(answered, want) {
		t.Errorf("the artifacts answer %v; want %v — a verb dropped here makes browsing sessions materialize", answered, want)
	}
	lines := []string{"", "frobnicate", "frobnicate 1"}
	for verb, class := range repl.Verbs {
		if class != repl.Read && class != repl.Cursor {
			continue
		}
		if len(probeLines[verb]) == 0 {
			t.Errorf("no line probes %q", verb)
		}
		lines = append(lines, probeLines[verb]...)
	}
	sort.Strings(lines)

	for _, w := range workloads.All() {
		cold := newTestManager(t, Config{}) // no cache: every open is live
		warm := newTestManager(t, Config{CacheSize: 8})
		_, first := mustOpen(t, warm, w.Name)
		last := first.Units[len(first.Units)-1]
		materialized := 0
		for _, start := range []string{"", "loop 1"} {
			// pair opens a live and an artifact-backed session at start.
			pair := func(what string) (live, art *Session) {
				t.Helper()
				live, _ = mustOpen(t, cold, w.Name)
				art, resp := mustOpen(t, warm, w.Name)
				if !resp.Cached {
					t.Fatalf("%s: not a cache hit", w.Name)
				}
				if start != "" {
					if a, b := probeLine(t, live, start), probeLine(t, art, start); a != b || a.Err != "" {
						t.Fatalf("%s: start %q: live %+v, artifact-backed %+v", w.Name, start, a, b)
					}
				}
				if art.Info(bg).Live {
					t.Fatalf("%s: materialized before %s", w.Name, what)
				}
				return live, art
			}
			for _, line := range lines {
				line = strings.ReplaceAll(line, "%s", last)
				what := fmt.Sprintf("%q after %q", line, start)
				live, art := pair(what)
				want, got := probeLine(t, live, line), probeLine(t, art, line)
				if got != want {
					t.Errorf("%s: %s:\n artifact-backed %+v\n live            %+v", w.Name, what, got, want)
				}
				f := strings.Fields(strings.ToLower(line))
				answers := len(f) == 0 ||
					len(f) == 1 && artifactReads[f[0]] != nil ||
					len(f) == 2 && (f[0] == "unit" || f[0] == "loop") && want.Err == "" ||
					f[0] == "deps" && want.Err == ""
				if isLive := art.Info(bg).Live; isLive == answers {
					t.Errorf("%s: %s: materialized %v, but the artifacts answer it: %v", w.Name, what, isLive, answers)
				} else if isLive {
					materialized++
				}
				cold.Close(live.ID)
				warm.Close(art.ID)
			}
			for _, req := range probeSelects {
				req.Unit = strings.ReplaceAll(req.Unit, "%s", last)
				what := fmt.Sprintf("select %+v after %q", req, start)
				live, art := pair(what)
				want, got := probeSelect(t, live, req), probeSelect(t, art, req)
				if got != want {
					t.Errorf("%s: %s:\n artifact-backed %+v\n live            %+v", w.Name, what, got, want)
				}
				if isLive := art.Info(bg).Live; isLive != (want.Err != "") {
					t.Errorf("%s: %s: materialized %v, the live select's error is %q", w.Name, what, isLive, want.Err)
				} else if isLive {
					materialized++
				}
				cold.Close(live.ID)
				warm.Close(art.ID)
			}
		}
		if got := warm.Metrics().Materializations.Value(); got != uint64(materialized) {
			t.Errorf("%s: %d materializations counted, %d sessions went live", w.Name, got, materialized)
		}
	}
}

// TestApplyPlanWalkIsTheREPLs: accepting a plan stops the same three
// ways — stale base, failing step, diverged post-hash — with the same
// error, whether the in-process REPL's apply-plan or the daemon's
// ApplyPlan walks it; an intact plan lands both on the plan's last hash.
func TestApplyPlanWalkIsTheREPLs(t *testing.T) {
	w := workloads.ByName("direct")
	m := newTestManager(t, Config{CacheSize: 8})
	ss, _ := mustOpen(t, m, w.Name)
	found := mustPlan(t, ss, PlanRequest{NoInterp: true, MaxWorlds: 24})
	if len(found.Plans) == 0 || len(found.Plans[0].Steps) == 0 {
		t.Fatalf("no plan to accept: %+v", found)
	}
	for _, tc := range []struct {
		name     string
		tweak    func(*planner.Plan)
		want     string
		conflict bool
	}{
		{name: "intact", tweak: func(*planner.Plan) {}},
		{name: "stale base", tweak: func(p *planner.Plan) { p.BaseHash = "0000" }, want: "stale plan", conflict: true},
		{name: "failing step", tweak: func(p *planner.Plan) { p.Steps[0].Line = "apply nosuch 1" }, want: `step 1 ("apply nosuch 1")`},
		{name: "diverged", tweak: func(p *planner.Plan) { p.Steps[0].Hash = "0000" }, want: "diverged after step 1", conflict: true},
	} {
		plan := found.Plans[0]
		plan.Steps = append([]planner.Step{}, plan.Steps...)
		tc.tweak(&plan)
		final := plan.Steps[len(plan.Steps)-1].Hash

		local, err := w.Session()
		if err != nil {
			t.Fatal(err)
		}
		r := repl.New(local, io.Discard)
		r.Plans = []planner.Plan{plan}
		replErr := r.Execute("apply-plan 1")

		hosted, _ := mustOpen(t, m, w.Name)
		resp, srvErr := hosted.ApplyPlan(bg, ApplyPlanRequest{Plan: &plan})

		if tc.want == "" {
			if replErr != nil || srvErr != nil || local.SourceHash() != final || resp.Hash != final {
				t.Errorf("%s: REPL %v at %.12s, daemon %v at %.12s; want both at %.12s", tc.name, replErr, local.SourceHash(), srvErr, resp.Hash, final)
			}
			continue
		}
		if replErr == nil || srvErr == nil || replErr.Error() != srvErr.Error() || !strings.Contains(srvErr.Error(), tc.want) {
			t.Errorf("%s: REPL says %v, daemon says %v; want one error naming %q", tc.name, replErr, srvErr, tc.want)
		}
		if errors.Is(replErr, ErrPlanConflict) != tc.conflict || errors.Is(srvErr, ErrPlanConflict) != tc.conflict {
			t.Errorf("%s: conflict through REPL %v, through daemon %v; want %v", tc.name,
				errors.Is(replErr, ErrPlanConflict), errors.Is(srvErr, ErrPlanConflict), tc.conflict)
		}
	}
}
