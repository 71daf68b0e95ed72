package server

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"parascope/internal/planner"
	"parascope/internal/repl"
	"parascope/internal/workloads"
)

// These tests pin the one path from a request to the editor: a
// daemon-served verb never reaches the in-process REPL, `run` is
// governed whichever route asks for it, and a replayed session is the
// live one whichever entry points built it.

// TestDaemonVerbsNeverReachREPL: on a hosted session, no verb the table
// classes daemon-served is handed to repl.Execute — whose forms would
// run outside the governor, search on the actor, and apply a plan
// without journaling its steps. exec points the REPL at a fresh buffer
// before every Execute, so a writer planted there survives exactly the
// lines that never got that far.
func TestDaemonVerbsNeverReachREPL(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8})
	ss, _ := mustOpen(t, m, "onedim")
	mustCmd(t, ss, "apply parallelize 1") // materialize: there is a REPL to reach
	lines := map[string]string{"plan": "plan nointerp worlds=8 ms=2000", "apply-plan": "apply-plan 1"}
	planted := &strings.Builder{}
	reached := func(line string) (hit bool) {
		t.Helper()
		if err := ss.post(bg, func() { ss.rep.Out = planted }, false); err != nil {
			t.Fatal(err)
		}
		// Whatever the verb answers — an applied plan, a stale one —
		// is its own business here.
		_, _ = ss.Cmd(bg, line)
		if err := ss.post(bg, func() { hit = ss.rep.Out != io.Writer(planted) }, false); err != nil {
			t.Fatal(err)
		}
		return hit
	}
	if !reached("loops") {
		t.Fatal("the probe does not see a line that does reach the REPL; the test is vacuous")
	}
	var daemon []string
	for verb, class := range repl.Verbs {
		if class == repl.Daemon {
			daemon = append(daemon, verb)
		}
	}
	if len(daemon) == 0 {
		t.Fatal("the verb table classes nothing daemon-served")
	}
	// Sorted, apply-plan comes before plan: with no search to draw on it
	// applies nothing, so no step line of a plan reaches the REPL either.
	sort.Strings(daemon)
	for _, verb := range daemon {
		line := lines[verb]
		if line == "" {
			line = verb
		}
		if reached(line) {
			t.Errorf("%q is classed daemon-served but reached repl.Execute", line)
		}
	}
}

// TestRunVerbGoverned: `run` over POST …/cmd is the same governed call
// POST …/run makes. With the one exec slot held both answer 429 +
// Retry-After; a disabled backend is 501 on both; a request whose
// deadline passes mid-run is 504 on both and the run is stopped, not
// left spinning on the session's actor.
func TestRunVerbGoverned(t *testing.T) {
	m := newTestManager(t, Config{MaxRuns: 1, RunTimeout: 30 * time.Second})
	ts := httptest.NewServer(NewWith(m, Options{DisabledBackends: []string{"compile"}}))
	defer ts.Close()
	c := NewClient(ts.URL)
	tame, err := c.Open(bg, OpenRequest{Path: "tame.f", Source: tameSource})
	if err != nil {
		t.Fatal(err)
	}
	post := func(base, id, route, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(base+"/v1/sessions/"+id+"/"+route, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	routes := []struct{ name, route, body, compile string }{
		{"run", "run", `{}`, `{"backend":"compile"}`},
		{"cmd", "cmd", `{"line":"run"}`, `{"line":"run backend=compile"}`},
	}

	release, err := m.gov.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range routes {
		resp := post(ts.URL, tame.ID, r.route, r.body)
		if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s with the exec slot held: %d, Retry-After %q; want 429 with one",
				r.name, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
	release()

	for _, r := range routes {
		if resp := post(ts.URL, tame.ID, r.route, r.compile); resp.StatusCode != http.StatusNotImplemented {
			t.Errorf("%s on a disabled backend: %d, want 501", r.name, resp.StatusCode)
		}
	}

	// Freed and on an enabled backend, the verb prints what the endpoint returns.
	want, err := c.Run(bg, tame.ID, RunRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.Cmd(bg, tame.ID, "run"); err != nil || got.Err != "" || got.Output != want.Output {
		t.Errorf("cmd run = %+v, %v; want output %q", got, err, want.Output)
	}
	if got, err := c.Cmd(bg, tame.ID, "run 0"); err != nil || !strings.Contains(got.Err, "worker count") {
		t.Errorf("cmd run 0 = %+v, %v; want the usage error as a command-level failure", got, err)
	}

	// The request's context reaches the run: a second front over the same
	// manager, with a deadline an endless program outlives.
	hasty := httptest.NewServer(NewWith(m, Options{ReqTimeout: 200 * time.Millisecond, DisabledBackends: []string{"compile"}}))
	defer hasty.Close()
	loop, err := c.Open(bg, OpenRequest{Path: "loop.f", Source: loopSource})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range routes {
		start := time.Now()
		if resp := post(hasty.URL, loop.ID, r.route, r.body); resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("%s past the request deadline: %d, want 504", r.name, resp.StatusCode)
		}
		if waited := time.Since(start); waited > 5*time.Second {
			t.Errorf("%s kept its client waiting %s past a 200ms deadline", r.name, waited)
		}
		// The run died with its request: the actor answers again well
		// inside the 30s the governor would have let the program spin.
		ctx, cancel := context.WithTimeout(bg, 5*time.Second)
		if _, err := c.Cmd(ctx, loop.ID, "loops"); err != nil {
			t.Errorf("after %s's deadline the session's actor is still busy: %v", r.name, err)
		}
		cancel()
	}
}

// answers is everything a client can ask a session about its state.
type answers struct {
	Save, Deps, Vars, Unit, Hash string
	Loop                         int
	Typed                        DepsResponse
	Undo                         []string
}

func answersOf(t *testing.T, ss *Session) answers {
	t.Helper()
	a := answers{Save: mustCmd(t, ss, "save"), Deps: mustCmd(t, ss, "deps"), Vars: mustCmd(t, ss, "vars")}
	var err error
	if a.Typed, err = ss.Deps(bg, DepQuery{}); err != nil {
		t.Fatal(err)
	}
	if err := ss.post(bg, func() {
		a.Unit, a.Loop = ss.cursor()
		a.Hash = ss.currentHash()
		if ss.live != nil {
			a.Undo = ss.live.UndoStack()
		}
	}, false); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestReplayTakesLivePath drives a durable session through every entry
// point a state change can come in by — mutating, sticky and cursor cmd
// lines, typed select, classify, edit, delete, undo, transform,
// apply-plan by rank and by value — in a seeded order, with rejected
// operations among them (unknown statement, unknown unit, loop out of
// range, unknown and unsafe transformations, a plan whose step fails),
// across snapshot compactions and then past a sticky verb that ends
// them. A second manager's Recover and a third's Import of the exported
// stream must then answer exactly as the live session does.
func TestReplayTakesLivePath(t *testing.T) {
	for _, name := range []string{"arc3d", "direct"} {
		t.Run(name, func(t *testing.T) {
			w := workloads.ByName(name)
			shadow, err := w.Session()
			if err != nil {
				t.Fatal(err)
			}
			first := shadow.File.Units[0].Name
			last := shadow.File.Units[len(shadow.File.Units)-1].Name
			stmt, text := firstAssignIn(t, w, first)

			dir := t.TempDir()
			cfg := durableConfig(dir)
			cfg.SnapshotEvery = 3
			m1 := NewManager(cfg)
			defer m1.Shutdown()
			ss, open := mustOpen(t, m1, name)

			applied := 0
			line := func(l string) func() {
				return func() {
					if _, err := ss.Cmd(bg, l); err != nil {
						t.Fatalf("cmd %q: %v", l, err)
					}
				}
			}
			sel := func(req SelectRequest) func() { return func() { _, _ = ss.Select(bg, req) } }
			edit := func(req EditRequest) func() { return func() { _ = ss.Edit(bg, req) } }
			xform := func(req TransformRequest) func() {
				return func() {
					if _, err := ss.Transform(bg, req); err != nil {
						t.Fatalf("transform %+v: %v", req, err)
					}
				}
			}
			planAndApply := func() {
				if _, err := ss.Plan(bg, PlanRequest{NoInterp: true, MaxWorlds: 24}); err != nil {
					t.Fatalf("plan: %v", err)
				}
				if resp, err := ss.ApplyPlan(bg, ApplyPlanRequest{Index: 1}); err == nil {
					applied += resp.Applied
				}
			}
			plain := []func(){
				line("loop 1"), line("loop 2"), line("loop 99"), line("next"),
				line("unit " + last), line("unit nosuch"), line("unit " + first),
				line("apply parallelize 1"), line("apply interchange 1 2"), line("apply nosuch 1"),
				line("apply parallelize 99"), line("auto"), line("undo"),
				line(fmt.Sprintf("edit %d %s + 1.0", stmt, text)), line("edit 99999 x = 1.0"), line("delete 99999"),
				sel(SelectRequest{Loop: 1}), sel(SelectRequest{Unit: last, Loop: 2}), sel(SelectRequest{Loop: 99}),
				sel(SelectRequest{Unit: "nosuch"}), sel(SelectRequest{Unit: first}),
				edit(EditRequest{Stmt: stmt, Text: "      " + text + " * 2.0"}), edit(EditRequest{Stmt: 99999, Text: "x = 1.0"}),
				edit(EditRequest{Stmt: 99999, Delete: true}), edit(EditRequest{Stmt: stmt + 1, Delete: true}),
				func() { _ = ss.Undo(bg) }, func() { _ = ss.Undo(bg) },
				xform(TransformRequest{Name: "parallelize", Args: []string{"2"}}),
				xform(TransformRequest{Name: "parallelize", Args: []string{"1"}, CheckOnly: true}),
				xform(TransformRequest{Name: "reverse", Args: []string{"1"}}),
				planAndApply,
				func() {
					_, _ = ss.ApplyPlan(bg, ApplyPlanRequest{Plan: &planner.Plan{ID: "byvalue",
						Steps: []planner.Step{{Line: "apply serialize 1"}, {Line: "apply nosuch 1"}}}})
				},
			}
			sticky := []func(){
				line("mark 1 reject"), line("mark 9999 reject"), line("assert n .ge. 1"), line("set ranges off"),
				line("classify a private"), line("classify nosuch shared"),
				func() { _ = ss.Classify(bg, ClassifyRequest{Var: "a", Class: "Shared"}) },
				func() { _ = ss.Classify(bg, ClassifyRequest{Var: "nosuch", Class: "private"}) },
				func() { _ = ss.Classify(bg, ClassifyRequest{Var: "a", Class: "bogus"}) },
			}

			rng := rand.New(rand.NewSource(19))
			planAndApply() // on the pristine program, where a plan is certain
			for _, i := range rng.Perm(len(plain)) {
				plain[i]()
			}
			if n := m1.Metrics().JournalSnapshots.Value(); n == 0 {
				t.Fatal("no snapshot compaction in the first phase; the stream never crosses that boundary")
			}
			both := append(append([]func(){}, plain...), sticky...)
			for _, i := range rng.Perm(len(both)) {
				both[i]()
			}
			if applied == 0 {
				t.Fatal("no plan was ever applied; that entry point went untested")
			}
			if st := ss.StateName(); st != "active" || ss.ReadOnlyReason() != "" {
				t.Fatalf("the stream broke the live session: state %s, read-only %q", st, ss.ReadOnlyReason())
			}
			want := answersOf(t, ss)
			stream, err := ss.Export(bg)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d records after %d compaction(s), undo depth %d, cursor %s/%d, %d dependences in view",
				len(scanJournal(stream).records), m1.Metrics().JournalSnapshots.Value(), len(want.Undo), want.Unit, want.Loop, len(want.Typed.Deps))
			if len(want.Undo) == 0 || want.Save == w.Source {
				t.Fatalf("the stream left nothing to compare: undo depth %d", len(want.Undo))
			}
			m1.Shutdown()

			m2 := newTestManager(t, cfg)
			if st, err := m2.Recover(); err != nil || st.Recovered != 1 || st.ReadOnly != 0 || st.Quarantined != 0 {
				t.Fatalf("recover: %+v, %v; want one session, writable", st, err)
			}
			if got := answersOf(t, m2.Get(open.ID)); !reflect.DeepEqual(got, want) {
				t.Errorf("recovered session answers differently:\n got %+v\nwant %+v", got, want)
			}

			m3 := newTestManager(t, durableConfig(t.TempDir()))
			if _, err := m3.Import(bg, "adopted", stream); err != nil {
				t.Fatalf("import: %v", err)
			}
			if got := answersOf(t, m3.Get("adopted")); !reflect.DeepEqual(got, want) {
				t.Errorf("imported session answers differently:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
