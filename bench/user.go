package main

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"parascope/internal/interp"
	"parascope/internal/server"
)

// Action kinds. Every client call a session makes is one action of one
// kind; "action" metrics pool all of them, the per-kind metrics split
// them the way a user would name what they were waiting for.
const (
	kOpen      = "open"       // open a session
	kRead      = "read"       // loops, select, deps, vars
	kEdit      = "edit"       // edit, undo — includes reanalysis and the journal
	kTransform = "transform"  // check, apply, auto, apply-plan
	kPlan      = "plan"       // plan request until ranked plans come back
	kRunCold   = "run_cold"   // first compiled run of an unbuilt program
	kRunWarm   = "run_warm"   // compiled run on a build-cache hit
	kRunInterp = "run_interp" // interpreted run
	kOther     = "other"      // save, status, assert, mark, close
)

// relTol is the tolerance for outputs of transformed or parallel runs:
// the planner's own bar for "same output" (parallel reductions reorder
// floating-point sums, which moves the last digits).
const relTol = 1e-6

// recorder accumulates one client's results; merged after the window.
type recorder struct {
	samples   map[string][]float64 // kind → latencies in ms, successful actions only
	attempted int
	failed    int
	sessions  int // sessions in which every operation was right
	errs      []string
}

func newRecorder() *recorder { return &recorder{samples: map[string][]float64{}} }

func (r *recorder) merge(o *recorder) {
	for k, v := range o.samples {
		r.samples[k] = append(r.samples[k], v...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.sessions += o.sessions
	r.errs = append(r.errs, o.errs...)
}

// tally adds o's operation counts and failures but not its latencies:
// set-up's and the warm-up's operations are checked, not timed.
func (r *recorder) tally(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
}

// all pools every kind.
func (r *recorder) all() []float64 {
	var out []float64
	for _, v := range r.samples {
		out = append(out, v...)
	}
	return out
}

// user is one closed-loop client: it sends its next request only after
// the previous one returned.
type user struct {
	id  int
	env *env
	c   *server.Client
	tap *idTap
	rec *recorder
	ctx context.Context
	bad bool // the current session had a failed or wrong operation
}

func (u *user) done() {
	if t, ok := u.tap.base.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// act times one client call. fn makes the call and checks the answer; a
// call that fails, is refused or answers wrongly counts as failed and
// contributes no latency.
func (u *user) act(kind string, fn func() error) bool {
	u.rec.attempted++
	start := time.Now()
	err := fn()
	end := time.Now()
	u.env.tr.add(kind, u.tap.last, start, end)
	if err != nil {
		u.fail(kind, err)
		return false
	}
	u.rec.samples[kind] = append(u.rec.samples[kind], ms(end.Sub(start)))
	return true
}

// check counts a verification that is not itself a client call.
func (u *user) check(what string, err error) bool {
	u.rec.attempted++
	if err != nil {
		u.fail(what, err)
		return false
	}
	return true
}

func (u *user) fail(what string, err error) {
	u.rec.failed++
	u.bad = true
	if len(u.rec.errs) < 5 {
		u.rec.errs = append(u.rec.errs, fmt.Sprintf("client %d: %s: %v", u.id, what, err))
	}
}

// endSession closes the books on one session.
func (u *user) endSession() {
	if !u.bad {
		u.rec.sessions++
	}
	u.bad = false
}

// open opens a session over source text and checks whether it was
// served from the analysis cache as the workload intends.
func (u *user) open(path, source string, wantCached bool) (id string, ok bool) {
	ok = u.act(kOpen, func() error {
		resp, err := u.c.Open(u.ctx, server.OpenRequest{Path: path, Source: source})
		if err != nil {
			return err
		}
		id = resp.ID
		if resp.Cached != wantCached {
			return fmt.Errorf("open %s: cached=%v, want %v", path, resp.Cached, wantCached)
		}
		return nil
	})
	return id, ok
}

// cmd runs one REPL line; a command-level error is a failure.
func (u *user) cmd(kind, id, line string) (out string, ok bool) {
	ok = u.act(kind, func() error {
		resp, err := u.c.Cmd(u.ctx, id, line)
		if err != nil {
			return err
		}
		if resp.Err != "" {
			return fmt.Errorf("%q: %s", line, resp.Err)
		}
		out = resp.Output
		return nil
	})
	return out, ok
}

func (u *user) selectLoop(id, unit string, loop int) bool {
	return u.act(kRead, func() error {
		resp, err := u.c.Select(u.ctx, id, server.SelectRequest{Unit: unit, Loop: loop})
		if err != nil {
			return err
		}
		if resp.Loop != loop || (unit != "" && resp.Unit != unit) {
			return fmt.Errorf("select %s/%d answered %s/%d", unit, loop, resp.Unit, resp.Loop)
		}
		return nil
	})
}

func (u *user) deps(id string, q server.DepQuery) (resp server.DepsResponse, ok bool) {
	ok = u.act(kRead, func() (err error) {
		resp, err = u.c.Deps(u.ctx, id, q)
		return err
	})
	return resp, ok
}

// run executes the session's program and compares what it printed with
// want: byte for byte when exact, within relTol otherwise.
func (u *user) run(kind, id string, req server.RunRequest, want string, exact bool) bool {
	return u.act(kind, func() error {
		resp, err := u.c.Run(u.ctx, id, req)
		if err != nil {
			return err
		}
		if resp.Backend != req.Backend {
			return fmt.Errorf("ran on %q, asked for %q (%s)", resp.Backend, req.Backend, resp.Fallback)
		}
		return sameOutput(resp.Output, want, exact)
	})
}

func sameOutput(got, want string, exact bool) error {
	if exact {
		if got != want {
			return fmt.Errorf("output %q, want %q", got, want)
		}
		return nil
	}
	if ok, why := interp.OutputsEquivalent(got, want, relTol); !ok {
		return fmt.Errorf("output differs from the reference: %s", why)
	}
	return nil
}

func (u *user) closeSession(id string) bool {
	return u.act(kOther, func() error { return u.c.CloseSession(u.ctx, id) })
}

// countLoops reads a `loops` listing: how many loops it has and how
// many of them it marks parallel. A row is "<n> [P] depth <d> line
// <l>: ...".
func countLoops(listing string) (loops, parallel int) {
	for _, ln := range strings.Split(listing, "\n") {
		f := strings.Fields(ln)
		if len(f) < 2 {
			continue
		}
		if _, err := strconv.Atoi(f[0]); err != nil {
			continue
		}
		loops++
		if f[1] == "P" {
			parallel++
		}
	}
	return loops, parallel
}
