package planner

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestParseArgs: the one parser of the `plan` verb's arguments takes
// every option, in either host's previous spelling — the REPL's help
// named compiled but not async, the daemon's the reverse — and rejects
// the rest with one set of errors.
func TestParseArgs(t *testing.T) {
	for _, tc := range []struct {
		args  string
		want  Options
		async bool
		err   string
	}{
		{args: "", want: Options{Interp: true}},
		{args: "beam=3", want: Options{Interp: true, BeamWidth: 3}},
		{args: "depth=2", want: Options{Interp: true, MaxDepth: 2}},
		{args: "worlds=24", want: Options{Interp: true, MaxWorlds: 24}},
		{args: "ms=1500", want: Options{Interp: true, Timeout: 1500 * time.Millisecond}},
		{args: "top=5", want: Options{Interp: true, TopPlans: 5}},
		{args: "nointerp", want: Options{}},
		{args: "compiled", want: Options{Interp: true, Compiled: true}},
		{args: "async", want: Options{Interp: true}, async: true},
		{args: "nointerp worlds=8 ms=2000", want: Options{MaxWorlds: 8, Timeout: 2 * time.Second}},
		{args: "beam=2 depth=3 worlds=40 ms=10 top=1 nointerp compiled async",
			want:  Options{BeamWidth: 2, MaxDepth: 3, MaxWorlds: 40, Timeout: 10 * time.Millisecond, TopPlans: 1, Compiled: true},
			async: true},
		{args: "async compiled top=1", want: Options{Interp: true, Compiled: true, TopPlans: 1}, async: true},
		{args: "beam", err: `bad plan option "beam"`},
		{args: "beam=", err: `bad plan option "beam="`},
		{args: "beam=x", err: `bad plan option "beam=x"`},
		{args: "beam=0", err: `bad plan option "beam=0"`},
		{args: "worlds=-4", err: `bad plan option "worlds=-4"`},
		{args: "sync", err: `bad plan option "sync"`},
		{args: "width=3", err: `unknown plan option "width"`},
		{args: "beam=3 frobnicate=1", err: `unknown plan option "frobnicate"`},
	} {
		got, async, err := ParseArgs(strings.Fields(tc.args))
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("ParseArgs(%q): error %v, want one naming %s", tc.args, err, tc.err)
			}
			continue
		}
		if err != nil || async != tc.async || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseArgs(%q) = %+v, async %v, %v; want %+v, async %v", tc.args, got, async, err, tc.want, tc.async)
		}
	}
}

// TestReplayWalksTheHashChain: the three ways accepting a plan stops —
// a stale base before any step runs, a step that fails, a step that
// leaves the program somewhere the search did not — and the way it
// does not. The host supplies the hash and the step; here both are a
// string that every step appends to.
func TestReplayWalksTheHashChain(t *testing.T) {
	plan := Plan{ID: "p1", BaseHash: "", Steps: []Step{{Line: "a", Hash: "a"}, {Line: "b", Hash: "ab"}, {Line: "c"}}}
	for _, tc := range []struct {
		name, base, failAt, wantRan, err string
		tweak                            func(*Plan)
		conflict                         bool
	}{
		{name: "converges", wantRan: "abc"},
		{name: "no base hash recorded, any base", base: "x", tweak: func(p *Plan) { p.Steps = p.Steps[2:] }, wantRan: "xc"},
		{name: "stale base", base: "x", tweak: func(p *Plan) { p.BaseHash = "y" }, wantRan: "x",
			err: "stale plan p1: program changed since the plan was computed", conflict: true},
		{name: "failing step", failAt: "b", wantRan: "a", err: `plan p1 step 2 ("b"): step b refused`},
		{name: "diverged post-hash", tweak: func(p *Plan) { p.Steps[0].Hash = "z" }, wantRan: "a",
			err: `plan p1 diverged after step 1 ("a"); undo to roll back`, conflict: true},
	} {
		p := plan
		p.Steps = append([]Step{}, plan.Steps...)
		if tc.tweak != nil {
			tc.tweak(&p)
		}
		refused := errors.New("step " + tc.failAt + " refused")
		state := tc.base
		err := p.Replay(func() string { return state }, func(line string) error {
			if line == tc.failAt {
				return refused
			}
			state += line
			return nil
		})
		if state != tc.wantRan {
			t.Errorf("%s: the program reads %q after the walk, want %q", tc.name, state, tc.wantRan)
		}
		if tc.err == "" {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.err) || errors.Is(err, ErrConflict) != tc.conflict {
			t.Errorf("%s: error %v (conflict %v); want %q, conflict %v", tc.name, err, errors.Is(err, ErrConflict), tc.err, tc.conflict)
		}
		if tc.failAt != "" && !errors.Is(err, refused) {
			t.Errorf("%s: the step's own error is not in the chain of %v", tc.name, err)
		}
	}
}
