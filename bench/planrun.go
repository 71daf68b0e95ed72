package main

import (
	"context"
	"fmt"
	"path/filepath"

	"parascope/bench/gen"
	"parascope/internal/codegen"
	"parascope/internal/fortran"
	"parascope/internal/server"
)

var planRun = &workload{
	name: "plan_run",
	why: "one user planning, applying the plan and running the result cold, warm and interpreted on never-seen " +
		"programs: planner, codegen, go build, spawn and interp do the work; the serving spine is noise",
	cycle:   4,
	prepare: preparePlanRun,
	session: planSession,
}

// planBudget pins the search budget (the planner's defaults, spelled
// out) with a wall-clock limit far beyond what a search needs, so no
// deadline ever decides how many worlds a search forks.
var planBudget = server.PlanRequest{BeamWidth: 4, MaxDepth: 4, MaxWorlds: 64, TimeoutMs: 60_000}

// midProg is one of the seed's mid-size generated programs.
type midProg struct {
	name string
	seed int64
	want string
}

// preparePlanRun loads the suite, derives the seed's mid-size programs
// with their reference outputs, and builds one throw-away program so
// the Go build cache holds the packages every generated program links.
func preparePlanRun(e *env) error {
	if err := prepareSuite(e, false); err != nil {
		return err
	}
	e.mid = nil
	for slot := 0; slot < midSlots; slot++ {
		m := &midProg{name: midName(e.seed, slot), seed: midSeed(e.seed, slot)}
		var err error
		if m.want, err = e.golden.reference(m.name, gen.Generate(m.seed, gen.Mid()).Source, nil); err != nil {
			return err
		}
		e.mid = append(e.mid, m)
	}
	f, err := fortran.Parse("warm.f", "      program warm\n      print *, 1\n      end\n")
	if err != nil {
		return err
	}
	_, err = codegen.Build(context.Background(), f, filepath.Join(e.dir, "warmcache"), nil)
	return err
}

// planSession is one session on a program no cache has seen: in turn
// the seed's three mid-size generated programs and spec77 of the suite,
// each freshly salted. Every cycle of four is the same
// work.
func planSession(u *user, n int) {
	e := u.env
	var path, source, want string
	if n%4 == 3 {
		p := e.suite[0]
		path, source, want = p.path, p.salted(salt(u.id, n)), p.want
	} else {
		m := e.mid[n%4]
		cfg := gen.Mid()
		cfg.Salt = salt(u.id, n)
		path, source, want = "mid.f", gen.Generate(m.seed, cfg).Source, m.want
	}
	id, ok := u.open(path, source, false)
	if !ok {
		return
	}
	defer u.closeSession(id)
	// Look at every loop before asking for a plan. Select and deps
	// outnumber the other reads, so the median read is one of them on
	// this workload as on the others.
	if out, ok := u.cmd(kRead, id, "loops"); ok {
		loops, _ := countLoops(out)
		for l := 1; l <= loops; l++ {
			u.selectLoop(id, "", l)
			u.deps(id, server.DepQuery{})
		}
	}
	u.cmd(kRead, id, "vars")

	plans := 0
	u.act(kPlan, func() error {
		resp, err := u.c.Plan(u.ctx, id, planBudget)
		if err != nil {
			return err
		}
		if resp.Status != "done" || resp.Cached {
			return fmt.Errorf("plan status %q cached=%v", resp.Status, resp.Cached)
		}
		plans = len(resp.Plans)
		return nil
	})
	if plans > 0 {
		u.act(kTransform, func() error {
			_, err := u.c.ApplyPlan(u.ctx, id, server.ApplyPlanRequest{Index: 1})
			return err
		})
	}
	compiled := server.RunRequest{Backend: "compile", Workers: 1}
	u.run(kRunCold, id, compiled, want, false)
	u.run(kRunWarm, id, compiled, want, false)
	compiled.Workers = 2
	u.run(kRunWarm, id, compiled, want, false)
	u.run(kRunInterp, id, server.RunRequest{Backend: "interp", Workers: 2}, want, false)
}
