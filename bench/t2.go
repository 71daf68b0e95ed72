package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"parascope/internal/server"
)

var t2Sessions = &workload{
	name: "t2_sessions",
	why: "the paper's t2 user sessions through gateway, daemon, actor and journal on 17-40 line programs: " +
		"analysis is tiny, so the serving spine does the work; mixed reads and writes",
	gateway: true,
	cycle:   9,
	prepare: prepareT2,
	session: t2Session,
}

// prepareT2 loads the suite and then runs every program's session once:
// that fills the analysis cache (so timed opens hit it) and builds each
// transformed program (so timed compiled runs are warm).
func prepareT2(e *env) error {
	if err := prepareSuite(e, true); err != nil {
		return err
	}
	// Two at a time: the builds are the cost, and the host has two cores.
	recs := []*recorder{newRecorder(), newRecorder()}
	var wg sync.WaitGroup
	for c, rec := range recs {
		wg.Add(1)
		go func(c int, rec *recorder) {
			defer wg.Done()
			u := e.newUser(c, rec)
			defer u.done()
			for i := c; i < len(e.suite); i += len(recs) {
				t2Run(u, e.suite[i], true)
			}
		}(c, rec)
	}
	wg.Wait()
	for _, rec := range recs {
		e.primed.merge(rec)
	}
	return nil
}

// t2Session replays the t2 script of one suite program. Programs come
// in seeded shuffles of all nine, so every nine consecutive sessions of
// a client cover the suite once.
func t2Session(u *user, n int) {
	suite := u.env.suite
	cycle := rand.New(rand.NewSource(u.env.seed*7919 + int64(u.id)*104729 + int64(n/len(suite))))
	t2Run(u, suite[cycle.Perm(len(suite))[n%len(suite)]], false)
}

// t2Run is one user session: look around, intervene as the program's
// t2 script does, parallelize, re-type a statement and undo it, run the
// result, save, leave. priming is the set-up pass, where the open
// misses the cache and the run builds.
func t2Run(u *user, p *suiteProg, priming bool) {
	id, ok := u.open(p.path, p.source, !priming)
	if !ok {
		return
	}
	defer u.closeSession(id)

	if out, ok := u.cmd(kRead, id, "loops"); ok {
		u.check("loops listing", equalText(out, p.loopsText))
	}
	u.selectLoop(id, "", 1)
	u.deps(id, server.DepQuery{})
	u.cmd(kRead, id, "deps carried")
	u.cmd(kRead, id, "vars")

	for _, line := range t2Steps[p.name] {
		switch {
		case strings.HasPrefix(line, "reject "):
			u.rejectPending(id, strings.TrimPrefix(line, "reject "))
		case strings.HasPrefix(line, "apply "):
			u.cmd(kTransform, id, line)
		case strings.HasPrefix(line, "loop "):
			u.cmd(kRead, id, line)
		default:
			u.cmd(kOther, id, line)
		}
	}
	u.cmd(kTransform, id, "auto")
	if out, ok := u.cmd(kRead, id, "loops"); ok {
		_, got := countLoops(out)
		var err error
		if got != t2Parallel[p.name] {
			err = fmt.Errorf("%s: %d loops parallel, the t2 table says %d", p.name, got, t2Parallel[p.name])
		}
		u.check("loops parallelized", err)
	}
	u.selectLoop(id, "", 1)
	u.deps(id, server.DepQuery{Carried: true})

	before, _ := u.cmd(kOther, id, "save")
	u.act(kEdit, func() error {
		return u.c.Edit(u.ctx, id, server.EditRequest{Stmt: p.editID, Text: p.editText})
	})
	u.act(kEdit, func() error { return u.c.Undo(u.ctx, id) })
	if after, ok := u.cmd(kOther, id, "save"); ok {
		u.check("save after edit+undo", equalText(after, before))
	}

	kind := kRunWarm
	if priming {
		kind = kRunCold
	}
	u.run(kind, id, server.RunRequest{Backend: "compile", Workers: 2}, p.want, false)
}

// rejectPending reads the selected loop's carried dependences on sym
// and marks every pending one rejected — the user asserting what the
// analyzer cannot know (onedim's index array is a permutation).
func (u *user) rejectPending(id, sym string) {
	resp, ok := u.deps(id, server.DepQuery{Carried: true, Sym: sym})
	if !ok {
		return
	}
	for _, d := range resp.Deps {
		if d.Mark == "pending" {
			u.cmd(kOther, id, fmt.Sprintf("mark %d reject", d.ID))
		}
	}
}

func equalText(got, want string) error {
	if got != want {
		return fmt.Errorf("got %q, want %q", got, want)
	}
	return nil
}
