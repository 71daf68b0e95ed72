package main

import (
	"fmt"
	"math/rand"

	"parascope/internal/server"
)

var browseReads = &workload{
	name: "browse_reads",
	why: "read-only sessions straight at pedd, every open a cache hit, never materialised: t2_sessions' serving " +
		"layers without writes, reanalysis or gateway; the control for write-path changes",
	cycle:   9,
	prepare: prepareBrowse,
	session: browseSession,
}

// prepareBrowse loads the suite and opens every program once so the
// analysis cache holds its artifacts.
func prepareBrowse(e *env) error {
	if err := prepareSuite(e, false); err != nil {
		return err
	}
	u := e.newUser(0, e.primed)
	defer u.done()
	for _, p := range e.suite {
		if id, ok := u.open(p.path, p.source, false); ok {
			u.closeSession(id)
		}
	}
	return nil
}

// browseFilters are the three dependence-pane filters a browsing user
// flips through.
var browseFilters = []server.DepQuery{
	{},
	{Carried: true},
	{HideRejected: true, HidePrivate: true},
}

// browseSession looks at everything and changes nothing: the loop
// list, every loop's dependences under three filters, the variable
// pane, the source. The session must still be artifact-backed at the
// end — a read that materialised it would be a regression.
func browseSession(u *user, n int) {
	suite := u.env.suite
	cycle := rand.New(rand.NewSource(u.env.seed*7919 + int64(u.id)*104729 + int64(n/len(suite))))
	p := suite[cycle.Perm(len(suite))[n%len(suite)]]

	id, ok := u.open(p.path, p.source, true)
	if !ok {
		return
	}
	defer u.closeSession(id)
	if out, ok := u.cmd(kRead, id, "loops"); ok {
		u.check("loops listing", equalText(out, p.loopsText))
	}
	for l := 1; l <= p.loops; l++ {
		u.selectLoop(id, "", l)
		for _, q := range browseFilters {
			if resp, ok := u.deps(id, q); ok && resp.Loop != l {
				u.check("deps", fmt.Errorf("deps answered for loop %d, selected %d", resp.Loop, l))
			}
		}
	}
	u.cmd(kRead, id, "vars")
	// `save` stands in for the source pane: `source` is not served from
	// artifacts and would materialise the session.
	u.cmd(kRead, id, "save")
	u.act(kOther, func() error {
		st, err := u.c.Status(u.ctx, id)
		if err != nil {
			return err
		}
		if st.Live || st.Mutated {
			return fmt.Errorf("%s: read-only session was materialised (live=%v mutated=%v)", p.name, st.Live, st.Mutated)
		}
		return nil
	})
}
