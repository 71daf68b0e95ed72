package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"

	"parascope/bench/gen"
	"parascope/internal/core"
	"parascope/internal/fortran"
	"parascope/internal/server"
)

var bigEdit = &workload{
	name: "big_edit",
	why: "one user editing a generated ~230-unit program, cold opens and a 70/20/10 patch/unit/program edit stream " +
		"with undo: front end, analyses and core's reanalysis ladder do the work; the spine is noise",
	cycle:   1,
	prepare: prepareBig,
	session: bigSession,
}

// Edits per big_edit session, and how often one is undone. A tenth of
// the edits being undos keeps the slow mode (undo reanalyzes the whole
// program) well clear of the 99th percentile's edge.
const (
	bigEdits  = 20
	undoEvery = 10
)

// editSite is one statement the edit stream may re-type, with the text
// it toggles between and the reanalysis rung that edit must take.
type editSite struct {
	unit  string
	loop  int // loop to look at after the edit (ordinal in unit)
	id    int
	texts [2]string // texts[0] is what the generator wrote
	rung  string    // patch, unit or program
}

// bigProg is the big_edit input with its edit sites by rung.
type bigProg struct {
	prog  gen.Program
	want  string // reference output of the unedited program
	sites map[string][]editSite
	// unitLoops is the loop count of every compute unit, for drawing
	// transformation targets and loops to compare against scratch.
	units     []string
	unitLoops map[string]int
	// ops is the seed's edit stream. Every session of a run replays it,
	// on a freshly salted copy of the program: sessions are the same
	// work, so their times compare.
	ops []bigOp
}

func prepareBig(e *env) error {
	b := &bigProg{prog: gen.Generate(e.seed, gen.Big()), sites: map[string][]editSite{}, unitLoops: map[string]int{}}
	var err error
	if b.want, err = e.golden.reference(bigName(e.seed), b.prog.Source, nil); err != nil {
		return err
	}
	s, err := core.Open("big.f", b.prog.Source)
	if err != nil {
		return err
	}
	for _, u := range s.File.Units {
		if err := s.SelectUnit(u.Name); err != nil {
			return err
		}
		loops := s.Loops()
		b.unitLoops[u.Name] = len(loops)
		if u.Kind != fortran.UnitProgram && !strings.HasPrefix(u.Name, "h") {
			b.units = append(b.units, u.Name)
		}
		loopOf := func(st fortran.Stmt) int {
			at := 1 // statements outside any loop look at the unit's first loop
			for i, l := range loops {
				if l.Contains(st) {
					at = i + 1
				}
			}
			return at
		}
		fortran.WalkStmts(u.Body, func(st fortran.Stmt) bool {
			text := fortran.StmtText(st)
			site := editSite{unit: u.Name, loop: loopOf(st), id: st.ID(), texts: [2]string{text, ""}}
			switch x := st.(type) {
			case *fortran.CallStmt:
				// Swapping two actuals changes the caller's call surface.
				if u.Kind == fortran.UnitProgram {
					site.rung, site.texts[1] = "program", swapActuals(text)
				}
			case *fortran.AssignStmt:
				alt := bumpConstant(text)
				switch {
				case alt == text || x.Lhs.Name == "zsalt":
				case u.Kind == fortran.UnitProgram || x.Lhs.Name == "loc":
					// No caller can see the statement's variables.
					site.rung, site.texts[1] = "patch", alt
				case x.Lhs.Name == "x" || x.Lhs.Name == "y" || x.Lhs.Name == "w" || x.Lhs.Name == "t":
					// Touches caller-visible arrays without moving the
					// unit's summary: the unit is reanalyzed, nothing else.
					if !strings.HasPrefix(u.Name, "h") {
						site.rung, site.texts[1] = "unit", alt
					}
				}
			}
			if site.rung != "" {
				b.sites[site.rung] = append(b.sites[site.rung], site)
			}
			return true
		})
	}
	for _, rung := range []string{"patch", "unit", "program"} {
		if len(b.sites[rung]) == 0 {
			return fmt.Errorf("generated program has no %s-rung edit site", rung)
		}
	}
	b.ops = b.stream(rand.New(rand.NewSource(e.seed)))
	e.big = b
	return nil
}

var (
	callArgs = regexp.MustCompile(`\((\w+), (\w+),`)
	decimal  = regexp.MustCompile(`\b0\.\d+`)
)

// swapActuals exchanges the first two actual arguments of a call.
func swapActuals(text string) string { return callArgs.ReplaceAllString(text, "($2, $1,") }

// bumpConstant rewrites the first decimal constant of a statement to a
// different one; a statement without one comes back unchanged.
func bumpConstant(text string) string {
	loc := decimal.FindStringIndex(text)
	if loc == nil {
		return text
	}
	repl := "0.75"
	if text[loc[0]:loc[1]] == repl {
		repl = "0.625"
	}
	return text[:loc[0]] + repl + text[loc[1]:]
}

var reanalyzed = regexp.MustCompile(`\((patch|unit|program|full)\)`)

// bigOp is one step of the edit stream: re-type a statement, then maybe
// undo it, then maybe try transformations on some unit. It assumes the
// steps before it succeeded, which is also what a session requires.
type bigOp struct {
	site editSite
	text string
	undo bool
	// xformUnit, when set, is the unit whose loops check[0] and check[1]
	// are checked for parallelize and distribute after this edit.
	xformUnit string
	check     [2]int
}

// stream draws the edit stream. Whatever the seed it has the same
// make-up — 70% patch-rung, 20% unit-rung and 10% program-rung edits,
// every tenth edit undone, transformations after the first and third
// quarter — so it costs about the same; the seed picks the order and
// the statements.
func (b *bigProg) stream(rng *rand.Rand) []bigOp {
	rungs := make([]string, bigEdits)
	for e := range rungs {
		switch {
		case e < bigEdits/10:
			rungs[e] = "program"
		case e < 3*bigEdits/10:
			rungs[e] = "unit"
		default:
			rungs[e] = "patch"
		}
	}
	rng.Shuffle(len(rungs), func(i, j int) { rungs[i], rungs[j] = rungs[j], rungs[i] })
	variant := map[int]int{} // statement → which of its two texts it has
	ops := make([]bigOp, bigEdits)
	first := rng.Intn(len(b.units))
	for e, rung := range rungs {
		site := b.sites[rung][rng.Intn(len(b.sites[rung]))]
		next := 1 - variant[site.id]
		ops[e] = bigOp{site: site, text: site.texts[next], undo: (e+1)%undoEvery == 0}
		if !ops[e].undo {
			variant[site.id] = next
		}
		if e == bigEdits/4 || e == 3*bigEdits/4 {
			// Two different units: the second apply must find its loop
			// still sequential.
			unit := b.units[(first+e*len(b.units)/bigEdits)%len(b.units)]
			ops[e].xformUnit = unit
			ops[e].check = [2]int{1 + rng.Intn(b.unitLoops[unit]), 1 + rng.Intn(b.unitLoops[unit])}
		}
	}
	return ops
}

// bigSession is one editing session on a freshly salted copy of the big
// program: open it cold, run it, then the edit stream — after each edit
// look at the touched loop's dependences — and save. The saved text is
// then opened from scratch and sampled loops must list the same
// dependences in both sessions: incremental ≡ from scratch.
func bigSession(u *user, n int) {
	b := u.env.big
	cfg := gen.Big()
	cfg.Salt = salt(u.id, n)
	id, ok := u.open("big.f", gen.Generate(u.env.seed, cfg).Source, false)
	if !ok {
		return
	}
	defer u.closeSession(id)
	u.run(kRunInterp, id, server.RunRequest{Backend: "interp", Workers: 1}, b.want, true)

	touched := map[string]int{} // unit → a loop of it the session changed
	for _, op := range b.ops {
		u.selectLoop(id, op.site.unit, op.site.loop)
		if out, ok := u.cmd(kEdit, id, fmt.Sprintf("edit %d %s", op.site.id, op.text)); ok {
			touched[op.site.unit] = op.site.loop
			var err error
			if m := reanalyzed.FindStringSubmatch(out); m == nil || m[1] != op.site.rung {
				err = fmt.Errorf("edit of %s stmt %d reanalyzed as %q, want (%s)",
					op.site.unit, op.site.id, strings.TrimSpace(out), op.site.rung)
			}
			u.check("reanalysis rung", err)
		}
		u.deps(id, server.DepQuery{})
		if op.undo {
			u.act(kEdit, func() error { return u.c.Undo(u.ctx, id) })
		}
		if op.xformUnit != "" {
			u.selectLoop(id, op.xformUnit, 1)
			u.cmd(kTransform, id, fmt.Sprintf("check parallelize %d", op.check[0]))
			u.cmd(kTransform, id, fmt.Sprintf("check distribute %d", op.check[1]))
			// Loop 1 fills the unit's private scratch array: always safe.
			u.cmd(kTransform, id, "apply parallelize 1")
			touched[op.xformUnit] = 1
		}
	}

	saved, ok := u.cmd(kOther, id, "save")
	if !ok {
		return
	}
	fresh, ok := u.open("big.f", saved, false)
	if !ok {
		return
	}
	defer u.closeSession(fresh)
	units := make([]string, 0, len(touched))
	for unit := range touched {
		units = append(units, unit)
	}
	sort.Strings(units)
	for _, unit := range units[:min(3, len(units))] {
		var listing [2]string
		for i, sess := range []string{id, fresh} {
			u.selectLoop(sess, unit, touched[unit])
			if resp, ok := u.deps(sess, server.DepQuery{}); ok {
				listing[i] = depListing(resp)
			}
		}
		var err error
		if listing[0] != listing[1] {
			err = fmt.Errorf("%s loop %d: incremental lists\n%s\nfrom scratch lists\n%s",
				unit, touched[unit], listing[0], listing[1])
		}
		u.check("incremental ≡ scratch", err)
	}
}

// depListing renders a dependence listing in a canonical order without
// edge IDs and line numbers: the patch path renumbers edges by design,
// and an edited statement's line is local to the edit's text.
func depListing(resp server.DepsResponse) string {
	rows := make([]string, 0, len(resp.Deps))
	for _, d := range resp.Deps {
		rows = append(rows, fmt.Sprintf("%s %s %s l%d #%d->#%d %s %s private=%v",
			d.Class, d.Sym, d.Dir, d.Level, d.SrcStmt, d.DstStmt, d.Mark, d.Reason, d.Private))
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}
