// Package planner implements speculative transformation search: the
// auto-parallelizing service built on top of the interactive editor.
// A live session is forked into many cheap speculative "worlds" —
// each world is an independent core.Session reparsed from the
// parent's printed source, so worlds share nothing mutable with the
// parent (print→parse fidelity makes the fork exact) — and candidate
// transformation sequences (interchange, skew, reductions, fuse,
// parallelize) are applied in the worlds concurrently under a bounded
// search budget: beam width, maximum depth, a total world-fork
// budget, and a wall-clock deadline. Worlds are scored by the static
// performance estimator's parallel-aware cost model, finalists are
// optionally validated and timed under the parallel interpreter, and
// the result is a ranked set of plans: the step sequence, a source
// diff, per-world estimated speedups, and the per-dependence
// decisions each plan assumes.
//
// A panicking world is recovered at the world boundary and discarded;
// the search, the sibling worlds, and the parent session are never
// affected. Accepting a plan is the caller's job: the step lines are
// replayed through the normal (journaled) mutation path, so
// durability, undo, and crash recovery hold for planned changes
// exactly as for hand-typed ones.
package planner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"parascope/internal/core"
	"parascope/internal/execguard"
	"parascope/internal/faultpoint"
	"parascope/internal/interp"
	"parascope/internal/perf"
	"parascope/internal/workloads"
	"parascope/internal/xform"
)

// Search budget defaults.
const (
	DefaultBeamWidth = 4
	DefaultMaxDepth  = 4
	DefaultMaxWorlds = 64
	DefaultTopPlans  = 5
	DefaultTimeout   = 10 * time.Second
	// maxHotLoops bounds how many of a world's hottest sequential
	// loops spawn candidates, keeping the branching factor flat even
	// on loop-heavy units.
	maxHotLoops = 3
)

// Options bounds one speculative search.
type Options struct {
	// BeamWidth is how many worlds survive each depth level.
	BeamWidth int
	// MaxDepth is the maximum number of transformation steps per plan.
	MaxDepth int
	// MaxWorlds is the total world-fork budget for the whole search.
	MaxWorlds int
	// Workers bounds concurrent world evaluations (0 = GOMAXPROCS).
	Workers int
	// Timeout is the wall-clock budget; expiry returns the plans found
	// so far (0 = DefaultTimeout, negative = none beyond ctx).
	Timeout time.Duration
	// TopPlans caps the ranked plans returned.
	TopPlans int
	// Interp validates each finalist under the parallel interpreter
	// (outputs must match the base program) and adds an interpreted
	// speedup to its score.
	Interp bool
	// Input supplies READ data for interpreted runs; when nil the
	// workload suite is consulted by source path.
	Input []float64
	// Compiled additionally times interp-validated finalists as
	// native binaries through the pedc backend, recording real
	// wall-clock speedups next to the simulated ones. Programs the
	// code generator declines simply skip the measurement.
	Compiled bool
	// CompileCache overrides the pedc build cache directory (tests);
	// empty means the per-user default.
	CompileCache string
	// Gov supervises every validation and scoring run, as it does a
	// user's run (slots, wall timeout, output caps; for compiled runs
	// build timeout and group kill); nil means default limits.
	Gov *execguard.Governor
}

func (o Options) withDefaults() Options {
	if o.BeamWidth <= 0 {
		o.BeamWidth = DefaultBeamWidth
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = DefaultMaxDepth
	}
	if o.MaxWorlds <= 0 {
		o.MaxWorlds = DefaultMaxWorlds
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Timeout == 0 {
		o.Timeout = DefaultTimeout
	}
	if o.TopPlans <= 0 {
		o.TopPlans = DefaultTopPlans
	}
	return o
}

// Step is one replayable plan step: a REPL command line plus the
// power-steering verdict the world saw and the source hash after the
// step — the integrity chain apply-time verification walks.
type Step struct {
	Line    string `json:"line"`
	Verdict string `json:"verdict,omitempty"`
	Hash    string `json:"hash"`
}

// Decision records one carried dependence a plan's parallel loop
// assumes away, and on what basis — the per-dependence audit trail
// the power-steering paradigm owes the user even when a machine
// proposed the plan.
type Decision struct {
	Loop  string `json:"loop"`
	Var   string `json:"var"`
	Basis string `json:"basis"`
	// Detail describes the first collapsed dependence edge; Edges
	// counts how many edges this decision covers.
	Detail string `json:"detail,omitempty"`
	Edges  int    `json:"edges,omitempty"`
}

// Plan is one ranked speculative result.
type Plan struct {
	// ID is the content hash (prefix) of the plan's final source.
	ID   string `json:"id"`
	Rank int    `json:"rank"`
	// EstSpeedup is base estimated time over this world's estimated
	// time (parallel-aware static cost model).
	EstSpeedup float64 `json:"est_speedup"`
	// SimSpeedup is the interpreted speedup (0 when not interpreted).
	SimSpeedup float64 `json:"sim_speedup,omitempty"`
	// CompiledSpeedup is the real wall-clock speedup measured by
	// compiling base and plan with the pedc backend (0 when not
	// requested, or when the code generator declined the program).
	CompiledSpeedup float64 `json:"compiled_speedup,omitempty"`
	// Score ranks plans: the mean of the estimated and interpreted
	// speedups when both exist, the estimate alone otherwise.
	Score float64 `json:"score"`
	// Parallelized counts parallel loops in the plan's unit.
	Parallelized int `json:"parallelized"`
	// BaseHash is the parent source hash the plan was searched from;
	// apply must refuse when the parent has moved on (stale plan).
	BaseHash  string     `json:"base_hash"`
	Steps     []Step     `json:"steps"`
	Decisions []Decision `json:"decisions,omitempty"`
	Diff      string     `json:"diff,omitempty"`
	// Source is the plan's final printed source (not serialized —
	// applying replays the steps instead of pasting text).
	Source string `json:"-"`
}

// ErrConflict marks a plan that cannot be (or keep being) applied: the
// program moved past the plan's base hash, or a step left it somewhere
// the search did not.
var ErrConflict = errors.New("plan conflict")

// Replay accepts the plan: it walks the hash chain the search recorded,
// running each step line through step — the host's own way of executing
// one command — and reading the program's hash through hash. A stale
// base or a diverged step is an ErrConflict; a step that fails stops
// the walk with its error. The steps already run stay run: they are
// ordinary commands, and undo rolls them back.
func (p *Plan) Replay(hash func() string, step func(line string) error) error {
	if p.BaseHash != "" && hash() != p.BaseHash {
		return fmt.Errorf("%w: stale plan %s: program changed since the plan was computed", ErrConflict, p.ID)
	}
	for i, st := range p.Steps {
		if err := step(st.Line); err != nil {
			return fmt.Errorf("plan %s step %d (%q): %w", p.ID, i+1, st.Line, err)
		}
		if st.Hash != "" && hash() != st.Hash {
			return fmt.Errorf("%w: plan %s diverged after step %d (%q); undo to roll back", ErrConflict, p.ID, i+1, st.Line)
		}
	}
	return nil
}

// ParseArgs parses the arguments of the `plan` verb:
//
//	plan [beam=N depth=N worlds=N ms=N top=N nointerp compiled async]
//
// in any order. async asks a host that can search in the background to
// answer at once; the other hosts search as they always do.
func ParseArgs(args []string) (opts Options, async bool, err error) {
	opts.Interp = true
	for _, a := range args {
		switch a {
		case "nointerp":
			opts.Interp = false
			continue
		case "compiled":
			opts.Compiled = true
			continue
		case "async":
			async = true
			continue
		}
		k, v, _ := strings.Cut(a, "=")
		n, convErr := strconv.Atoi(v)
		if convErr != nil || n <= 0 {
			return opts, false, fmt.Errorf("bad plan option %q (want beam=N depth=N worlds=N ms=N top=N nointerp compiled async)", a)
		}
		switch k {
		case "beam":
			opts.BeamWidth = n
		case "depth":
			opts.MaxDepth = n
		case "worlds":
			opts.MaxWorlds = n
		case "ms":
			opts.Timeout = execguard.Millis(n)
		case "top":
			opts.TopPlans = n
		default:
			return opts, false, fmt.Errorf("unknown plan option %q", k)
		}
	}
	return opts, async, nil
}

// Result is the outcome of one search.
type Result struct {
	Unit            string        `json:"unit"`
	BaseHash        string        `json:"base_hash"`
	WorldsForked    int           `json:"worlds_forked"`
	WorldsScored    int           `json:"worlds_scored"`
	WorldsDiscarded int           `json:"worlds_discarded"`
	Elapsed         time.Duration `json:"-"`
	Plans           []Plan        `json:"plans"`
}

// Observer receives world lifecycle events; implementations must be
// concurrency-safe (worlds are evaluated in parallel). The server
// feeds its metrics registry through this.
type Observer interface {
	WorldForked()
	WorldScored()
	WorldDiscarded()
	// WorldsLive is called with +1 when a world starts evaluating and
	// -1 when it finishes (scored or discarded).
	WorldsLive(delta int)
}

type nopObserver struct{}

func (nopObserver) WorldForked()     {}
func (nopObserver) WorldScored()     {}
func (nopObserver) WorldDiscarded()  {}
func (nopObserver) WorldsLive(δ int) {}

// SrcHash fingerprints a printed source — the same sha256 hex the
// daemon's journal integrity chain uses, so planner base hashes
// compare directly against session hashes.
func SrcHash(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:])
}

// world is one speculative copy of the program. Worlds are immutable
// after evaluation: the beam and the finalist set only ever read
// them, and children fork from the parent's printed source rather
// than sharing its AST.
type world struct {
	sess  *core.Session
	src   string // printed source (fork point for children)
	hash  string
	steps []Step
	cost  float64 // parallel-aware estimated time of the unit
	par   int     // parallel loops in the unit
	// simSpeedup is filled for finalists when interpretation is on.
	simSpeedup float64
	// compiledSpeedup is the real wall-clock speedup of the compiled
	// plan over the compiled base (0 when not measured).
	compiledSpeedup float64
}

type searcher struct {
	path, unit string
	opts       Options
	obs        Observer
	params     perf.Params

	mu        sync.Mutex
	forked    int
	scored    int
	discarded int
}

// Search forks speculative worlds from the printed source and beam-
// searches transformation sequences for the named unit ("" = the
// session's default unit). It returns the ranked plans found within
// the budget; deadline expiry returns partial results, not an error.
func Search(ctx context.Context, path, source, unit string, opts Options, obs Observer) (*Result, error) {
	opts = opts.withDefaults()
	if obs == nil {
		obs = nopObserver{}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	start := time.Now()
	s := &searcher{path: path, unit: unit, opts: opts, obs: obs, params: perf.DefaultParams()}

	base, err := s.openWorld(source, nil)
	if err != nil {
		return nil, fmt.Errorf("plan: fork base world: %v", err)
	}
	if unit == "" {
		s.unit = base.sess.CurrentUnit().Name
	}
	res := &Result{Unit: s.unit, BaseHash: base.hash}

	seen := map[string]bool{base.hash: true}
	var finals []*world
	beam := []*world{base}
	for depth := 0; depth < opts.MaxDepth && len(beam) > 0 && ctx.Err() == nil; depth++ {
		type job struct {
			parent *world
			line   string
		}
		var jobs []job
		for _, w := range beam {
			for _, line := range s.candidates(w) {
				jobs = append(jobs, job{w, line})
			}
		}
		// What is left of the fork budget goes to this level's first
		// candidates, so the worlds a tight budget drops do not depend
		// on which goroutine ran first.
		if left := s.forkBudgetLeft(); len(jobs) > left {
			jobs = jobs[:left]
		}
		if len(jobs) == 0 {
			break
		}
		// Evaluate this level's candidates concurrently on a bounded
		// pool. Each evaluation forks, applies, and scores one world;
		// a panic anywhere inside is confined to that world.
		children := make([]*world, len(jobs))
		fanOut(len(jobs), opts.Workers, func(i int) {
			if ctx.Err() != nil || !s.takeForkBudget() {
				return
			}
			w, err := s.eval(jobs[i].parent, jobs[i].line)
			if err != nil {
				s.noteDiscard()
				return
			}
			children[i] = w
		})

		// Collect distinct new worlds; every improving world is a plan
		// candidate (not just the final beam — a shallow plan the user
		// can audit beats a deep one they cannot).
		var next []*world
		for _, c := range children {
			if c == nil {
				continue
			}
			if seen[c.hash] {
				s.noteDiscard() // transformation cycle or convergent sequence
				continue
			}
			seen[c.hash] = true
			next = append(next, c)
			if c.cost < base.cost {
				finals = append(finals, c)
			}
		}
		sort.SliceStable(next, func(i, j int) bool { return next[i].cost < next[j].cost })
		if len(next) > opts.BeamWidth {
			next = next[:opts.BeamWidth]
		}
		beam = next
	}

	res.Plans = s.rankPlans(ctx, base, finals)
	s.mu.Lock()
	res.WorldsForked, res.WorldsScored, res.WorldsDiscarded = s.forked, s.scored, s.discarded
	s.mu.Unlock()
	res.Elapsed = time.Since(start)
	return res, nil
}

// fanOut calls fn(0) … fn(n-1) on at most workers goroutines at a
// time and returns when all have.
func fanOut(n, workers int, fn func(i int)) {
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

func (s *searcher) forkBudgetLeft() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opts.MaxWorlds - s.forked
}

func (s *searcher) takeForkBudget() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.forked >= s.opts.MaxWorlds {
		return false
	}
	s.forked++
	return true
}

func (s *searcher) noteDiscard() {
	s.mu.Lock()
	s.discarded++
	s.mu.Unlock()
	s.obs.WorldDiscarded()
}

// openWorld parses source into a fresh single-threaded session
// positioned on the search unit. Worlds run their per-unit analysis
// pool at width 1: the planner's parallelism is across worlds.
func (s *searcher) openWorld(source string, steps []Step) (*world, error) {
	sess, err := core.OpenWorkers(s.path, source, 1)
	if err != nil {
		return nil, err
	}
	if s.unit != "" {
		if err := sess.SelectUnit(s.unit); err != nil {
			return nil, err
		}
	}
	// Canonicalize to the printed form: the hash chain must match what
	// Save() (and therefore the daemon's journal integrity chain)
	// computes, which for raw user text can differ in formatting.
	w := &world{sess: sess, src: sess.Save(), hash: sess.SourceHash(), steps: steps}
	s.score(w)
	return w, nil
}

// eval forks one child world from parent and applies one step.
// Everything — the reparse, the transformation, the reanalysis, the
// scoring — runs behind a recover: an armed faultpoint or a genuine
// bug panics this world only, and the caller counts it discarded.
func (s *searcher) eval(parent *world, line string) (w *world, err error) {
	defer func() {
		if r := recover(); r != nil {
			w, err = nil, fmt.Errorf("world panicked: %v", r)
		}
	}()
	if err := faultpoint.Hit(faultpoint.PlanFork, line); err != nil {
		return nil, err
	}
	s.obs.WorldForked()
	s.obs.WorldsLive(1)
	defer s.obs.WorldsLive(-1)

	sess, err := core.OpenWorkers(s.path, parent.src, 1)
	if err != nil {
		return nil, err
	}
	if s.unit != "" {
		if err := sess.SelectUnit(s.unit); err != nil {
			return nil, err
		}
	}
	verdict, err := applyStepLine(sess, line)
	if err != nil {
		return nil, err
	}
	if err := faultpoint.Hit(faultpoint.PlanScore, line); err != nil {
		return nil, err
	}
	hash := sess.SourceHash()
	w = &world{
		sess: sess,
		src:  sess.Save(),
		hash: hash,
		steps: append(append([]Step{}, parent.steps...),
			Step{Line: line, Verdict: verdict, Hash: hash}),
	}
	s.score(w)
	s.mu.Lock()
	s.scored++
	s.mu.Unlock()
	s.obs.WorldScored()
	return w, nil
}

// applyStepLine executes one "apply <xform> <args>" plan step against
// a world session through the same grammar the REPL and journal
// replay use.
func applyStepLine(sess *core.Session, line string) (string, error) {
	f := strings.Fields(line)
	if len(f) < 2 || f[0] != "apply" {
		return "", fmt.Errorf("bad plan step %q", line)
	}
	t, err := core.ParseTransformation(sess, f[1:])
	if err != nil {
		return "", err
	}
	v, err := sess.Transform(t)
	if err != nil {
		return "", err
	}
	return v.String(), nil
}

// score computes the world's parallel-aware estimated time and its
// parallel-loop count.
func (s *searcher) score(w *world) {
	st := w.sess.State()
	e := perf.New(w.sess.File, s.params)
	w.cost = e.ParallelTime(st.DF, st.Unit.Body)
	for _, l := range w.sess.Loops() {
		if l.Do.Parallel {
			w.par++
		}
	}
}

// run is one validation or scoring run's outcome.
type run struct {
	core.ExecResult
	err error
}

// exec runs one world's program the way a user's `run` does —
// core.Session.Exec: under the search's context, on the governor's
// slots, inside its wall and output limits. Like eval it recovers at
// the world boundary: a panic is that run's error.
func (s *searcher) exec(ctx context.Context, w *world, backend string, input []float64) (r run) {
	defer func() {
		if p := recover(); p != nil {
			r = run{err: fmt.Errorf("validation panicked: %v", p)}
		}
	}()
	if backend == core.BackendInterp {
		if err := faultpoint.Hit(faultpoint.PlanValidate, w.hash); err != nil {
			return run{err: err}
		}
	}
	r.ExecResult, r.err = w.sess.Exec(ctx, core.ExecRequest{Backend: backend, Workers: perf.DefaultParams().Procs,
		Input: input, CacheDir: s.opts.CompileCache, Gov: s.opts.Gov})
	return r
}

// outputsMatch compares two runs' PRINT output up to reduction-order
// rounding.
func outputsMatch(a, b run) bool {
	ok, _ := interp.OutputsEquivalent(a.Output, b.Output, 1e-6)
	return ok
}

// rankPlans turns the improving worlds into the ranked plan set:
// sort by estimated cost, cap to TopPlans, optionally validate and
// time finalists under the interpreter, and attach diffs and
// per-dependence decisions.
func (s *searcher) rankPlans(ctx context.Context, base *world, finals []*world) []Plan {
	sort.SliceStable(finals, func(i, j int) bool { return finals[i].cost < finals[j].cost })
	if len(finals) > s.opts.TopPlans {
		finals = finals[:s.opts.TopPlans]
	}

	input := s.opts.Input
	if input == nil {
		input = workloads.InputFor(s.path)
	}
	// Validation runs the base and every finalist under the interpreter
	// side by side on the search's worker bound — or the governor's
	// slot count when that is smaller: a run without a slot comes back
	// busy, and which plans stayed unvalidated would depend on
	// scheduling. The verdicts are then read in finalist order, so
	// discards, scores and ranks do not depend on which run finished
	// first.
	interpOK := false
	if s.opts.Interp && len(finals) > 0 {
		worlds := append([]*world{base}, finals...)
		runs := make([]run, len(worlds))
		width := s.opts.Workers
		if slots := s.opts.Gov.Slots(); slots > 0 {
			width = min(width, slots)
		}
		fanOut(len(worlds), width, func(i int) { runs[i] = s.exec(ctx, worlds[i], core.BackendInterp, input) })

		baseRun := runs[0]
		interpOK = baseRun.err == nil && baseRun.SimCycles > 0
		if interpOK {
			kept := finals[:0]
			for i, w := range finals {
				r := runs[1+i]
				switch {
				case r.err != nil && (ctx.Err() != nil || execguard.IsKill(r.err) || errors.Is(r.err, execguard.ErrBusy)):
					// Cut short by the search deadline, an execution limit
					// or a busy daemon: the run proves nothing about the
					// plan, which stays, unvalidated, ranked by its estimate.
				case r.err != nil:
					s.noteDiscard() // plan crashes the program: reject
					continue
				case !outputsMatch(baseRun, r):
					s.noteDiscard() // plan changes the answers: reject
					continue
				case r.SimCycles > 0:
					w.simSpeedup = float64(baseRun.SimCycles) / float64(r.SimCycles)
				}
				kept = append(kept, w)
			}
			finals = kept
		}
	}

	// Compiled ground truth: time the surviving finalists as native
	// binaries against the compiled base. Purely additive evidence —
	// a declined, failed or cut-short compilation or run leaves the
	// plan's interp-based ranking untouched.
	if s.opts.Compiled && len(finals) > 0 {
		baseRes := s.exec(ctx, base, core.BackendCompile, input)
		if baseRes.err == nil && baseRes.Wall > 0 {
			for _, w := range finals {
				res := s.exec(ctx, w, core.BackendCompile, input)
				if res.err == nil && res.Wall > 0 && outputsMatch(baseRes, res) {
					w.compiledSpeedup = float64(baseRes.Wall) / float64(res.Wall)
				}
			}
		}
	}

	plans := make([]Plan, 0, len(finals))
	for i, w := range finals {
		est := 1.0
		if w.cost > 0 {
			est = base.cost / w.cost
		}
		score := est
		if interpOK && w.simSpeedup > 0 {
			score = (est + w.simSpeedup) / 2
		}
		steps := make([]Step, 0, len(w.steps)+1)
		steps = append(steps, Step{Line: "unit " + s.unit, Hash: base.hash})
		steps = append(steps, w.steps...)
		plans = append(plans, Plan{
			ID:              w.hash[:12],
			Rank:            i + 1,
			EstSpeedup:      est,
			SimSpeedup:      w.simSpeedup,
			CompiledSpeedup: w.compiledSpeedup,
			Score:           score,
			Parallelized:    w.par,
			BaseHash:        base.hash,
			Steps:           steps,
			Decisions:       decisions(w.sess),
			Diff:            Diff(base.src, w.src),
			Source:          w.src,
		})
	}
	// Rank by combined score (interp evidence can reorder estimates).
	sort.SliceStable(plans, func(i, j int) bool { return plans[i].Score > plans[j].Score })
	for i := range plans {
		plans[i].Rank = i + 1
	}
	return plans
}

// basisNames is how a plan words the basis on which its parallel loop
// sets a carried dependence aside. A variable the loop's verdict calls
// shared can only sit under a parallel loop the search did not
// parallelize itself, or be carried by an inner loop.
var basisNames = [...]string{xform.Shared: "assumed-covered", xform.LastValue: "assumed-covered",
	xform.Private: "privatized", xform.Reduction: "reduction", xform.Induction: "induction", xform.Rejected: "user-rejected"}

// decisions extracts the per-dependence audit trail of a world: for
// every parallel loop in its unit, each carried dependence and the
// basis on which the loop's DOALL verdict sets it aside
// (privatization, reduction, induction, or a user rejection inherited
// from the parent). One variable often carries several dependence
// edges on the same basis; those collapse to a single decision
// counting its edges.
func decisions(sess *core.Session) []Decision {
	var out []Decision
	index := map[string]int{}
	loops := sess.Loops()
	for i, l := range loops {
		if !l.Do.Parallel {
			continue
		}
		name := fmt.Sprintf("do %s (line %d)", l.Header().Name, l.Do.Line())
		if err := sess.SelectLoop(i + 1); err != nil {
			continue
		}
		verdict := sess.Doall(l)
		for _, d := range sess.SelectionDeps(core.DepFilter{CarriedOnly: true}) {
			basis := basisNames[verdict.DepBasis(d)]
			detail := fmt.Sprintf("%v dependence at level %d (line %d → %d)",
				d.Class, d.Level, d.Src.Line(), d.Dst.Line())
			key := name + "\x00" + d.Sym.Name + "\x00" + basis
			if at, ok := index[key]; ok {
				out[at].Edges++
				continue
			}
			index[key] = len(out)
			out = append(out, Decision{
				Loop:   name,
				Var:    d.Sym.Name,
				Basis:  basis,
				Detail: detail,
				Edges:  1,
			})
		}
	}
	return out
}
