// Package planner implements speculative transformation search: the
// auto-parallelizing service built on top of the interactive editor.
// The program's printed source is parsed into a session of the
// planner's own, so the search shares nothing mutable with the user's,
// and candidate transformation sequences (interchange, skew,
// reductions, fuse, parallelize) are tried in speculative "worlds"
// concurrently under a bounded search budget: beam width, maximum
// depth, a total world budget, and a wall-clock deadline. A world is
// an apply and an undo: its step is applied on a session standing at
// its parent's state, read, and undone, which returns the session to
// the parent's state for a sibling. Worlds are scored by the static
// performance estimator's parallel-aware cost model, finalists are
// optionally validated and timed under the parallel interpreter, and
// the result is a ranked set of plans: the step sequence, a source
// diff, per-world estimated speedups, and the per-dependence
// decisions each plan assumes.
//
// A panicking world is recovered at the world boundary and discarded
// with the session it ran on; the search, the sibling worlds, and the
// user's session are never affected. Accepting a plan is the caller's
// job: the step lines are replayed through the normal (journaled)
// mutation path, so durability, undo, and crash recovery hold for
// planned changes exactly as for hand-typed ones.
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

// world is one speculative program state: the steps from the base,
// the printed source and its hash, and the score. It holds a session
// only while something reads one — the base and the beam while their
// children are evaluated, the finalists while they are ranked; every
// other world keeps only what was read off the session it borrowed.
type world struct {
	parent *world
	sess   *core.Session
	src    string // printed source
	hash   string
	steps  []Step
	cost   float64 // parallel-aware estimated time of the unit
	par    int     // parallel loops in the unit
	// simSpeedup is filled for finalists when interpretation is on.
	simSpeedup float64
	// compiledSpeedup is the real wall-clock speedup of the compiled
	// plan over the compiled base (0 when not measured).
	compiledSpeedup float64
}

// line is the step that made w from its parent.
func (w *world) line() string { return w.steps[len(w.steps)-1].Line }

// pool lends sessions standing at one world's state: the world's own
// first, then fresh parses of its source while every one is busy. A
// session comes back only after an undo has returned it to that state;
// one whose world failed is dropped.
type pool struct {
	w    *world
	mu   sync.Mutex
	free []*core.Session
}

func (p *pool) get(s *searcher) (*core.Session, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		sess := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return sess, nil
	}
	p.mu.Unlock()
	return s.open(p.w.src)
}

func (p *pool) put(sess *core.Session) {
	p.mu.Lock()
	p.free = append(p.free, sess)
	p.mu.Unlock()
}

type searcher struct {
	path, unit string
	opts       Options
	obs        Observer

	mu        sync.Mutex
	forked    int
	scored    int
	discarded int
}

// Search parses the printed source into a session of its own and beam-
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
	s := &searcher{path: path, unit: unit, opts: opts, obs: obs}

	sess, err := s.open(source)
	if err != nil {
		return nil, fmt.Errorf("plan: fork base world: %v", err)
	}
	if unit == "" {
		s.unit = sess.CurrentUnit().Name
	}
	// Canonicalize to the printed form: the hash chain must match what
	// Save() (and therefore the daemon's journal integrity chain)
	// computes, which for raw user text can differ in formatting.
	base := &world{sess: sess, src: sess.Save(), hash: sess.SourceHash()}
	s.score(base, sess)
	res := &Result{Unit: s.unit, BaseHash: base.hash}

	seen := map[string]bool{base.hash: true}
	var finals []*world
	beam := []*world{base}
	for depth := 0; depth < opts.MaxDepth && len(beam) > 0 && ctx.Err() == nil; depth++ {
		type job struct {
			pool *pool
			line string
		}
		var jobs []job
		pools := make(map[*world]*pool, len(beam))
		for _, w := range beam {
			lines := s.candidates(w.sess)
			p := &pool{w: w, free: []*core.Session{w.sess}}
			w.sess, pools[w] = nil, p
			for _, line := range lines {
				jobs = append(jobs, job{p, line})
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
		// pool. Each evaluation applies, scores and undoes one world on
		// a session borrowed from its parent's pool; a panic anywhere
		// inside is confined to that world and its session.
		children := make([]*world, len(jobs))
		fanOut(len(jobs), opts.Workers, func(i int) {
			if ctx.Err() != nil || !s.takeForkBudget() {
				return
			}
			w, err := s.eval(jobs[i].pool, jobs[i].line)
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
		// A survivor's children need a session at its state: its step
		// applied again on one of its parent's (a survivor reapply
		// fails for is discarded). The rest of the pools is dropped,
		// but for one base session for validation to run.
		beam = nil
		if depth < opts.MaxDepth-1 && ctx.Err() == nil {
			fanOut(len(next), opts.Workers, func(i int) { next[i].sess, _ = s.reapply(pools[next[i].parent], next[i]) })
			beam = s.withSessions(next)
		}
		if p := pools[base]; p != nil && len(p.free) > 0 {
			base.sess = p.free[0]
		}
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

// open parses source into a fresh single-threaded session positioned
// on the search unit. Sessions run their per-unit analysis pool at
// width 1: the planner's parallelism is across worlds.
func (s *searcher) open(source string) (*core.Session, error) {
	sess, err := core.OpenWorkers(s.path, source, 1)
	if err != nil {
		return nil, err
	}
	if s.unit != "" {
		if err := sess.SelectUnit(s.unit); err != nil {
			return nil, err
		}
	}
	return sess, nil
}

// eval evaluates the world one step from p's: it applies the step on a
// session borrowed from p, reads the world off it, and undoes the step,
// which puts the session back at p's state for a sibling. Everything —
// a reparse when the pool is empty, the transformation, the
// reanalysis, the scoring, the undo — runs behind a recover: an armed
// faultpoint or a genuine bug fails this world only, the caller counts
// it discarded, and the session it left wherever it stopped is
// dropped, never returned.
func (s *searcher) eval(p *pool, line string) (w *world, err error) {
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

	sess, err := p.get(s)
	if err != nil {
		return nil, err
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
		parent: p.w,
		src:    sess.Save(),
		hash:   hash,
		steps: append(append([]Step{}, p.w.steps...),
			Step{Line: line, Verdict: verdict, Hash: hash}),
	}
	s.score(w, sess)
	if err := sess.Undo(); err != nil {
		return nil, err
	}
	p.put(sess)
	s.mu.Lock()
	s.scored++
	s.mu.Unlock()
	s.obs.WorldScored()
	return w, nil
}

// reapply returns a session at w's state: its step applied on a
// session from p, a pool of its parent's. Like eval it recovers at the
// world boundary.
func (s *searcher) reapply(p *pool, w *world) (sess *core.Session, err error) {
	defer func() {
		if r := recover(); r != nil {
			sess, err = nil, fmt.Errorf("world panicked: %v", r)
		}
	}()
	if sess, err = p.get(s); err != nil {
		return nil, err
	}
	if _, err := applyStepLine(sess, w.line()); err != nil {
		return nil, err
	}
	if sess.SourceHash() != w.hash {
		return nil, fmt.Errorf("%q landed on another program than it did in its world", w.line())
	}
	return sess, nil
}

// withSessions keeps the worlds reapply gave a session and discards the
// others: a world no session stands at cannot be expanded or ranked.
func (s *searcher) withSessions(worlds []*world) []*world {
	kept := worlds[:0]
	for _, w := range worlds {
		if w.sess == nil {
			s.noteDiscard()
			continue
		}
		kept = append(kept, w)
	}
	return kept
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
// parallel-loop count from a session standing at its state.
func (s *searcher) score(w *world, sess *core.Session) {
	st := sess.State()
	w.cost = sess.Estimator().ParallelTime(st.DF, st.Unit.Body)
	for _, l := range sess.Loops() {
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
	r.ExecResult, r.err = w.sess.Exec(ctx, core.ExecRequest{Backend: backend, Workers: w.sess.Estimator().Params.Procs,
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
	// A finalist's session is its step applied on a fresh parse of its
	// parent's source, where the line numbers its decisions name are
	// those of that source; one reapply fails for is discarded, like
	// one whose validation run fails.
	fanOut(len(finals), s.opts.Workers, func(i int) { finals[i].sess, _ = s.reapply(&pool{w: finals[i].parent}, finals[i]) })
	finals = s.withSessions(finals)
	if base.sess == nil && (s.opts.Interp || s.opts.Compiled) && len(finals) > 0 {
		// The base parsed once already; should it not now, its runs
		// fail and no plan is validated.
		base.sess, _ = s.open(base.src)
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
