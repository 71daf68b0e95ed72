package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"parascope/internal/execguard"
	"parascope/internal/faultpoint"
	"parascope/internal/planner"
)

// This file is the daemon's face of the speculative planner: the
// plan / apply-plan session operations behind POST|GET
// /v1/sessions/{id}/plan and POST /v1/sessions/{id}/apply-plan, plus
// the line-protocol verbs (plan, plans, apply-plan) that Session.Cmd
// hands to daemonCmd. The search itself runs OFF the session actor — it
// only borrows the actor for a snapshot of the printed source, then
// forks worlds from that immutable string — so a session keeps
// serving reads (and even mutations) while its plans are being
// searched. Accepting a plan is the opposite: one actor post that
// journals and executes each step line through the normal mutation
// path, verifying the plan's per-step hash chain as it goes.

// ErrPlanConflict is returned when a plan cannot be (or keep being)
// applied against the session's current state — the session's source
// moved past the plan's base hash or a step's post-hash diverged, both
// found by planner.Plan.Replay — or when a search is already running.
// Maps to HTTP 409.
var ErrPlanConflict = planner.ErrConflict

const (
	defaultPlanWorkers = 2
	// planCacheSize bounds the plan result cache (searches).
	planCacheSize = 32
)

// planState is one session's planner corner: the latest search result
// and the one-search-at-a-time latch. It has its own lock because
// planning deliberately never rides the actor goroutine.
type planState struct {
	mu      sync.Mutex
	running bool
	last    *PlanResponse
}

func (p *planState) tryBegin() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.running {
		return false
	}
	p.running = true
	return true
}

func (p *planState) end() {
	p.mu.Lock()
	p.running = false
	p.mu.Unlock()
}

func (p *planState) store(resp PlanResponse) {
	p.mu.Lock()
	cp := resp
	p.last = &cp
	p.mu.Unlock()
}

func (p *planState) snapshot() (PlanResponse, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.last == nil {
		return PlanResponse{}, false
	}
	return *p.last, true
}

// options maps the wire request onto search options.
func (req PlanRequest) options() planner.Options {
	opts := planner.Options{
		BeamWidth: req.BeamWidth,
		MaxDepth:  req.MaxDepth,
		MaxWorlds: req.MaxWorlds,
		TopPlans:  req.TopPlans,
		Interp:    !req.NoInterp,
		Compiled:  req.Compiled,
		Timeout:   execguard.Millis(req.TimeoutMs),
	}
	return opts
}

// planKey fingerprints a search for the result cache: identical
// source, unit, and budget always produce the same ranked plans (the
// search is deterministic up to its deadline, which is part of the
// key).
func planKey(b planBase, o planner.Options) string {
	return fmt.Sprintf("%s|%s|b%d.d%d.w%d.t%d.ms%d.i%v.c%v",
		b.hash, b.unit, o.BeamWidth, o.MaxDepth, o.MaxWorlds,
		o.TopPlans, o.Timeout/time.Millisecond, o.Interp, o.Compiled)
}

// planBase is the world fork point of one search: the session's source
// and its hash (both from the session's source image), and the unit.
type planBase struct {
	path, src, hash, unit string
}

// planSnapshot borrows the actor for the instant it takes to read the
// current source. Read-only and even quarantine-adjacent traffic keeps
// flowing while the search runs.
func (ss *Session) planSnapshot(ctx context.Context) (b planBase, err error) {
	err = ss.post(ctx, func() {
		snap := ss.snapshotRecord()
		b = planBase{path: ss.path, src: snap.Source, hash: ss.currentHash(), unit: snap.Unit}
	}, true)
	return b, err
}

// Plan runs (or begins, with Async) a speculative search for the
// session — POST …/plan.
func (ss *Session) Plan(ctx context.Context, req PlanRequest) (PlanResponse, error) {
	return ss.search(ctx, req.options(), req.Async)
}

// search is the one door to the planner, for POST …/plan and the `plan`
// verb alike. Planning is allowed on read-only sessions — it mutates
// nothing. One search per session at a time (409), bounded searches
// per daemon (429), results cached by source hash + unit + budget.
func (ss *Session) search(ctx context.Context, opts planner.Options, async bool) (PlanResponse, error) {
	base, err := ss.planSnapshot(ctx)
	if err != nil {
		return PlanResponse{}, err
	}
	opts.Gov, opts.CompileCache = ss.gov, ss.cfg.RunCacheDir
	key := planKey(base, opts)
	if resp, ok := ss.plans.get(key); ok {
		resp.SessionID = ss.ID
		resp.Cached = true
		ss.plan.store(resp)
		return resp, nil
	}
	if !ss.plan.tryBegin() {
		return PlanResponse{}, fmt.Errorf("%w: a plan search is already running for this session", ErrPlanConflict)
	}
	select {
	case ss.planSem <- struct{}{}:
	default:
		ss.plan.end()
		return PlanResponse{}, fmt.Errorf("%w: planner at capacity", ErrQueueFull)
	}
	release := func() { <-ss.planSem }
	if async {
		running := PlanResponse{SessionID: ss.ID, Unit: base.unit,
			BaseHash: base.hash, Status: "running"}
		ss.plan.store(running)
		go func() {
			defer release()
			ss.runSearch(context.Background(), base, opts, key)
		}()
		return running, nil
	}
	defer release()
	resp := ss.runSearch(ctx, base, opts, key)
	if resp.Status == "failed" {
		return resp, errors.New(resp.Error)
	}
	return resp, nil
}

// runSearch owns the session's running latch; it stores the outcome
// (done or failed) where PlanStatus and apply-plan find it, and
// caches successes.
func (ss *Session) runSearch(ctx context.Context, base planBase, opts planner.Options, key string) PlanResponse {
	defer ss.plan.end()
	start := time.Now()
	res, err := planner.Search(ctx, base.path, base.src, base.unit, opts, plannerObserver{ss.metrics})
	ss.metrics.PlannerSearch.Observe(time.Since(start).Seconds())
	resp := PlanResponse{SessionID: ss.ID, Unit: base.unit, BaseHash: base.hash}
	if err != nil {
		resp.Status = "failed"
		resp.Error = err.Error()
		ss.plan.store(resp)
		return resp
	}
	resp.Status = "done"
	resp.Unit = res.Unit
	resp.BaseHash = res.BaseHash
	resp.WorldsForked = res.WorldsForked
	resp.WorldsScored = res.WorldsScored
	resp.WorldsDiscarded = res.WorldsDiscarded
	resp.ElapsedMs = res.Elapsed.Milliseconds()
	resp.Plans = res.Plans
	ss.plan.store(resp)
	// Only productive searches are cached: an empty result can mean
	// injected faults or a transient world wipe-out, and re-running a
	// search that found nothing is cheap next to serving a stale
	// nothing forever.
	if len(resp.Plans) > 0 {
		ss.plans.put(key, resp)
	}
	return resp
}

// PlanStatus reports the latest search result (or that one is still
// running); ok is false when no plan was ever requested.
func (ss *Session) PlanStatus() (PlanResponse, bool) {
	return ss.plan.snapshot()
}

// ApplyPlan accepts a plan — by value, or by rank into the session's
// last search result — and replays its step lines through the normal
// journaled mutation path in ONE actor post: atomic with respect to
// every other client, durable like hand-typed commands, and checked
// step by step against the plan's hash chain by the walk the REPL's
// apply-plan takes (planner.Plan.Replay). A base-hash or step-hash
// mismatch aborts with ErrPlanConflict; the journaled
// prefix stays consistent (it recorded exactly the steps that ran)
// and undo can roll it back.
func (ss *Session) ApplyPlan(ctx context.Context, req ApplyPlanRequest) (ApplyPlanResponse, error) {
	plan := req.Plan
	if plan == nil {
		n := req.Index
		if n == 0 {
			n = 1
		}
		last, ok := ss.plan.snapshot()
		if !ok || last.Status != "done" {
			return ApplyPlanResponse{}, fmt.Errorf("no completed plan search for this session (run plan first)")
		}
		if n < 1 || n > len(last.Plans) {
			return ApplyPlanResponse{}, fmt.Errorf("no plan %d (the last search returned %d)", n, len(last.Plans))
		}
		plan = &last.Plans[n-1]
	}
	if len(plan.Steps) == 0 {
		return ApplyPlanResponse{}, fmt.Errorf("plan %s has no steps", plan.ID)
	}
	if err := ss.condition().refusal(true); err != nil {
		return ApplyPlanResponse{}, err
	}
	var resp ApplyPlanResponse
	var opErr error
	err := ss.post(ctx, func() {
		if opErr = faultpoint.Hit(faultpoint.PlanApply, ss.ID+":"+plan.ID); opErr != nil {
			return
		}
		opErr = plan.Replay(ss.currentHash, func(line string) error {
			res, err := ss.mutate(&record{Op: recCmd, Line: line})
			if err != nil {
				return err
			}
			return res.err
		})
		if opErr == nil {
			resp = ApplyPlanResponse{Plan: plan.ID, Applied: len(plan.Steps), Hash: ss.currentHash()}
		}
	}, true)
	if err != nil {
		return ApplyPlanResponse{}, err
	}
	if opErr != nil {
		return ApplyPlanResponse{}, opErr
	}
	ss.metrics.PlannerWorldsAccepted.Inc()
	return resp, nil
}

// format renders a PlanResponse for the line protocol.
func (resp PlanResponse) format() string {
	switch resp.Status {
	case "running":
		return "plan search running; poll with plans\n"
	case "failed":
		return "plan search failed: " + resp.Error + "\n"
	}
	res := planner.Result{
		Unit:            resp.Unit,
		BaseHash:        resp.BaseHash,
		WorldsForked:    resp.WorldsForked,
		WorldsScored:    resp.WorldsScored,
		WorldsDiscarded: resp.WorldsDiscarded,
		Elapsed:         time.Duration(resp.ElapsedMs) * time.Millisecond,
		Plans:           resp.Plans,
	}
	out := res.Format()
	if resp.Cached {
		out = "(cached)\n" + out
	}
	return out
}

// plannerObserver feeds world lifecycle events into the daemon's
// metric registry.
type plannerObserver struct{ m *Metrics }

func (o plannerObserver) WorldForked()    { o.m.PlannerWorldsForked.Inc() }
func (o plannerObserver) WorldScored()    { o.m.PlannerWorldsScored.Inc() }
func (o plannerObserver) WorldDiscarded() { o.m.PlannerWorldsDiscarded.Inc() }
func (o plannerObserver) WorldsLive(delta int) {
	if delta > 0 {
		o.m.PlannerWorldsLive.Inc()
	} else {
		o.m.PlannerWorldsLive.Dec()
	}
}
