package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parascope/internal/core"
	"parascope/internal/dep"
	"parascope/internal/execguard"
	"parascope/internal/faultpoint"
	"parascope/internal/planner"
	"parascope/internal/repl"
	"parascope/internal/view"
	"parascope/internal/workloads"
)

// ErrSessionClosed is returned for requests against a session that
// was closed or evicted.
var ErrSessionClosed = errors.New("session closed")

// ErrSessionFailed is returned for requests against a session that
// was quarantined after a panic; other sessions are unaffected.
var ErrSessionFailed = errors.New("session failed")

// ErrQueueFull is returned when a session's pending-command queue is
// at capacity — backpressure instead of unbounded buffering.
var ErrQueueFull = errors.New("session queue full")

// ErrSessionReadOnly is returned for mutating requests against a
// session whose journal hit an I/O error (disk full, EIO): the state
// already in memory keeps serving reads, but no further mutation is
// accepted because it could not be made durable.
var ErrSessionReadOnly = errors.New("session read-only")

// ErrSessionMigrating is returned for mutating requests against a
// session frozen mid-migration: the exported stream must be the last
// word on its state, so mutations are rejected (503 + Retry-After)
// until the move completes (then 421 points at the new node) or fails
// (then the session thaws here).
var ErrSessionMigrating = errors.New("session migrating")

// ErrSessionExists is returned when an explicitly requested session ID
// (gateway-minted open, or an import) is already in use on this node.
var ErrSessionExists = errors.New("session already exists")

// defaultQueueDepth bounds the per-session pending-command queue when
// the config does not say otherwise.
const defaultQueueDepth = 32

// Session is one hosted editor session. All editor state is confined
// to a single actor goroutine: requests are posted as closures on
// reqCh and executed one at a time, so concurrent HTTP requests
// against the same session serialize and the untouched core stays
// data-race-free.
//
// A session opened on a cache hit starts artifact-backed (art != nil,
// live == nil): the reads and cursor moves its immutable artifacts can
// answer successfully are answered from them without ever parsing the
// source. The first line they decline — a mutation, a verb they hold
// no text for, a mistyped argument — materializes a live core.Session
// by reparsing and reanalyzing, then replays the selection.
type Session struct {
	// host is the manager's immutable part: configuration, metric
	// registry, execution governor, planner admission and cache.
	*host

	ID     string
	path   string
	source string

	created  time.Time
	lastUsed atomic.Int64 // unix nanos

	// queue has a place for each slot of reqCh: post takes one before
	// the send, so the send never blocks, and the task gives it back
	// when it starts.
	queue *execguard.Gate
	reqCh chan task
	// mu guards cond. post holds it shared from the refusal check to the
	// send on reqCh; close, which closes reqCh, takes it exclusive.
	mu   sync.RWMutex
	cond condition
	// done is closed when the actor goroutine exits (queue drained,
	// journal synced and closed) — what Shutdown waits on for durable
	// sessions.
	done chan struct{}

	// plan is this session's speculative-planner state (latest search
	// result + one-search latch; own lock, never the actor).
	plan planState
	// leave gives back the session's place at the manager's sessions
	// gate; register sets it, unregister calls it.
	leave func()

	// Actor-confined state below: only the run() goroutine touches it.
	art     *Artifacts
	curUnit int
	curLoop int
	live    *core.Session
	rep     *repl.REPL

	// Durability (cfg.DataDir, "" = in-memory only; cfg.Fsync). jr stays
	// nil until the session's first mutation gives birth to the journal
	// (journalAppend) — a session that only browses never touches the
	// disk; the actor is its only writer, while the flusher, Shutdown and
	// Close load it from their own goroutines. defUnit is the unit
	// selected at open, so the birth knows whether the cursor has moved.
	// discarded tells the actor to delete, not keep, whatever wal exists
	// once its queue has drained.
	// sticky is set by mutations that live outside the printed source
	// (marks, assertions, classifications, analysis toggles) — they
	// cannot be folded into a source snapshot, so they block compaction.
	jr            atomic.Pointer[journal]
	defUnit       string
	discarded     atomic.Bool
	mutsSinceSnap int
	sticky        bool

	// walOrphan is the wal path of a quarantined recovery husk
	// (jr == nil): the file stays on disk for forensics until the husk
	// is explicitly closed, which removes it.
	walOrphan string
}

type task struct {
	fn    func()
	touch bool
}

// newSession builds a session under this manager's configuration and
// starts its actor. jr is the journal of a recovered or imported
// session; a fresh one passes nil and journals from its first mutation.
func (m *Manager) newSession(id, path, source string, art *Artifacts, live *core.Session, jr *journal) *Session {
	queueDepth := m.cfg.QueueDepth
	if queueDepth <= 0 {
		queueDepth = defaultQueueDepth
	}
	ss := &Session{
		host:    m.host,
		ID:      id,
		path:    path,
		source:  source,
		created: time.Now(),
		queue:   m.metrics.NewGate("queue", queueDepth, ErrQueueFull),
		reqCh:   make(chan task, queueDepth),
		done:    make(chan struct{}),
		plan:    planState{latch: m.metrics.NewGate("session_plan", 1, errPlanRunning)},
	}
	ss.jr.Store(jr)
	ss.lastUsed.Store(time.Now().UnixNano())
	if live != nil {
		ss.live = live
		ss.rep = repl.New(live, io.Discard)
	} else if art != nil {
		ss.art = art
		ss.curUnit = art.DefaultUnit
	}
	if live != nil || art != nil {
		ss.defUnit, _ = ss.cursor()
	}
	go ss.run()
	return ss
}

func (ss *Session) run() {
	defer close(ss.done)
	for t := range ss.reqCh {
		t.fn()
		if t.touch {
			ss.lastUsed.Store(time.Now().UnixNano())
		}
	}
	// Drained: no append, and no birth, can come any more, so this is
	// the one place that settles what stays on disk.
	if ss.discarded.Load() {
		ss.removeJournal()
	} else if jr := ss.jr.Load(); jr != nil {
		_ = jr.close()
	}
}

// post runs fn on the actor goroutine and waits for it to finish,
// honoring the caller's context. Four ways it can refuse or bail:
//
//   - the session's condition refuses (refusal): ErrSessionFailed for a
//     quarantined session, ErrSessionClosed for a closed one, without
//     touching the actor;
//   - the bounded pending queue is full: ErrQueueFull immediately —
//     admission control, not unbounded buffering;
//   - ctx expires while the command is queued or running: the queued
//     command is abandoned (it will be skipped, not executed) and
//     ctx.Err() is returned; a command already executing cannot be
//     interrupted, but the caller stops waiting for it;
//   - fn panics: the panic is recovered here — only this session is
//     quarantined, the daemon and every other session keep going —
//     and the wrapped ErrSessionFailed carries the diagnostic.
func (ss *Session) post(ctx context.Context, fn func(), touch bool) error {
	if ctx == nil {
		ctx = context.Background()
	}
	done := make(chan struct{})
	var abandoned atomic.Bool
	var panicErr error
	var leave func()
	enqueued := time.Now()
	t := task{touch: touch, fn: func() {
		defer close(done)
		leave()
		ss.metrics.QueueWait.Observe(time.Since(enqueued).Seconds())
		if abandoned.Load() {
			return
		}
		started := time.Now()
		defer func() {
			ss.metrics.ActorService.Observe(time.Since(started).Seconds())
			if r := recover(); r != nil {
				ss.quarantine(r, debug.Stack())
				panicErr = ss.condition().refusal(false)
			}
		}()
		fn()
	}}
	ss.mu.RLock()
	err := ss.cond.refusal(false)
	if err == nil {
		err = ctx.Err()
	}
	if err == nil {
		leave, err = ss.queue.Enter()
	}
	if err != nil {
		ss.mu.RUnlock()
		return err
	}
	ss.reqCh <- t
	ss.mu.RUnlock()
	select {
	case <-done:
		return panicErr
	case <-ctx.Done():
		abandoned.Store(true)
		return ctx.Err()
	}
}

// condition is everything a session refuses work for, in one value
// under Session.mu; setCondition is its only writer.
type condition struct {
	closed bool
	// failure is the first panic's diagnostic, or a recovery husk's
	// reason: the session is quarantined, though its queue still drains.
	failure *FailureInfo
	// readOnly is why the journal stopped taking writes ("" = writable):
	// reads keep serving from memory, mutations are refused so memory
	// never runs ahead of the journal.
	readOnly string
	// migrating freezes the session while its journal stream ships to
	// another node: reads keep serving, mutations are refused.
	migrating bool
}

// refusal is the error the condition answers a request with, or nil.
// post asks for every request (mutation false), and there a quarantined
// session refuses before a closed one. The journal gate asks for every
// mutation on the actor (mutation true), where a closed or quarantined
// session's queue still drains, and there a migrating session refuses
// before a read-only one.
func (c condition) refusal(mutation bool) error {
	switch {
	case !mutation && c.failure != nil:
		return fmt.Errorf("%w: %s", ErrSessionFailed, c.failure.Reason)
	case !mutation && c.closed:
		return ErrSessionClosed
	case mutation && c.migrating:
		return fmt.Errorf("%w: session is moving to another node; retry shortly", ErrSessionMigrating)
	case mutation && c.readOnly != "":
		return fmt.Errorf("%w: %s", ErrSessionReadOnly, c.readOnly)
	}
	return nil
}

// gauged is what the condition adds to the quarantined, read-only and
// migrating gauges: a closed session counts in none.
func (c condition) gauged() (quarantined, readOnly, migrating int64) {
	if c.closed {
		return 0, 0, 0
	}
	if c.failure != nil {
		quarantined = 1
	}
	if c.readOnly != "" {
		readOnly = 1
	}
	if c.migrating {
		migrating = 1
	}
	return quarantined, readOnly, migrating
}

// setCondition applies change to the session's condition and moves the
// three condition gauges by the difference, so each counts the live
// sessions in its condition. It returns the condition before the change.
func (ss *Session) setCondition(change func(*condition)) condition {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	was := ss.cond
	change(&ss.cond)
	q0, r0, m0 := was.gauged()
	q1, r1, m1 := ss.cond.gauged()
	ss.metrics.SessionsQuarantined.Add(q1 - q0)
	ss.metrics.SessionsReadOnly.Add(r1 - r0)
	ss.metrics.SessionsMigrating.Add(m1 - m0)
	return was
}

// condition snapshots the session's condition.
func (ss *Session) condition() condition {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return ss.cond
}

// quarantine marks the session failed, recording the first panic's
// diagnostic. The actor keeps draining its queue (rejecting nothing
// already enqueued — those commands run against the broken state no
// further than their own recover), but post refuses new work.
func (ss *Session) quarantine(r interface{}, actorStack []byte) {
	full := fmt.Sprint(r)
	reason, _, _ := strings.Cut(full, "\n")
	ss.fail(reason, full+"\n\nactor stack:\n"+string(actorStack))
}

// fail records the first failure's diagnostic — shared by panic
// quarantine and recovery husks.
func (ss *Session) fail(reason, stack string) {
	ss.setCondition(func(c *condition) {
		if c.failure == nil {
			c.failure = &FailureInfo{Reason: reason, Stack: stack, Time: time.Now()}
		}
	})
}

// degradeReadOnly flips the session to read-only after a journal I/O
// failure, recording the first reason. Safe from any goroutine (the
// manager's flush ticker degrades too).
func (ss *Session) degradeReadOnly(reason string) {
	ss.setCondition(func(c *condition) {
		if c.readOnly == "" {
			c.readOnly = reason
		}
	})
}

// freeze claims the session for one migration: mutations start being
// rejected with ErrSessionMigrating. Returns false when another
// migration already holds it.
func (ss *Session) freeze() bool {
	return !ss.setCondition(func(c *condition) { c.migrating = true }).migrating
}

// unfreeze releases a failed (or finished) migration's claim.
// Idempotent.
func (ss *Session) unfreeze() {
	ss.setCondition(func(c *condition) { c.migrating = false })
}

// Export renders the session's journal stream — the byte image an
// import on another node replays. Journaled sessions ship their wal
// verbatim (full fidelity, sticky overlays included); a session with
// no journal synthesizes a single snapshot record, which carries the
// source, selection, and undo stack. For a durable session not yet
// mutated that is everything; for a non-durable one it cannot
// represent sticky overlays (marks, assertions, classifications) —
// documented loss, see DESIGN.md's failure-model table. Runs on the actor, so posting it
// doubles as the migration drain barrier.
func (ss *Session) Export(ctx context.Context) ([]byte, error) {
	var data []byte
	var opErr error
	if err := ss.post(ctx, func() {
		if jr := ss.jr.Load(); jr != nil {
			data, opErr = jr.contents()
			return
		}
		snap := ss.snapshotRecord()
		snap.Seq, snap.Time = 1, time.Now().UnixNano()
		data, opErr = encodeRecord(snap)
	}, false); err != nil {
		return nil, err
	}
	return data, opErr
}

// ReadOnlyReason reports why the session degraded ("" when writable).
func (ss *Session) ReadOnlyReason() string { return ss.condition().readOnly }

// discard closes a session that is gone on purpose — explicit close,
// TTL eviction, migrated away — so its state must not resurrect at the
// next restart. (Shutdown does NOT: surviving the restart is the
// point.) The wal on disk now goes at once; one a still-queued first
// mutation creates later is removed by the actor once it has drained.
func (ss *Session) discard() {
	ss.discarded.Store(true)
	ss.close()
	ss.removeJournal()
}

func (ss *Session) removeJournal() {
	if jr := ss.jr.Load(); jr != nil {
		jr.remove()
	} else if ss.walOrphan != "" {
		os.Remove(ss.walOrphan)
	}
}

// syncJournal flushes the session's journal (the manager's interval
// flusher calls this); a failed fsync degrades the session just like a
// failed append — acknowledged-but-unflushed state must not grow.
func (ss *Session) syncJournal() {
	if jr := ss.jr.Load(); jr != nil {
		if err := jr.sync(); err != nil {
			ss.degradeReadOnly(fmt.Sprintf("journal fsync: %v", err))
		}
	}
}

// Failure snapshots the quarantine diagnostic, or nil when healthy.
func (ss *Session) Failure() *FailureInfo {
	f := ss.condition().failure
	if f == nil {
		return nil
	}
	cp := *f
	return &cp
}

// StateName reports the lifecycle state: active, failed, or closed.
func (ss *Session) StateName() string {
	switch c := ss.condition(); {
	case c.closed:
		return "closed"
	case c.failure != nil:
		return "failed"
	default:
		return "active"
	}
}

// close stops the actor; queued requests still drain first. No post
// sends once closed is set, so reqCh is closed after the lock is gone.
func (ss *Session) close() {
	if !ss.setCondition(func(c *condition) { c.closed = true }).closed {
		close(ss.reqCh)
	}
}

// Idle reports how long the session has gone without a request.
func (ss *Session) Idle() time.Duration {
	return time.Since(time.Unix(0, ss.lastUsed.Load()))
}

// infoBudget bounds how long Info waits on the session actor: a
// wedged or saturated session degrades to its static fields instead
// of hanging the whole listing.
const infoBudget = 250 * time.Millisecond

// Info snapshots the session for the listing (does not reset idle).
// A session whose actor cannot answer within a short budget — hung,
// saturated, failed, or closed — still yields a row with its ID,
// path, and state; only Live/Mutated are omitted.
func (ss *Session) Info(ctx context.Context) SessionInfo {
	static := SessionInfo{ID: ss.ID, Path: ss.path, State: ss.StateName(), IdleSeconds: ss.Idle().Seconds(),
		ReadOnly: ss.ReadOnlyReason() != "", Journaled: ss.jr.Load() != nil || ss.walOrphan != ""}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithTimeout(ctx, infoBudget)
	defer cancel()
	info := static
	err := ss.post(ctx, func() {
		info.Live = ss.live != nil
		if ss.live != nil {
			info.Mutated = ss.live.Mutated()
		}
	}, false)
	if err != nil {
		return static
	}
	return info
}

// statusLine renders Info for the line protocol (`status` through cmd
// or `ped -remote`): lifecycle state, backing, and whether anything of
// the session is on disk — the answer to "would this survive a restart".
func (ss *Session) statusLine(ctx context.Context) string {
	info := ss.Info(ctx)
	backing, disk := "artifact-backed", "journaled"
	if info.Live {
		backing = "live"
	}
	if info.ReadOnly {
		backing += ", read-only"
	}
	if !info.Journaled {
		disk = "not journaled (nothing to recover until the first mutation)"
		if ss.cfg.DataDir == "" {
			disk = "not journaled (daemon runs without -datadir)"
		}
	}
	return fmt.Sprintf("session %s: %s, %s, %s\n", info.ID, info.State, backing, disk)
}

// ---------------------------------------------------------------------------
// Public operations (each runs inside the actor)

// outcome is what applying one record produced. err is the operation's
// own rejection (unknown statement, loop out of range, unsafe
// transformation): journaled like a success, replayed as the same
// rejection.
type outcome struct {
	out string         // what a cmd record's line printed
	sel SelectResponse // where a select record left the cursor
	err error
}

// Cmd executes one REPL command line as its verb's class says
// (repl.Verb): a read runs on the actor and touches no journal; a
// cursor move or mutation is a cmd record; a daemon-served verb never
// reaches the in-process REPL. The returned error is a
// transport/lifecycle failure (closed, failed, queue full, context) or
// a daemon-served verb's; command-level failures ride in
// CmdResponse.Err.
//
// When post fails — notably when ctx expires while the command is
// still executing — the captured result belongs to the actor, which
// may write it after we return; every error path here (and in the
// other ops below) must return zero values and never read it.
func (ss *Session) Cmd(ctx context.Context, line string) (CmdResponse, error) {
	verb, class := repl.Verb(line)
	var res outcome
	var err error
	switch class {
	case repl.Daemon:
		return ss.daemonCmd(ctx, verb, strings.Fields(line)[1:])
	case repl.Read:
		err = ss.post(ctx, func() { res.out, res.err = ss.exec(line) }, true)
	default:
		res, err = ss.submit(ctx, &record{Op: recCmd, Line: line})
	}
	if err != nil {
		return CmdResponse{}, err
	}
	resp := CmdResponse{Output: res.out}
	if res.err != nil {
		resp.Err = res.err.Error()
	}
	return resp, nil
}

// daemonCmd answers the verbs repl classes daemon-served, each with the
// call its typed endpoint makes — so `ped -remote` scripts and raw cmd
// lines get the planner, the governed run and the session's status
// without knowing those endpoints, and their failures carry the same
// status. The REPL's in-process forms would search on the actor, apply a
// plan without journaling its steps, and run outside the governor.
func (ss *Session) daemonCmd(ctx context.Context, verb string, args []string) (CmdResponse, error) {
	switch verb {
	case "status":
		return CmdResponse{Output: ss.statusLine(ctx)}, nil
	case "run":
		req, err := core.ParseExecRequest(args)
		if err != nil {
			return CmdResponse{Err: err.Error()}, nil
		}
		res, err := ss.runProgram(ctx, req)
		if err != nil {
			return CmdResponse{}, err
		}
		return CmdResponse{Output: res.Output + res.Trailer()}, nil
	case "plan":
		opts, async, err := planner.ParseArgs(args)
		if err != nil {
			return CmdResponse{Err: err.Error()}, nil
		}
		resp, err := ss.search(ctx, opts, async)
		if err != nil {
			return CmdResponse{}, err
		}
		return CmdResponse{Output: resp.format()}, nil
	case "plans":
		resp, ok := ss.PlanStatus()
		if !ok {
			return CmdResponse{Output: "no plans: run plan first\n"}, nil
		}
		return CmdResponse{Output: resp.format()}, nil
	case "apply-plan":
		n, err := repl.PlanRank(args)
		if err != nil {
			return CmdResponse{Err: err.Error()}, nil
		}
		resp, err := ss.ApplyPlan(ctx, ApplyPlanRequest{Index: n})
		if err != nil {
			return CmdResponse{}, err
		}
		return CmdResponse{Output: fmt.Sprintf("applied plan %s: %d step(s), hash %s\n",
			resp.Plan, resp.Applied, resp.Hash)}, nil
	}
	return CmdResponse{}, fmt.Errorf("daemon-served verb %q has no server", verb)
}

// errBackendDisabled marks a run refused by the operator's
// -disable-backends switch (501).
var errBackendDisabled = errors.New("disabled on this server")

// Run executes the session's program — POST …/run.
func (ss *Session) Run(ctx context.Context, req RunRequest) (RunResponse, error) {
	res, err := ss.runProgram(ctx, core.ExecRequest{
		Backend:  req.Backend,
		Workers:  req.Workers,
		Timeout:  execguard.Millis(req.TimeoutMs),
		Fallback: req.Fallback,
	})
	if err != nil {
		return RunResponse{}, err
	}
	return RunResponse{
		Output:     res.Output,
		WallMicros: res.Wall.Microseconds(),
		SimCycles:  res.SimCycles,
		Backend:    res.Backend,
		Fallback:   res.FallbackReason,
	}, nil
}

// runProgram is the one door to execution, for POST …/run and the `run`
// verb alike, so the operator's backend switch, the exec slots, the
// daemon's run limits and the request's context apply to both. Execution is a
// pure read — it never changes session state — so it is not journaled
// and stays available on read-only sessions; artifact-backed sessions
// materialize first because both backends consume the live AST.
func (ss *Session) runProgram(ctx context.Context, req core.ExecRequest) (core.ExecResult, error) {
	backend := req.Backend
	if backend == "" {
		backend = core.BackendInterp
	}
	if off := ss.disabled.Load(); off != nil && (*off)[backend] {
		return core.ExecResult{}, fmt.Errorf("backend %q is %w", backend, errBackendDisabled)
	}
	req.CacheDir, req.Gov, req.Input = ss.cfg.RunCacheDir, ss.gov, workloads.InputFor(ss.path)
	var res core.ExecResult
	var opErr error
	err := ss.post(ctx, func() {
		if opErr = ss.materialize(); opErr == nil {
			res, opErr = ss.live.Exec(ctx, req)
		}
	}, true)
	if err != nil {
		return core.ExecResult{}, err
	}
	return res, opErr
}

// Select switches unit and/or loop. Selection is session state that
// recovery must reproduce: once the session has a journal every select
// is journaled in order; before that it only moves the cursor, and the
// journal's birth records where the cursor stands.
func (ss *Session) Select(ctx context.Context, req SelectRequest) (SelectResponse, error) {
	res, err := ss.submit(ctx, &record{Op: recSelect, Unit: req.Unit, Loop: req.Loop})
	if err != nil {
		return SelectResponse{}, err
	}
	return res.sel, res.err
}

// Deps lists the selected loop's dependences after filtering.
func (ss *Session) Deps(ctx context.Context, q DepQuery) (DepsResponse, error) {
	f, err := q.filter()
	if err != nil {
		return DepsResponse{}, err
	}
	var resp DepsResponse
	if err := ss.post(ctx, func() {
		rows, _ := ss.depRows()
		resp.Unit, resp.Loop = ss.cursor()
		resp.Deps = f.Filter(rows)
	}, true); err != nil {
		return DepsResponse{}, err
	}
	return resp, nil
}

// errBadQuery marks a deps query naming a class `deps` does not take.
var errBadQuery = errors.New("bad deps query")

// filter is the pane's one filter for the wire query.
func (q DepQuery) filter() (core.DepFilter, error) {
	f := core.DepFilter{Sym: q.Sym, CarriedOnly: q.Carried, HideRejected: q.HideRejected, HidePrivate: q.HidePrivate}
	for _, name := range q.Classes {
		c, err := repl.DepClass(name)
		if err != nil {
			return f, fmt.Errorf("%w: %v", errBadQuery, err)
		}
		f.Classes = append(f.Classes, c)
	}
	return f, nil
}

// Classify overrides a variable's classification (materializes).
func (ss *Session) Classify(ctx context.Context, req ClassifyRequest) error {
	class := strings.ToLower(req.Class)
	if _, err := core.ParseVarClass(class); err != nil {
		return err
	}
	return ss.do(ctx, &record{Op: recClassify, Var: req.Var, Class: class})
}

// Transform checks or applies a power-steering transformation via the
// REPL grammar (name plus loop numbers / factors / variable names).
func (ss *Session) Transform(ctx context.Context, req TransformRequest) (CmdResponse, error) {
	verb := "apply"
	if req.CheckOnly {
		verb = "check"
	}
	line := verb + " " + req.Name
	if len(req.Args) > 0 {
		line += " " + strings.Join(req.Args, " ")
	}
	return ss.Cmd(ctx, line)
}

// Edit replaces (or deletes) a statement by ID (materializes).
func (ss *Session) Edit(ctx context.Context, req EditRequest) error {
	return ss.do(ctx, &record{Op: recEdit, Stmt: req.Stmt, Text: req.Text, Delete: req.Delete})
}

// Undo reverts the last transformation or edit (materializes; a
// session with no mutations has nothing to undo, exactly as cold).
func (ss *Session) Undo(ctx context.Context) error {
	return ss.do(ctx, &record{Op: recUndo})
}

// ---------------------------------------------------------------------------
// One path from a request to the editor

// submit posts rec to the actor and runs it through mutate. The error
// is a transport, lifecycle or gate refusal; the operation's own rides
// in outcome.err.
func (ss *Session) submit(ctx context.Context, rec *record) (outcome, error) {
	var res outcome
	var gateErr error
	if err := ss.post(ctx, func() { res, gateErr = ss.mutate(rec) }, true); err != nil {
		return outcome{}, err
	}
	return res, gateErr
}

// do is submit for the operations that answer with an error alone.
func (ss *Session) do(ctx context.Context, rec *record) error {
	res, err := ss.submit(ctx, rec)
	if err != nil {
		return err
	}
	return res.err
}

// mutate is the one path a state-changing request takes on the actor —
// a cmd line, select, classify, edit, undo, each step of an accepted
// plan: journal before apply (journalAppend is also the gate, where a
// migrating or read-only session refuses), apply, then the compaction
// bookkeeping — whether the operation succeeded or not, since a
// journaled rejection replays as the same rejection. A record that
// cannot be applied at all is, live, this request's failure.
func (ss *Session) mutate(rec *record) (outcome, error) {
	rec = ss.markByKey(rec)
	if err := ss.journalAppend(rec); err != nil {
		return outcome{}, err
	}
	res, err := ss.apply(rec)
	if err != nil {
		res.err = err
	}
	ss.noteMutation(rec)
	ss.maybeSnapshot()
	return res, nil
}

// apply executes one record against the editor: the single switch over
// rec.Op, reached by live requests (mutate) and by journal replay
// (applyRecord) alike, so replayed ≡ live holds by construction. The
// error means the record cannot be applied at all — the session will
// not materialize, or the op or class is not one this build knows;
// replay stops there.
func (ss *Session) apply(rec *record) (res outcome, err error) {
	switch rec.Op {
	case recCmd:
		res.out, res.err = ss.exec(rec.Line)
	case recSelect:
		res.sel, res.err = ss.doSelect(SelectRequest{Unit: rec.Unit, Loop: rec.Loop})
	case recClassify:
		var c core.VarClass
		if c, err = core.ParseVarClass(rec.Class); err != nil {
			return res, fmt.Errorf("seq %d: %w", rec.Seq, err)
		}
		if err = ss.materialize(); err == nil {
			res.err = ss.live.Classify(rec.Var, c)
		}
	case recEdit:
		if err = ss.materialize(); err != nil {
			break
		}
		if rec.Delete {
			res.err = ss.live.DeleteStmt(rec.Stmt)
		} else {
			res.err = ss.live.EditStmt(rec.Stmt, rec.Text)
		}
	case recUndo:
		if err = ss.materialize(); err == nil {
			res.err = ss.live.Undo()
		}
	case recMark:
		if err = ss.materialize(); err != nil {
			break
		}
		var id int
		var m dep.Mark
		switch id, m, err = ss.keyedMark(rec); {
		case err != nil:
		case id == 0:
			res.err = fmt.Errorf("no %s dependence on %s from s%d to s%d at level %d", rec.Class, rec.Sym, rec.Src, rec.Dst, rec.Level)
		default:
			res.err = ss.live.MarkDep(id, m)
		}
	default:
		err = fmt.Errorf("unknown record op %q at seq %d", rec.Op, rec.Seq)
	}
	return res, err
}

// markByKey turns a cmd record holding a mark line that names an edge
// of the current unit into a mark record naming that edge by key: an
// edge's number holds only until its graph is next built, and a replay
// under another analysis would number the edges otherwise. Any other
// record, and a mark line that does not parse or name an edge, is
// returned as it is and fails, journaled, as the cmd it is.
func (ss *Session) markByKey(rec *record) *record {
	if rec.Op != recCmd || ss.condition().refusal(true) != nil {
		return rec
	}
	if verb, _ := repl.Verb(rec.Line); verb != "mark" {
		return rec
	}
	id, m, err := repl.ParseMark(strings.Fields(rec.Line)[1:])
	if err != nil || ss.materialize() != nil {
		return rec
	}
	g := ss.live.State().Deps
	d := g.DepByID(id)
	if d == nil {
		return rec
	}
	key := &record{Op: recMark, Unit: ss.live.CurrentUnit().Name, Class: d.Class.String(), Sym: d.Sym.Name,
		Level: d.Level, Src: d.Src.ID(), Dst: d.Dst.ID(), Mark: m.String()}
	for _, e := range g.Deps[:id-1] {
		if key.names(e) {
			key.Nth++
		}
	}
	return key
}

// names reports whether d has the key of mark record rec.
func (rec *record) names(d *dep.Dependence) bool {
	return d.Sym.Name == rec.Sym && d.Class.String() == rec.Class && d.Level == rec.Level &&
		d.Src.ID() == rec.Src && d.Dst.ID() == rec.Dst
}

// keyedMark finds the edge a mark record names in the current unit's
// graph, returning its number (0 when the graph has no such edge) and
// the judgement. A record whose unit is not the cursor's, or whose
// judgement this build does not know, cannot be applied.
func (ss *Session) keyedMark(rec *record) (int, dep.Mark, error) {
	if u := ss.live.CurrentUnit(); u == nil || u.Name != rec.Unit {
		return 0, 0, fmt.Errorf("seq %d: mark record for unit %s away from the cursor", rec.Seq, rec.Unit)
	}
	m := dep.MarkProven
	for _, k := range []dep.Mark{dep.MarkAccepted, dep.MarkRejected, dep.MarkPending} {
		if k.String() == rec.Mark {
			m = k
		}
	}
	if m == dep.MarkProven {
		return 0, 0, fmt.Errorf("seq %d: unknown mark %q", rec.Seq, rec.Mark)
	}
	n := rec.Nth
	for _, d := range ss.live.State().Deps.Deps {
		if rec.names(d) {
			if n == 0 {
				return d.ID, m, nil
			}
			n--
		}
	}
	return 0, m, nil
}

// applyRecord replays one journal record against a rebuilding session,
// on the actor, during recovery and import: apply without
// journalAppend, so replay cannot re-journal what it reads. The
// operation's own failure is deliberately ignored: a journaled command
// that failed re-fails identically, leaving identical state. The
// returned error means the replay itself cannot proceed (divergence,
// injected fault, a record apply refuses) and the caller degrades the
// session at the recovered prefix.
func (ss *Session) applyRecord(rec *record) error {
	if err := faultpoint.Hit(faultpoint.JournalReplay, ss.ID+":"+rec.Op); err != nil {
		return err
	}
	if rec.PreHash != "" {
		if h := ss.currentHash(); h != rec.PreHash {
			return fmt.Errorf("replay divergence at seq %d (%s): rebuilt source hash %.12s…, journal expected %.12s…",
				rec.Seq, rec.Op, h, rec.PreHash)
		}
	}
	if _, err := ss.apply(rec); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	ss.noteMutation(rec)
	return nil
}

// ---------------------------------------------------------------------------
// Journaling (actor-confined)

// cursorRecord reports a record that only moves the cursor — the typed
// select or the REPL's unit/loop/next. Such a record is journaled in
// order once a journal exists, but never gives birth to one.
func cursorRecord(rec *record) bool {
	return rec.Op == recSelect || rec.Op == recCmd && lineClass(rec.Line) == repl.Cursor
}

func lineClass(line string) repl.Class {
	_, class := repl.Verb(line)
	return class
}

// currentHash fingerprints the printed program — the PreHash integrity
// chain each journal record carries: sha256 of the `save` text, read
// from the session's memoized source image (or the artifacts' constant)
// so that journaling an operation never prints or hashes the program.
func (ss *Session) currentHash() string {
	if ss.live != nil {
		return ss.live.SourceHash()
	}
	return ss.art.PrintedHash
}

// currentSource is the session's program text, read off the source
// image: the live session's when materialised, else the artifact's.
func (ss *Session) currentSource() string {
	if ss.live != nil {
		return ss.live.Save()
	}
	return ss.art.Printed
}

// journalAppend writes rec (journal-before-apply: the mutation only
// runs if its record is durable per the fsync policy). The journal is
// born here, by the first record that is not a cursor move: until then
// the session equals its open plus a cursor, which the client can have
// again by reopening, so nothing is on disk and cursor moves are free.
// A failed append or birth degrades the session to read-only and
// returns the degradation error; without a data directory everything is
// free. mutate calls this on the actor before every apply, so it is
// also where a read-only session refuses (cursor moves included —
// memory must not run ahead of a journal that stopped taking writes)
// and where a session frozen for migration rejects, durable or not:
// nothing mutates behind an in-flight export.
func (ss *Session) journalAppend(rec *record) error {
	if err := ss.condition().refusal(true); err != nil {
		return err
	}
	jr := ss.jr.Load()
	if jr == nil && (ss.cfg.DataDir == "" || cursorRecord(rec)) {
		return nil
	}
	rec.PreHash = ss.currentHash()
	var err error
	what := "journal append"
	if jr != nil {
		err = jr.append(rec)
	} else {
		what, err = "journal create", ss.birth(rec)
	}
	if err != nil {
		ss.degradeReadOnly(fmt.Sprintf("%s: %v", what, err))
		return ss.condition().refusal(true)
	}
	return nil
}

// birth creates the journal for the session's first mutation and writes,
// in one append (one write, one fsync under FsyncAlways): the open
// record with the source the session was opened with, one select record
// if the cursor has left its default, and the mutation's own record.
// Recovery replays exactly that; the walk that led to the cursor is not
// kept. A failed birth leaves no file of its own behind — and never
// touches a foreign one that O_EXCL refused.
func (ss *Session) birth(rec *record) error {
	jr, err := createJournal(ss.cfg.DataDir, ss.ID, ss.cfg.Fsync, ss.metrics)
	if err != nil {
		return err
	}
	recs := []*record{{Op: recOpen, Path: ss.path, Source: ss.source}}
	if unit, loop := ss.cursor(); unit != ss.defUnit || loop != 0 {
		recs = append(recs, &record{Op: recSelect, Unit: unit, Loop: loop, PreHash: rec.PreHash})
	}
	if err := jr.append(append(recs, rec)...); err != nil {
		jr.remove()
		return err
	}
	ss.jr.Store(jr)
	return nil
}

// noteMutation updates compaction bookkeeping for one applied record —
// live and replayed alike. A sticky record changes state that lives
// outside the printed source (marks, assertions, variable classes,
// analysis toggles): a source snapshot cannot represent it, so from
// then on the journal stops compacting and keeps the full history.
func (ss *Session) noteMutation(rec *record) {
	if ss.jr.Load() == nil {
		return
	}
	if rec.Op == recClassify || rec.Op == recMark || rec.Op == recCmd && lineClass(rec.Line) == repl.Sticky {
		ss.sticky = true
	}
	ss.mutsSinceSnap++
}

// snapshotRecord captures everything a source snapshot can represent:
// the printed program, the undo stack and the cursor. The journal
// rewrite stamps Seq and Time itself; Export stamps its own.
func (ss *Session) snapshotRecord() *record {
	snap := &record{Op: recSnapshot, Path: ss.path, Source: ss.currentSource()}
	snap.Unit, snap.Loop = ss.cursor()
	if ss.live != nil {
		snap.Undo = ss.live.UndoStack()
	}
	return snap
}

// cursor names the current unit and the selected loop (1-based source
// order, 0 = none).
func (ss *Session) cursor() (unit string, loop int) {
	if ss.live == nil {
		return ss.art.Units[ss.curUnit].Name, ss.curLoop
	}
	if u := ss.live.CurrentUnit(); u != nil {
		unit = u.Name
	}
	return unit, ss.liveLoopOrdinal()
}

// maybeSnapshot compacts the journal to a single snapshot record once
// enough mutations have accumulated. Sticky state blocks compaction
// (the snapshot could not represent it), and a read-only session never
// rewrites. A failed rewrite leaves the old journal serving but
// degrades the session: the snapshot path just proved this disk is not
// accepting writes.
func (ss *Session) maybeSnapshot() {
	jr := ss.jr.Load()
	if jr == nil || ss.cfg.SnapshotEvery <= 0 || ss.mutsSinceSnap < ss.cfg.SnapshotEvery ||
		ss.sticky || ss.ReadOnlyReason() != "" {
		return
	}
	if err := jr.rewrite(ss.snapshotRecord()); err != nil {
		ss.degradeReadOnly(fmt.Sprintf("journal snapshot: %v", err))
		return
	}
	ss.mutsSinceSnap = 0
}

// ---------------------------------------------------------------------------
// Actor-confined implementation

// materialize builds the live core.Session for an artifact-backed
// session and replays its selection. No-op when already live.
func (ss *Session) materialize() error {
	if ss.live != nil {
		return nil
	}
	cs, err := core.OpenObserved(ss.path, ss.source, ss.cfg.Workers, ss.metrics)
	if err != nil {
		return fmt.Errorf("materialize: %v", err)
	}
	if ss.curUnit != ss.art.DefaultUnit {
		if err := cs.SelectUnit(ss.art.Units[ss.curUnit].Name); err != nil {
			return err
		}
	}
	if ss.curLoop > 0 {
		if err := cs.SelectLoop(ss.curLoop); err != nil {
			return err
		}
	}
	ss.live = cs
	ss.rep = repl.New(cs, io.Discard)
	ss.art = nil
	ss.metrics.Materializations.Inc()
	return nil
}

// exec runs one REPL line. The live REPL is the reference for what a
// line does, how it parses and how its answer reads; an artifact-backed
// session answers only what its artifacts can answer successfully
// (artAnswer) and materializes for everything else — a mistyped cursor
// move included, whose error is then the REPL's own.
func (ss *Session) exec(line string) (string, error) {
	if ss.live == nil {
		if out, ok := ss.artAnswer(line); ok {
			return out, nil
		}
		if err := ss.materialize(); err != nil {
			return "", err
		}
	}
	var buf bytes.Buffer
	ss.rep.Out = &buf
	err := ss.rep.Execute(line)
	ss.rep.Done = false // `quit` has no meaning server-side
	return buf.String(), err
}

// artifactReads maps each read verb the artifacts hold an answer for to
// that answer at the session's cursor — what the verb prints with no
// argument. Session lifetime is DELETE /v1/sessions/{id}'s business, so
// quit and exit answer nothing.
var artifactReads = map[string]func(ss *Session) string{
	"quit":   func(*Session) string { return "" },
	"exit":   func(*Session) string { return "" },
	"help":   func(*Session) string { return repl.HelpText() },
	"legend": func(*Session) string { return view.Legend() },
	"save":   func(ss *Session) string { return ss.art.Printed },
	"perf":   func(ss *Session) string { return ss.art.Units[ss.curUnit].PerfText },
	"loops":  func(ss *Session) string { return ss.art.Units[ss.curUnit].LoopsText },
	"deps":   func(ss *Session) string { return ss.artDeps(core.DepFilter{}) },
	"vars":   func(ss *Session) string { return ss.artLoop().VarPane },
	"units": func(ss *Session) string {
		var b strings.Builder
		for i, u := range ss.art.Units {
			b.WriteString(view.UnitLine(u.Kind, u.Name, i == ss.curUnit))
		}
		return b.String()
	},
}

// artAnswer answers line from the artifacts: a blank line, a read verb
// of artifactReads without arguments, `deps` with arguments the REPL's
// parser accepts, or a valid `unit <name>` / `loop <n>`. ok=false
// declines — the line needs the live REPL.
func (ss *Session) artAnswer(line string) (out string, ok bool) {
	f := strings.Fields(line)
	if len(f) == 0 {
		return "", true
	}
	verb, args := strings.ToLower(f[0]), f[1:]
	switch {
	case len(args) == 0 && artifactReads[verb] != nil:
		return artifactReads[verb](ss), true
	case verb == "deps":
		if filter, err := repl.ParseDepFilter(args); err == nil {
			return ss.artDeps(filter), true
		}
	case verb == "unit" && len(args) == 1:
		return "", ss.artSelect(args[0], 0)
	case verb == "loop" && len(args) == 1:
		if n, err := strconv.Atoi(args[0]); err == nil && n != 0 && ss.artSelect("", n) {
			return view.DepSummaryOf(ss.depRows()) + "\n", true
		}
	}
	return "", false
}

// artDeps renders the dependence pane under f from the artifacts' rows.
func (ss *Session) artDeps(f core.DepFilter) string {
	rows, selected := ss.depRows()
	return view.DepPaneOf(f.Filter(rows), selected)
}

// depRows is the selected loop's unfiltered dependence pane, live or
// kept by the artifacts, and whether a loop is selected.
func (ss *Session) depRows() ([]DepInfo, bool) {
	if ss.live != nil {
		return ss.live.DepRows(), ss.live.SelectedLoop() != nil
	}
	return ss.artLoop().Deps, ss.curLoop != 0
}

// artLoop returns the artifacts of the selected loop, or of no selection.
func (ss *Session) artLoop() *LoopArtifacts {
	if ss.curLoop == 0 {
		return noLoop
	}
	return &ss.art.Units[ss.curUnit].Loops[ss.curLoop-1]
}

// artSelect is the artifacts' one cursor move, shared by the cmd line
// and the typed select: it moves to unit (if named) and loop (if
// non-zero) when both exist, and otherwise declines without moving.
func (ss *Session) artSelect(unit string, loop int) bool {
	u, l := ss.curUnit, ss.curLoop
	if unit != "" {
		if u, l = ss.art.unitIndex(unit), 0; u < 0 {
			return false
		}
	}
	if loop != 0 {
		if l = loop; l < 1 || l > len(ss.art.Units[u].Loops) {
			return false
		}
	}
	ss.curUnit, ss.curLoop = u, l
	return true
}

func (ss *Session) doSelect(req SelectRequest) (SelectResponse, error) {
	if ss.live == nil && !ss.artSelect(req.Unit, req.Loop) {
		if err := ss.materialize(); err != nil {
			return SelectResponse{}, err
		}
	}
	if ss.live != nil {
		if req.Unit != "" {
			if err := ss.live.SelectUnit(req.Unit); err != nil {
				return SelectResponse{}, err
			}
		}
		if req.Loop != 0 {
			if err := ss.live.SelectLoop(req.Loop); err != nil {
				return SelectResponse{}, err
			}
		}
	}
	resp := SelectResponse{Summary: view.DepSummaryOf(ss.depRows())}
	resp.Unit, resp.Loop = ss.cursor()
	return resp, nil
}

// liveLoopOrdinal finds the 1-based source-order number of the
// selected loop, or 0.
func (ss *Session) liveLoopOrdinal() int {
	sel := ss.live.SelectedLoop()
	if sel == nil {
		return 0
	}
	for i, l := range ss.live.Loops() {
		if l.Do == sel.Do {
			return i + 1
		}
	}
	return 0
}
