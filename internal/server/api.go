// Package server hosts many concurrent ParaScope Editor sessions
// behind an HTTP/JSON API — the pedd daemon. It wraps core.Session in
// a session manager (create/attach/expire with TTL eviction), keeps
// the untouched core data-race-free by confining every session to a
// single actor goroutine, and caches analysis artifacts by content
// hash so reopening an unchanged program is a map hit instead of a
// reparse and reanalysis.
package server

import (
	"time"

	"parascope/internal/core"
	"parascope/internal/httpedge"
	"parascope/internal/planner"
)

// OpenRequest creates a session: either over a built-in workload by
// name, or over raw source text with its display path.
type OpenRequest struct {
	Workload string `json:"workload,omitempty"`
	Path     string `json:"path,omitempty"`
	Source   string `json:"source,omitempty"`
	// ID, when set, is the session ID to open under instead of a
	// server-minted one — the cluster gateway mints IDs itself so the
	// consistent-hash ring can route every later request without any
	// per-session routing state. An ID already in use is a 409.
	ID string `json:"id,omitempty"`
}

// OpenResponse describes the created session.
type OpenResponse struct {
	ID    string   `json:"id"`
	Path  string   `json:"path"`
	Units []string `json:"units"`
	// Cached reports that the session is artifact-backed: it answers
	// reads from the cached artifacts of its source until a line they
	// cannot answer makes it live. A source's first open is live; its
	// second analyzes, caches the artifacts and opens from them; later
	// opens are cache hits, with no parse and no analysis.
	Cached bool `json:"cached"`
}

// SessionInfo is one row of the session listing.
type SessionInfo struct {
	ID   string `json:"id"`
	Path string `json:"path"`
	// State is the lifecycle state: active, failed (quarantined after
	// a panic), or closed.
	State string `json:"state"`
	// Live reports whether a full core.Session has been materialized;
	// cache-hit sessions stay artifact-backed until a mutating or
	// unsupported command arrives.
	Live bool `json:"live"`
	// Mutated reports whether the session has changed the program or
	// the analysis inputs since opening.
	Mutated bool `json:"mutated"`
	// ReadOnly reports journal-failure degradation: reads still serve
	// from memory, mutating requests are rejected with 503.
	ReadOnly bool `json:"read_only,omitempty"`
	// Journaled reports whether the session has anything on disk. With
	// -datadir a session journals from its first mutation; until then
	// (and always without -datadir) a restart or failover answers 404
	// and the client reopens from the source it holds.
	Journaled   bool    `json:"journaled"`
	IdleSeconds float64 `json:"idle_seconds"`
}

// FailureInfo diagnoses a quarantined session: what panicked, the
// captured stacks, and when.
type FailureInfo struct {
	Reason string    `json:"reason"`
	Stack  string    `json:"stack,omitempty"`
	Time   time.Time `json:"time"`
}

// SessionStatusResponse is the body of GET /v1/sessions/{id}: the
// listing row plus, for a quarantined session, its failure, and for a
// read-only (journal-degraded) session, why it degraded.
type SessionStatusResponse struct {
	SessionInfo
	Failure        *FailureInfo `json:"failure,omitempty"`
	ReadOnlyReason string       `json:"read_only_reason,omitempty"`
}

// CmdRequest runs one REPL command line in the session.
type CmdRequest struct {
	Line string `json:"line"`
}

// CmdResponse carries the command's output; Err is the command-level
// error text (the HTTP status stays 200 — the request itself worked).
type CmdResponse struct {
	Output string `json:"output"`
	Err    string `json:"error,omitempty"`
}

// SelectRequest switches the current unit and/or selects a loop
// (1-based, source order). Zero values leave the dimension unchanged.
type SelectRequest struct {
	Unit string `json:"unit,omitempty"`
	Loop int    `json:"loop,omitempty"`
}

// SelectResponse reports the selection and the per-class dependence
// summary of the selected loop.
type SelectResponse struct {
	Unit    string `json:"unit"`
	Loop    int    `json:"loop"`
	Summary string `json:"summary"`
}

// DepInfo is one dependence of the selected loop: a row of the
// dependence pane.
type DepInfo = core.DepInfo

// DepQuery filters the dependence listing (mirrors `deps` filters):
// Classes are the class names `deps` takes, and an unknown one is a
// bad request (400).
type DepQuery struct {
	Carried      bool
	HideRejected bool
	HidePrivate  bool
	Sym          string
	Classes      []string
}

// DepsResponse lists the selected loop's dependences after filtering.
type DepsResponse struct {
	Unit string    `json:"unit"`
	Loop int       `json:"loop"`
	Deps []DepInfo `json:"deps"`
}

// ClassifyRequest overrides a variable's classification.
type ClassifyRequest struct {
	Var   string `json:"var"`
	Class string `json:"class"`
}

// TransformRequest checks or applies a power-steering transformation;
// Args follow the REPL syntax (loop numbers, factors, variable
// names). CheckOnly diagnoses without applying.
type TransformRequest struct {
	Name      string   `json:"name"`
	Args      []string `json:"args,omitempty"`
	CheckOnly bool     `json:"check_only,omitempty"`
}

// RunRequest executes the session's current program through the
// unified execution API. Backend selects the engine: "interp" (the
// default, the simulating interpreter) or "compile" (lower to Go,
// build into the pedc cache, run the native binary).
type RunRequest struct {
	Backend string `json:"backend,omitempty"`
	// Workers bounds DOALL fan-out; values below one mean one.
	Workers int `json:"workers,omitempty"`
	// TimeoutMs kills the run after this many milliseconds; zero
	// means the daemon's governed default (60s unless -runtimeout).
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Fallback degrades a compile decline or build failure to the
	// interpreter instead of failing; the reason comes back in
	// RunResponse.Fallback.
	Fallback bool `json:"fallback,omitempty"`
}

// RunResponse carries one execution's captured output and timing.
type RunResponse struct {
	Output string `json:"output"`
	// WallMicros is the run's wall-clock time in microseconds.
	WallMicros int64 `json:"wall_us"`
	// SimCycles is the interpreter's simulated parallel cycle count;
	// zero when the compile backend ran.
	SimCycles int64 `json:"sim_cycles,omitempty"`
	// Backend echoes which engine actually executed the program.
	Backend string `json:"backend"`
	// Fallback carries the compile decline/build failure that rerouted
	// this run to the interpreter; empty when the requested backend ran.
	Fallback string `json:"fallback,omitempty"`
}

// EditRequest replaces (or with Delete, removes) a statement by ID.
type EditRequest struct {
	Stmt   int    `json:"stmt"`
	Text   string `json:"text,omitempty"`
	Delete bool   `json:"delete,omitempty"`
}

// CacheStatsResponse reports the analysis cache counters.
type CacheStatsResponse struct {
	Entries int   `json:"entries"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
}

// PlanRequest starts a speculative plan search over the session's
// current source. Zero values take the daemon defaults; Async returns
// 202 immediately and the result is polled via GET .../plan.
type PlanRequest struct {
	BeamWidth int  `json:"beam_width,omitempty"`
	MaxDepth  int  `json:"max_depth,omitempty"`
	MaxWorlds int  `json:"max_worlds,omitempty"`
	TimeoutMs int  `json:"timeout_ms,omitempty"`
	TopPlans  int  `json:"top_plans,omitempty"`
	NoInterp  bool `json:"no_interp,omitempty"`
	// Compiled adds real wall-clock speedups from the pedc compile
	// backend to interp-validated finalists.
	Compiled bool `json:"compiled,omitempty"`
	Async    bool `json:"async,omitempty"`
}

// PlanResponse is the state of a session's latest plan search. Status
// is "running", "done", or "failed"; Cached marks a result served
// from the plan cache (same source hash, unit, and budget).
type PlanResponse struct {
	SessionID       string         `json:"session_id"`
	Unit            string         `json:"unit,omitempty"`
	BaseHash        string         `json:"base_hash,omitempty"`
	Status          string         `json:"status"`
	Error           string         `json:"error,omitempty"`
	Cached          bool           `json:"cached,omitempty"`
	WorldsForked    int            `json:"worlds_forked"`
	WorldsScored    int            `json:"worlds_scored"`
	WorldsDiscarded int            `json:"worlds_discarded"`
	ElapsedMs       int64          `json:"elapsed_ms"`
	Plans           []planner.Plan `json:"plans"`
}

// ApplyPlanRequest accepts a plan: either a full plan object (as
// returned by PlanResponse) or a 1-based Index into the session's
// last search result. The plan's steps are replayed through the
// normal journaled mutation path.
type ApplyPlanRequest struct {
	Plan  *planner.Plan `json:"plan,omitempty"`
	Index int           `json:"index,omitempty"`
}

// ApplyPlanResponse reports the applied plan and the resulting source
// hash (which equals the plan's final step hash when the replay
// converged).
type ApplyPlanResponse struct {
	Plan    string `json:"plan"`
	Applied int    `json:"applied"`
	Hash    string `json:"hash"`
}

// MigrateRequest moves a session to another pedd node. Target is the
// destination's base URL (e.g. "http://10.0.0.2:7473"); the source
// freezes the session, drains its queue, ships the journal stream to
// the target's import endpoint, and leaves a tombstone behind that
// answers 421 with the new location.
type MigrateRequest struct {
	Target string `json:"target"`
}

// MigrateResponse reports a completed outbound migration.
type MigrateResponse struct {
	ID string `json:"id"`
	// Location is the session's new URL on the target node.
	Location string `json:"location"`
	// Bytes is the size of the journal stream that was shipped.
	Bytes int64 `json:"bytes"`
}

// ImportResponse reports a session adopted from a journal stream.
type ImportResponse struct {
	ID      string `json:"id"`
	Path    string `json:"path"`
	Records int    `json:"records"`
}

// ErrorResponse is the JSON body of every non-2xx response, as the
// HTTP edge writes it.
type ErrorResponse = httpedge.ErrorResponse
