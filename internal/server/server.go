package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"parascope/internal/execguard"
	"parascope/internal/httpedge"
)

// Default request-hardening limits; override via Options.
const (
	// DefaultReqTimeout bounds each request end to end: a command
	// still queued when it expires is abandoned, and the client gets
	// 504 instead of waiting on a wedged session.
	DefaultReqTimeout = 30 * time.Second
	// DefaultMaxBodyBytes bounds request bodies (413 past it).
	DefaultMaxBodyBytes = httpedge.DefaultMaxBody
)

// Options tunes the HTTP hardening and observability layers.
type Options struct {
	// ReqTimeout is the per-request deadline (0 = DefaultReqTimeout,
	// negative = disabled).
	ReqTimeout time.Duration
	// MaxBodyBytes caps request bodies (0 = DefaultMaxBodyBytes,
	// negative = disabled).
	MaxBodyBytes int64
	// Metrics receives request counters and latency histograms
	// (nil = the manager's registry).
	Metrics *Metrics
	// AccessLog, when set, gets one structured line per request
	// (request ID, method, route, status, duration).
	AccessLog *slog.Logger
	// Ready, when set, backs GET /readyz on the serving mux (the ops
	// listener mounts the same flag). Nil means always ready.
	Ready *httpedge.Readiness
	// DisabledBackends lists execution backends the daemon refuses to
	// run with 501 (e.g. "compile" on hosts without a Go toolchain),
	// whether asked over POST /run or the cmd route's `run` verb.
	DisabledBackends []string
}

// importMaxBytes caps journal streams on POST /v1/sessions/import.
// Migration ships whole journals, which dwarf command bodies, so the
// import route gets its own cap instead of Options.MaxBodyBytes.
const importMaxBytes = 64 << 20

// Server is the HTTP front of a Manager. Routes (all JSON):
//
//	GET    /healthz                      liveness
//	GET    /v1/cache                     analysis cache counters
//	POST   /v1/sessions                  open (workload | path+source)
//	GET    /v1/sessions                  list
//	GET    /v1/sessions/{id}             state + failure diagnostics
//	DELETE /v1/sessions/{id}             close
//	POST   /v1/sessions/{id}/cmd         run one REPL command line
//	POST   /v1/sessions/{id}/select      select unit and/or loop
//	GET    /v1/sessions/{id}/deps        dependence listing (filters
//	                                     via query params)
//	POST   /v1/sessions/{id}/classify    reclassify a variable
//	POST   /v1/sessions/{id}/transform   check/apply a transformation
//	POST   /v1/sessions/{id}/edit        edit or delete a statement
//	POST   /v1/sessions/{id}/undo        undo the last change
//	POST   /v1/sessions/{id}/run         execute the program (backend
//	                                     interp|compile; 501 when the
//	                                     backend is disabled by flag)
//	POST   /v1/sessions/{id}/plan        speculative plan search (202
//	                                     when async; 409 one-at-a-time;
//	                                     429 daemon at plan capacity)
//	GET    /v1/sessions/{id}/plan        latest plan search result
//	POST   /v1/sessions/{id}/apply-plan  accept a plan (replayed via
//	                                     the journal; 409 stale/diverged)
//
// The routes are mounted on an httpedge.Edge, so every request runs
// under a deadline and a body-size cap, carries an X-Request-ID
// (generated when the client sends none, echoed on the response and
// inside error bodies), and is instrumented: per-route counters and
// latency histograms, plus an optional structured access log. Every
// session error is mapped to a precise status (see writeOpError) so
// clients can tell a quarantined session (500) from a closed one (410),
// backpressure (429/503) from timeout (504).
type Server struct {
	edge *httpedge.Edge
	mgr  *Manager
}

// sessionHandler serves a route on the session its {id} resolved to.
type sessionHandler = func(http.ResponseWriter, *http.Request, *Session)

// ServeHTTP implements http.Handler through the edge.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.edge.ServeHTTP(w, r) }

// New wires the routes over a manager with default hardening limits.
func New(mgr *Manager) *Server { return NewWith(mgr, Options{}) }

// NewWith wires the routes with explicit limits.
func NewWith(mgr *Manager, opts Options) *Server {
	if opts.ReqTimeout == 0 {
		opts.ReqTimeout = DefaultReqTimeout
	}
	if opts.Metrics == nil {
		opts.Metrics = mgr.Metrics()
	}
	s := &Server{
		mgr: mgr,
		edge: httpedge.New(httpedge.Config{
			Metrics:   opts.Metrics.Metrics,
			AccessLog: opts.AccessLog,
			Timeout:   opts.ReqTimeout,
			MaxBody:   opts.MaxBodyBytes,
			Ready:     opts.Ready,
		}),
	}
	disabled := map[string]bool{}
	for _, b := range opts.DisabledBackends {
		disabled[strings.ToLower(strings.TrimSpace(b))] = true
	}
	mgr.disabled.Store(&disabled)
	s.edge.Handle("GET /v1/cache", func(w http.ResponseWriter, r *http.Request) {
		httpedge.WriteJSON(w, http.StatusOK, mgr.CacheStats())
	})
	open := typed(http.StatusCreated, func(_ *Session, ctx context.Context, req OpenRequest) (OpenResponse, error) {
		_, resp, err := mgr.Open(ctx, req)
		return resp, err
	})
	s.edge.Handle("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) { open(w, r, nil) })
	s.edge.Handle("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		httpedge.WriteJSON(w, http.StatusOK, mgr.List(r.Context()))
	})
	s.edge.Handle("GET /v1/sessions/{id}", s.session(s.handleStatus))
	s.edge.Handle("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !mgr.Close(r.PathValue("id")) {
			httpedge.WriteError(w, http.StatusNotFound, errors.New("no such session"))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	s.edge.Handle("POST /v1/sessions/{id}/cmd", s.session(typed(http.StatusOK,
		func(ss *Session, ctx context.Context, req CmdRequest) (CmdResponse, error) {
			return ss.Cmd(ctx, req.Line)
		})))
	s.edge.Handle("POST /v1/sessions/{id}/select", s.session(typed(http.StatusOK, (*Session).Select)))
	s.edge.Handle("GET /v1/sessions/{id}/deps", s.session(s.handleDeps))
	s.edge.Handle("POST /v1/sessions/{id}/classify", s.session(noContent((*Session).Classify)))
	s.edge.Handle("POST /v1/sessions/{id}/transform", s.session(typed(http.StatusOK, (*Session).Transform)))
	s.edge.Handle("POST /v1/sessions/{id}/edit", s.session(noContent((*Session).Edit)))
	s.edge.Handle("POST /v1/sessions/{id}/undo", s.session(s.handleUndo))
	s.edge.Handle("POST /v1/sessions/{id}/run", s.session(typed(http.StatusOK, (*Session).Run)))
	s.edge.Handle("POST /v1/sessions/{id}/plan", s.session(s.handlePlan))
	s.edge.Handle("GET /v1/sessions/{id}/plan", s.session(s.handlePlanStatus))
	s.edge.Handle("POST /v1/sessions/{id}/apply-plan", s.session(typed(http.StatusOK, (*Session).ApplyPlan)))
	// Cluster: session migration. The literal "import" segment outranks
	// "{id}" in mux precedence, so "import" is never taken for an ID.
	s.edge.Handle("GET /v1/sessions/{id}/journal", s.session(s.handleJournal))
	// Journal streams dwarf command bodies; the import route carries
	// whole sessions and gets its own cap (none when caps are disabled).
	importCap := opts.MaxBodyBytes
	if importCap >= 0 {
		importCap = max(importCap, importMaxBytes)
	}
	s.edge.HandleCap("POST /v1/sessions/import", importCap, s.handleImport)
	s.edge.Handle("POST /v1/sessions/{id}/migrate", s.session(typed(http.StatusOK,
		func(ss *Session, ctx context.Context, req MigrateRequest) (MigrateResponse, error) {
			if req.Target == "" {
				return MigrateResponse{}, errNoTarget
			}
			return mgr.Migrate(ctx, ss, req.Target)
		})))
	return s
}

// handleJournal streams the session's journal image — the exact bytes
// an import replays. Non-durable sessions get a synthesized one-record
// snapshot stream.
func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request, ss *Session) {
	data, err := ss.Export(r.Context())
	if err != nil {
		writeOpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

// handleImport adopts a session from a journal stream shipped by
// another node (or by the gateway during failover). The stream is
// validated end to end before anything is registered: a torn or
// corrupt stream is rejected whole, never truncated-and-accepted like
// startup recovery — the source must stay authoritative.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		httpedge.WriteError(w, http.StatusBadRequest, errors.New("import: missing id query parameter"))
		return
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		if !httpedge.TooLarge(w, err, "journal stream") {
			httpedge.WriteError(w, http.StatusBadRequest, fmt.Errorf("import: reading stream: %w", err))
		}
		return
	}
	resp, err := s.mgr.Import(r.Context(), id, data)
	answer(w, http.StatusCreated, resp, err)
}

// handlePlan answers 202 while an async search is still running.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request, ss *Session) {
	var req PlanRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := ss.Plan(r.Context(), req)
	status := http.StatusOK
	if resp.Status == "running" {
		status = http.StatusAccepted
	}
	answer(w, status, resp, err)
}

func (s *Server) handlePlanStatus(w http.ResponseWriter, r *http.Request, ss *Session) {
	resp, ok := ss.PlanStatus()
	if !ok {
		httpedge.WriteError(w, http.StatusNotFound, errors.New("no plan search has run for this session"))
		return
	}
	httpedge.WriteJSON(w, http.StatusOK, resp)
}

// session resolves {id} before running the handler. A session that
// migrated away answers 421 Misdirected Request with a Location
// pointing at the same path on the node that adopted it, so a
// redirect-following client (or the gateway) recovers in one hop.
func (s *Server) session(h sessionHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		ss := s.mgr.Get(id)
		if ss == nil {
			if target, ok := s.mgr.MovedTo(id); ok {
				w.Header().Set("Location", strings.TrimRight(target, "/")+r.URL.RequestURI())
				httpedge.WriteError(w, http.StatusMisdirectedRequest,
					fmt.Errorf("session %s migrated to %s", id, target))
				return
			}
			httpedge.WriteError(w, http.StatusNotFound, errors.New("no such session"))
			return
		}
		h(w, r, ss)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request, ss *Session) {
	resp := SessionStatusResponse{
		SessionInfo:    ss.Info(r.Context()),
		Failure:        ss.Failure(),
		ReadOnlyReason: ss.ReadOnlyReason(),
	}
	httpedge.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDeps(w http.ResponseWriter, r *http.Request, ss *Session) {
	q := r.URL.Query()
	dq := DepQuery{
		Carried:      boolParam(q.Get("carried")),
		HideRejected: boolParam(q.Get("hiderejected")),
		HidePrivate:  boolParam(q.Get("hideprivate")),
		Sym:          q.Get("sym"),
	}
	for _, c := range q["class"] {
		for _, part := range strings.Split(c, ",") {
			if part != "" {
				dq.Classes = append(dq.Classes, part)
			}
		}
	}
	resp, err := ss.Deps(r.Context(), dq)
	answer(w, http.StatusOK, resp, err)
}

func (s *Server) handleUndo(w http.ResponseWriter, r *http.Request, ss *Session) {
	answer(w, http.StatusNoContent, nil, ss.Undo(r.Context()))
}

func boolParam(v string) bool { return v == "1" || strings.EqualFold(v, "true") }

// typed is the one adapter behind the typed JSON routes: decode the
// request strictly into Req, run the operation on the session, answer.
func typed[Req, Resp any](status int, op func(*Session, context.Context, Req) (Resp, error)) sessionHandler {
	return func(w http.ResponseWriter, r *http.Request, ss *Session) {
		var req Req
		if !readJSON(w, r, &req) {
			return
		}
		resp, err := op(ss, r.Context(), req)
		answer(w, status, resp, err)
	}
}

// noContent is typed for an operation that answers with an error alone.
func noContent[Req any](op func(*Session, context.Context, Req) error) sessionHandler {
	return typed(http.StatusNoContent, func(ss *Session, ctx context.Context, req Req) (struct{}, error) {
		return struct{}{}, op(ss, ctx, req)
	})
}

// answer writes an operation's outcome: its error through opStatus, or
// resp with status (no body for 204).
func answer(w http.ResponseWriter, status int, resp any, err error) {
	switch {
	case err != nil:
		writeOpError(w, err)
	case status == http.StatusNoContent:
		w.WriteHeader(status)
	default:
		httpedge.WriteJSON(w, status, resp)
	}
}

// readJSON decodes one JSON value strictly: unknown fields are
// rejected (400, naming the field), trailing garbage after the value
// is rejected (400), and a body past the size cap is 413.
func readJSON(w http.ResponseWriter, r *http.Request, into interface{}) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		if !httpedge.TooLarge(w, err, "request body") {
			httpedge.WriteError(w, http.StatusBadRequest, err)
		}
		return false
	}
	if tok, err := dec.Token(); err != io.EOF {
		if err == nil {
			httpedge.WriteError(w, http.StatusBadRequest,
				fmt.Errorf("trailing data after JSON body (next token %v)", tok))
		} else {
			httpedge.WriteError(w, http.StatusBadRequest,
				fmt.Errorf("trailing data after JSON body"))
		}
		return false
	}
	return true
}

// errNoTarget is a migrate request that names no node.
var errNoTarget = errors.New("migrate: missing target")

// statusClientClosedRequest is the nginx convention for a client that
// disconnected before the response was ready; nothing useful can be
// delivered, but logs and tests see a distinct status.
const statusClientClosedRequest = 499

// opStatus is the one error → status table, for every route: the first
// row whose error err wraps decides; an error no row claims is a
// command-level rejection, 422. retry rows also carry Retry-After —
// the refusal is transient and came before any work was done.
var opStatus = []struct {
	err    error
	status int
	retry  bool
}{
	{errNoTarget, http.StatusBadRequest, false},                  // migrate request without a target
	{errBadQuery, http.StatusBadRequest, false},                  // deps query naming an unknown class
	{ErrSessionClosed, http.StatusGone, false},                   // closed or evicted
	{ErrPlanConflict, http.StatusConflict, false},                // stale/diverged/duplicate plan work
	{ErrSessionExists, http.StatusConflict, false},               // requested session ID already in use
	{ErrSessionMigrating, http.StatusServiceUnavailable, true},   // frozen mid-migration
	{ErrSessionFailed, http.StatusInternalServerError, false},    // quarantined after a panic
	{ErrInternal, http.StatusInternalServerError, false},         // open/import-time analysis panicked
	{ErrSessionReadOnly, http.StatusServiceUnavailable, false},   // journal failed; mutations rejected
	{ErrTooManySessions, http.StatusServiceUnavailable, true},    // at the -maxsessions cap
	{ErrQueueFull, http.StatusTooManyRequests, true},             // session queue (or plan capacity) full
	{execguard.ErrBusy, http.StatusTooManyRequests, true},        // every exec slot taken
	{errBackendDisabled, http.StatusNotImplemented, false},       // -disable-backends
	{context.DeadlineExceeded, http.StatusGatewayTimeout, false}, // request deadline expired
	{context.Canceled, statusClientClosedRequest, false},         // client went away
}

// writeOpError answers err with the status opStatus gives it.
func writeOpError(w http.ResponseWriter, err error) {
	status, retry := http.StatusUnprocessableEntity, false
	for _, row := range opStatus {
		if errors.Is(err, row.err) {
			status, retry = row.status, row.retry
			break
		}
	}
	if retry {
		httpedge.WriteRefusal(w, status, err)
		return
	}
	httpedge.WriteError(w, status, err)
}
