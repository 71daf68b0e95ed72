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
)

// Default request-hardening limits; override via Options.
const (
	// DefaultReqTimeout bounds each request end to end: a command
	// still queued when it expires is abandoned, and the client gets
	// 504 instead of waiting on a wedged session.
	DefaultReqTimeout = 30 * time.Second
	// DefaultMaxBodyBytes bounds request bodies (413 past it).
	DefaultMaxBodyBytes = 1 << 20
	// retryAfterSeconds is the Retry-After hint on 429/503 rejections.
	retryAfterSeconds = 1
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
	Ready *Readiness
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
// Every request runs under a deadline and a body-size cap, carries an
// X-Request-ID (generated when the client sends none, echoed on the
// response and inside error bodies), and is instrumented: per-route
// counters and latency histograms, plus an optional structured access
// log. Every session error is mapped to a precise status (see
// writeOpError) so clients can tell a quarantined session (500) from
// a closed one (410), backpressure (429/503) from timeout (504).
type Server struct {
	mgr     *Manager
	mux     *http.ServeMux
	opts    Options
	metrics *Metrics
	routes  []string
}

// New wires the routes over a manager with default hardening limits.
func New(mgr *Manager) *Server { return NewWith(mgr, Options{}) }

// NewWith wires the routes with explicit limits.
func NewWith(mgr *Manager, opts Options) *Server {
	if opts.ReqTimeout == 0 {
		opts.ReqTimeout = DefaultReqTimeout
	}
	if opts.MaxBodyBytes == 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if opts.Metrics == nil {
		opts.Metrics = mgr.Metrics()
	}
	s := &Server{mgr: mgr, mux: http.NewServeMux(), opts: opts, metrics: opts.Metrics}
	disabled := map[string]bool{}
	for _, b := range opts.DisabledBackends {
		disabled[strings.ToLower(strings.TrimSpace(b))] = true
	}
	mgr.disabled.Store(&disabled)
	s.handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.handle("GET /readyz", opts.Ready.handler)
	s.handle("GET /v1/cache", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, mgr.CacheStats())
	})
	s.handle("POST /v1/sessions", s.handleOpen)
	s.handle("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, mgr.List(r.Context()))
	})
	s.handle("GET /v1/sessions/{id}", s.session(s.handleStatus))
	s.handle("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !mgr.Close(r.PathValue("id")) {
			writeError(w, http.StatusNotFound, errors.New("no such session"))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	s.handle("POST /v1/sessions/{id}/cmd", s.session(s.handleCmd))
	s.handle("POST /v1/sessions/{id}/select", s.session(s.handleSelect))
	s.handle("GET /v1/sessions/{id}/deps", s.session(s.handleDeps))
	s.handle("POST /v1/sessions/{id}/classify", s.session(s.handleClassify))
	s.handle("POST /v1/sessions/{id}/transform", s.session(s.handleTransform))
	s.handle("POST /v1/sessions/{id}/edit", s.session(s.handleEdit))
	s.handle("POST /v1/sessions/{id}/undo", s.session(s.handleUndo))
	s.handle("POST /v1/sessions/{id}/run", s.session(s.handleRun))
	s.handle("POST /v1/sessions/{id}/plan", s.session(s.handlePlan))
	s.handle("GET /v1/sessions/{id}/plan", s.session(s.handlePlanStatus))
	s.handle("POST /v1/sessions/{id}/apply-plan", s.session(s.handleApplyPlan))
	// Cluster: session migration. The literal "import" segment outranks
	// "{id}" in mux precedence, so "import" is never taken for an ID.
	s.handle("GET /v1/sessions/{id}/journal", s.session(s.handleJournal))
	s.handle("POST /v1/sessions/import", s.handleImport)
	s.handle("POST /v1/sessions/{id}/migrate", s.session(s.handleMigrate))
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
		writeError(w, http.StatusBadRequest, errors.New("import: missing id query parameter"))
		return
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("journal stream exceeds %d bytes", mbe.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("import: reading stream: %w", err))
		return
	}
	resp, err := s.mgr.Import(r.Context(), id, data)
	if err != nil {
		writeOpError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request, ss *Session) {
	var req MigrateRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Target == "" {
		writeError(w, http.StatusBadRequest, errors.New("migrate: missing target"))
		return
	}
	resp, err := s.mgr.Migrate(r.Context(), ss, req.Target)
	if err != nil {
		writeOpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request, ss *Session) {
	var req PlanRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := ss.Plan(r.Context(), req)
	if err != nil {
		writeOpError(w, err)
		return
	}
	if resp.Status == "running" {
		writeJSON(w, http.StatusAccepted, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePlanStatus(w http.ResponseWriter, r *http.Request, ss *Session) {
	resp, ok := ss.PlanStatus()
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no plan search has run for this session"))
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleApplyPlan(w http.ResponseWriter, r *http.Request, ss *Session) {
	var req ApplyPlanRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := ss.ApplyPlan(r.Context(), req)
	if err != nil {
		writeOpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handle registers one route through the instrumentation wrapper: the
// matched mux pattern is captured for the metrics route label and the
// access log. Every route MUST be added through handle, never
// directly on s.mux — TestMetricsLintAllRoutesInstrumented reflects
// over the mux and fails the build of anyone who forgets.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.routes = append(s.routes, pattern)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if hold, ok := r.Context().Value(routeKey{}).(*routeHolder); ok {
			hold.pattern = r.Pattern
		}
		h(w, r)
	})
}

// Routes lists the registered (instrumented) mux patterns.
func (s *Server) Routes() []string {
	out := make([]string, len(s.routes))
	copy(out, s.routes)
	return out
}

// routeKey carries a *routeHolder through the request context so the
// per-route wrapper can report the matched pattern back to ServeHTTP
// (the mux sets r.Pattern only on the copy it hands the handler).
type routeKey struct{}

type routeHolder struct{ pattern string }

// requestIDKey carries the request ID through the request context.
type requestIDKey struct{}

// RequestIDFrom extracts the request ID placed in the context by the
// server middleware ("" outside a request).
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// statusRecorder captures the response status for metrics and logs.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (rec *statusRecorder) WriteHeader(code int) {
	if rec.code == 0 {
		rec.code = code
	}
	rec.ResponseWriter.WriteHeader(code)
}

func (rec *statusRecorder) Write(b []byte) (int, error) {
	if rec.code == 0 {
		rec.code = http.StatusOK
	}
	return rec.ResponseWriter.Write(b)
}

func (rec *statusRecorder) status() int {
	if rec.code == 0 {
		return http.StatusOK
	}
	return rec.code
}

// ServeHTTP implements http.Handler: it assigns the request ID,
// imposes the per-request deadline and body cap, routes, and then
// records the request's route/status/latency in the metrics registry
// and the access log.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	reqID := r.Header.Get("X-Request-ID")
	if reqID == "" {
		reqID = newRequestID()
	}
	w.Header().Set("X-Request-ID", reqID)
	ctx := r.Context()
	if s.opts.ReqTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.ReqTimeout)
		defer cancel()
	}
	hold := &routeHolder{}
	ctx = context.WithValue(ctx, routeKey{}, hold)
	ctx = context.WithValue(ctx, requestIDKey{}, reqID)
	r = r.WithContext(ctx)
	rec := &statusRecorder{ResponseWriter: w}
	if s.opts.MaxBodyBytes > 0 && r.Body != nil {
		limit := s.opts.MaxBodyBytes
		if r.Method == http.MethodPost && r.URL.Path == "/v1/sessions/import" && limit < importMaxBytes {
			// Journal streams dwarf command bodies; the import route
			// carries whole sessions and gets its own cap.
			limit = importMaxBytes
		}
		r.Body = http.MaxBytesReader(rec, r.Body, limit)
	}
	s.metrics.HTTPInflight.Inc()
	s.mux.ServeHTTP(rec, r)
	s.metrics.HTTPInflight.Dec()
	route := hold.pattern
	if route == "" {
		// The mux matched nothing (404/405) or the handler was
		// registered without instrumentation; keep the label bounded.
		route = "unmatched"
	}
	elapsed := time.Since(start)
	s.metrics.ObserveHTTP(route, r.Method, rec.status(), elapsed)
	if lg := s.opts.AccessLog; lg != nil {
		lg.LogAttrs(ctx, slog.LevelInfo, "request",
			slog.String("req_id", reqID),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", route),
			slog.Int("status", rec.status()),
			slog.Duration("dur", elapsed),
		)
	}
}

// session resolves {id} before running the handler. A session that
// migrated away answers 421 Misdirected Request with a Location
// pointing at the same path on the node that adopted it, so a
// redirect-following client (or the gateway) recovers in one hop.
func (s *Server) session(h func(http.ResponseWriter, *http.Request, *Session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		ss := s.mgr.Get(id)
		if ss == nil {
			if target, ok := s.mgr.MovedTo(id); ok {
				w.Header().Set("Location", strings.TrimRight(target, "/")+r.URL.RequestURI())
				writeError(w, http.StatusMisdirectedRequest,
					fmt.Errorf("session %s migrated to %s", id, target))
				return
			}
			writeError(w, http.StatusNotFound, errors.New("no such session"))
			return
		}
		h(w, r, ss)
	}
}

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	var req OpenRequest
	if !readJSON(w, r, &req) {
		return
	}
	_, resp, err := s.mgr.Open(r.Context(), req)
	if err != nil {
		writeOpError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request, ss *Session) {
	resp := SessionStatusResponse{
		SessionInfo:    ss.Info(r.Context()),
		Failure:        ss.Failure(),
		ReadOnlyReason: ss.ReadOnlyReason(),
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCmd(w http.ResponseWriter, r *http.Request, ss *Session) {
	var req CmdRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := ss.Cmd(r.Context(), req.Line)
	if err != nil {
		writeOpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleRun executes the session's program through the unified
// execution API (Session.Run, which also refuses disabled backends).
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request, ss *Session) {
	var req RunRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := ss.Run(r.Context(), req)
	if err != nil {
		writeOpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request, ss *Session) {
	var req SelectRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := ss.Select(r.Context(), req)
	if err != nil {
		writeOpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
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
	if err != nil {
		writeOpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request, ss *Session) {
	var req ClassifyRequest
	if !readJSON(w, r, &req) {
		return
	}
	if err := ss.Classify(r.Context(), req); err != nil {
		writeOpError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleTransform(w http.ResponseWriter, r *http.Request, ss *Session) {
	var req TransformRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := ss.Transform(r.Context(), req)
	if err != nil {
		writeOpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleEdit(w http.ResponseWriter, r *http.Request, ss *Session) {
	var req EditRequest
	if !readJSON(w, r, &req) {
		return
	}
	if err := ss.Edit(r.Context(), req); err != nil {
		writeOpError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleUndo(w http.ResponseWriter, r *http.Request, ss *Session) {
	if err := ss.Undo(r.Context()); err != nil {
		writeOpError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func boolParam(v string) bool { return v == "1" || strings.EqualFold(v, "true") }

// readJSON decodes one JSON value strictly: unknown fields are
// rejected (400, naming the field), trailing garbage after the value
// is rejected (400), and a body past the size cap is 413.
func readJSON(w http.ResponseWriter, r *http.Request, into interface{}) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	if tok, err := dec.Token(); err != io.EOF {
		if err == nil {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("trailing data after JSON body (next token %v)", tok))
		} else {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("trailing data after JSON body"))
		}
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, body interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

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
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	writeError(w, status, err)
}

func writeError(w http.ResponseWriter, status int, err error) {
	// The middleware stamped X-Request-ID on the response headers;
	// echoing it in the body makes error payloads self-correlating
	// even after the transport headers are gone (logs, bug reports).
	writeJSON(w, status, ErrorResponse{
		Error:     err.Error(),
		RequestID: w.Header().Get("X-Request-ID"),
	})
}
