// Package httpedge is the HTTP chassis pedd and pedgw share: the
// instrumented serving edge (Edge), the JSON and error writers, the
// readiness flag with the ops surface (Readiness, OpsHandler) and the
// serve-and-drain loop of a daemon's main (Serve). It sits on
// internal/metrics and the standard library only, so both daemons
// mount their routes on it and neither imports the other for it.
//
// An Edge owns its mux: Handle and HandleCap are the only way to put a
// route on it and ServeHTTP the only way to reach one, so every route
// is counted, timed, logged, deadlined and body-capped by construction.
package httpedge

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"parascope/internal/metrics"
)

// retryAfterSeconds is the Retry-After hint WriteRefusal sends.
const retryAfterSeconds = 1

// DefaultMaxBody is the request body cap of a route that asks for none
// of its own: command-sized bodies are the ceiling of both daemons.
const DefaultMaxBody = 1 << 20

// maxRequestIDLen bounds a client-chosen X-Request-ID: it is echoed in
// a header, in every error body and in the access log.
const maxRequestIDLen = 64

// Metrics is the edge's three families, <prefix>_http_requests_total,
// <prefix>_http_request_seconds and <prefix>_http_inflight. Routes are
// mux patterns and codes are status classes, so cardinality is bounded.
type Metrics struct {
	HTTPRequests *metrics.CounterVec   // route, method, code (status class)
	HTTPLatency  *metrics.HistogramVec // route
	HTTPInflight *metrics.Gauge
}

// help holds the help strings of the three families per prefix:
// /metrics is an operator contract, so each daemon keeps the wording it
// has always served.
var help = map[string][3]string{
	"pedd": {
		"HTTP requests by mux route, method, and status class.",
		"End-to-end HTTP request latency by mux route.",
		"HTTP requests currently being served.",
	},
	"pedgw": {
		"Gateway HTTP requests by mux route, method, and status class.",
		"End-to-end gateway request latency by mux route.",
		"Gateway requests currently being served.",
	},
}

// NewMetrics registers the edge's families on reg under prefix ("pedd"
// or "pedgw").
func NewMetrics(reg *metrics.Registry, prefix string) Metrics {
	h := help[prefix]
	return Metrics{
		HTTPRequests: reg.CounterVec(prefix+"_http_requests_total", h[0], "route", "method", "code"),
		HTTPLatency:  reg.HistogramVec(prefix+"_http_request_seconds", h[1], metrics.TimeBuckets(), "route"),
		HTTPInflight: reg.Gauge(prefix+"_http_inflight", h[2]),
	}
}

// Config is what an Edge is built from. Timeout, the body caps and
// DrainRefusal are the three things its callers differ in.
type Config struct {
	Metrics Metrics
	// AccessLog, when set, gets one structured line per request
	// (req_id, method, path, route, status, dur).
	AccessLog *slog.Logger
	// Timeout is the deadline on every handler's context (<= 0 = none).
	Timeout time.Duration
	// MaxBody caps the request body of routes added with Handle
	// (0 = DefaultMaxBody, negative = no cap); HandleCap gives one route
	// its own.
	MaxBody int64
	// Ready answers GET /readyz (nil = always ready).
	Ready *Readiness
	// DrainRefusal, when set, is the error every request but /healthz
	// and /readyz is refused with (503 + Retry-After) while Ready is
	// draining.
	DrainRefusal string
}

// Edge is an http.Handler that assigns each request its ID, imposes the
// deadline and the route's body cap, routes, and records route, status
// and latency in the metrics and the access log.
type Edge struct {
	cfg    Config
	mux    *http.ServeMux
	routes []string
}

// New builds an edge serving GET /healthz and GET /readyz.
func New(cfg Config) *Edge {
	if cfg.MaxBody == 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	e := &Edge{cfg: cfg, mux: http.NewServeMux()}
	e.Handle("GET /healthz", healthz)
	e.Handle("GET /readyz", cfg.Ready.ServeHTTP)
	return e
}

// Handle adds a route whose request body is capped at Config.MaxBody.
func (e *Edge) Handle(pattern string, h http.HandlerFunc) { e.HandleCap(pattern, e.cfg.MaxBody, h) }

// HandleCap adds a route with its own body cap (<= 0 = none). Reading
// past the cap fails with an error TooLarge recognises.
func (e *Edge) HandleCap(pattern string, maxBody int64, h http.HandlerFunc) {
	e.routes = append(e.routes, pattern)
	e.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		// The mux is reached through ServeHTTP only, so w is its recorder.
		rec := w.(*statusRecorder)
		rec.route = r.Pattern
		if maxBody > 0 && r.Body != nil {
			// The server's own writer, not the recorder: MaxBytesReader
			// asks it to close the connection once the cap is hit, so the
			// rest of an oversized body is never read as a next request.
			r.Body = http.MaxBytesReader(rec.ResponseWriter, r.Body, maxBody)
		}
		h(w, r)
	})
}

// Routes lists the patterns added so far, /healthz and /readyz included.
func (e *Edge) Routes() []string { return append([]string(nil), e.routes...) }

// statusRecorder captures the response status, and the route the mux
// matched, for metrics and logs.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	route string
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

// ServeHTTP implements http.Handler.
func (e *Edge) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	reqID := r.Header.Get("X-Request-ID")
	if !validRequestID(reqID) {
		reqID = NewRequestID()
	}
	w.Header().Set("X-Request-ID", reqID)
	// Until a route claims the request the mux has matched nothing
	// (404/405): one label for all of those keeps cardinality bounded.
	rec := &statusRecorder{ResponseWriter: w, route: "unmatched"}
	if e.cfg.DrainRefusal != "" && e.cfg.Ready.Draining() && r.URL.Path != "/healthz" && r.URL.Path != "/readyz" {
		rec.route = "draining"
		WriteRefusal(rec, http.StatusServiceUnavailable, errors.New(e.cfg.DrainRefusal))
	} else {
		if e.cfg.Timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), e.cfg.Timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		e.cfg.Metrics.HTTPInflight.Inc()
		e.mux.ServeHTTP(rec, r)
		e.cfg.Metrics.HTTPInflight.Dec()
	}
	if rec.code == 0 {
		rec.code = http.StatusOK // the handler wrote nothing; net/http answers 200
	}
	elapsed := time.Since(start)
	e.cfg.Metrics.HTTPRequests.With(rec.route, r.Method, metrics.StatusClass(rec.code)).Inc()
	e.cfg.Metrics.HTTPLatency.With(rec.route).Observe(elapsed.Seconds())
	if lg := e.cfg.AccessLog; lg != nil {
		lg.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("req_id", reqID),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", rec.route),
			slog.Int("status", rec.code),
			slog.Duration("dur", elapsed),
		)
	}
}

// TooLarge answers 413 and reports true when err is a body read that
// ran into its route's cap; what names the body ("request body").
func TooLarge(w http.ResponseWriter, err error, what string) bool {
	var mbe *http.MaxBytesError
	if !errors.As(err, &mbe) {
		return false
	}
	WriteError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("%s exceeds %d bytes", what, mbe.Limit))
	return true
}

// validRequestID reports whether a client-chosen request ID may be
// echoed: 1 to maxRequestIDLen bytes of visible ASCII.
func validRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return false
		}
	}
	return true
}

// NewRequestID returns a fresh 16-hex-digit request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a constant
		// beats a panic in the one place IDs are only a convenience.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// WriteJSON answers status with body encoded as JSON.
func WriteJSON(w http.ResponseWriter, status int, body interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// ErrorResponse is the JSON body of every non-2xx response. The
// request ID echoes the X-Request-ID header (client-sent or minted by
// the edge) so a failure can be correlated with the daemon's access
// log and traces.
type ErrorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// WriteError answers status with err as an ErrorResponse. The edge
// stamped X-Request-ID on the response headers; echoing it in the body
// keeps error payloads self-correlating after the transport headers
// are gone (logs, bug reports).
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, ErrorResponse{
		Error:     err.Error(),
		RequestID: w.Header().Get("X-Request-ID"),
	})
}

// WriteRefusal answers a refusal that came before any work was done
// (429, 503) with err and a Retry-After hint: the request may be sent
// again as it was, and server.Client's loop does so after the hint.
func WriteRefusal(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	WriteError(w, status, err)
}
