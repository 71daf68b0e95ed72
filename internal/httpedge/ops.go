package httpedge

import (
	"net/http"
	"net/http/pprof"
	"sync/atomic"

	"parascope/internal/metrics"
)

// Readiness is the drain-aware readiness flag behind GET /readyz.
// Liveness (/healthz) answers "the process is up"; readiness answers
// "send me traffic". A rolling restart flips it before connections
// close, so load balancers and the cluster gateway stop routing new
// work while in-flight requests drain.
type Readiness struct {
	draining atomic.Bool
	// NotReady, when set, is asked while the process is not draining: a
	// non-empty answer is the reason it still cannot take traffic (the
	// gateway: "no ready backends").
	NotReady func() string
}

// SetDraining flips the readiness answer (true = /readyz answers 503).
func (rd *Readiness) SetDraining(v bool) { rd.draining.Store(v) }

// Draining reports whether the process is refusing new work. A nil
// Readiness never drains.
func (rd *Readiness) Draining() bool { return rd != nil && rd.draining.Load() }

// ServeHTTP answers 200 {"status":"ready"} or 503 with the reason. A
// nil Readiness is always ready (standalone embedders).
func (rd *Readiness) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reason := ""
	switch {
	case rd.Draining():
		reason = "draining"
	case rd != nil && rd.NotReady != nil:
		reason = rd.NotReady()
	}
	if reason != "" {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": reason})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func healthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// OpsHandler mounts the operational surface — /metrics, /healthz,
// /readyz, and net/http/pprof under /debug/pprof/ — for a daemon's
// opt-in ops listener (-opsaddr). It is deliberately a separate handler
// from the Edge so profiling and scraping never share the serving port.
// ready may be nil (always ready).
func OpsHandler(reg *metrics.Registry, ready *Readiness) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	mux.HandleFunc("GET /healthz", healthz)
	mux.Handle("GET /readyz", ready)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
