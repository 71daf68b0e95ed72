package cluster

import (
	"time"

	"parascope/internal/httpedge"
	"parascope/internal/metrics"
)

// Metrics is the gateway's registry — pedgw_-prefixed families on the
// same metrics.Registry (and the same bucket schedule) as pedd's, so
// the whole fleet scrapes identically. Label cardinality is bounded by
// construction: backends are configured addresses, routes are mux
// patterns, codes are status classes. Session IDs are unbounded and
// never label anything.
type Metrics struct {
	*metrics.Registry

	// Gateway HTTP edge: HTTPRequests, HTTPLatency, HTTPInflight.
	httpedge.Metrics

	// Per-backend health and proxying.
	BackendUp     *metrics.GaugeVec     // backend: 1 ready, 0 not
	BreakerState  *metrics.GaugeVec     // backend: 0 closed, 1 half-open, 2 open
	ProxyRequests *metrics.CounterVec   // backend, code
	ProxyLatency  *metrics.HistogramVec // backend
	ProxyRetries  *metrics.Counter

	// Ring and session mobility.
	RingBackends     *metrics.Gauge
	RingChanges      *metrics.Counter
	Failovers        *metrics.Counter // down-transitions that triggered a journal sweep
	FailoverSessions *metrics.Counter // sessions adopted from a dead node's journals
	FailoverFailed   *metrics.Counter // journals that could not be failed over
	Rebalances       *metrics.Counter // rebalance sweeps run
	Migrations       *metrics.Counter // sessions moved by rebalance sweeps
	MigrationsFailed *metrics.Counter
	Discoveries      *metrics.Counter // sessions found by the 404 fallback sweep
	RedirectsServed  *metrics.Counter // backend 421s followed on the client's behalf
}

// NewMetrics builds the gateway registry.
func NewMetrics() *Metrics {
	m := &Metrics{Registry: metrics.NewRegistry()}
	m.Metrics = httpedge.NewMetrics(m.Registry, "pedgw")
	m.BackendUp = m.GaugeVec("pedgw_backend_up",
		"Backend readiness after hysteresis: 1 = on the ring, 0 = not.", "backend")
	m.BreakerState = m.GaugeVec("pedgw_backend_breaker_state",
		"Circuit breaker position per backend: 0 closed, 1 half-open, 2 open.", "backend")
	m.ProxyRequests = m.CounterVec("pedgw_proxy_requests_total",
		"Requests proxied to backends by backend and status class (code 'error' = transport failure).", "backend", "code")
	m.ProxyLatency = m.HistogramVec("pedgw_proxy_seconds",
		"Proxied request latency by backend.", metrics.TimeBuckets(), "backend")
	m.ProxyRetries = m.Counter("pedgw_proxy_retries_total",
		"Proxy attempts retried after a transport failure.")
	m.RingBackends = m.Gauge("pedgw_ring_backends",
		"Backends currently on the hash ring (up and accepting).")
	m.RingChanges = m.Counter("pedgw_ring_changes_total",
		"Times the ring was rebuilt (health transition or reload).")
	m.Failovers = m.Counter("pedgw_failovers_total",
		"Backend deaths that triggered a shared-storage journal sweep.")
	m.FailoverSessions = m.Counter("pedgw_failover_sessions_total",
		"Sessions adopted onto new owners from a dead node's journals.")
	m.FailoverFailed = m.Counter("pedgw_failover_failed_total",
		"Dead-node journals that could not be failed over (left in place).")
	m.Rebalances = m.Counter("pedgw_rebalances_total",
		"Rebalance sweeps run after ring changes.")
	m.Migrations = m.Counter("pedgw_migrations_total",
		"Sessions migrated to their ring owner by rebalance sweeps.")
	m.MigrationsFailed = m.Counter("pedgw_migrations_failed_total",
		"Rebalance migrations that failed (session stayed put).")
	m.Discoveries = m.Counter("pedgw_discoveries_total",
		"Sessions located by the 404 fallback sweep (routing override cached).")
	m.RedirectsServed = m.Counter("pedgw_redirects_served_total",
		"Backend 421 redirects the gateway followed on the client's behalf.")
	return m
}

// ObserveProxy records one proxied exchange; status 0 means a
// transport failure (labeled "error", a bounded pseudo-class).
func (m *Metrics) ObserveProxy(backend string, status int, d time.Duration) {
	code := "error"
	if status > 0 {
		code = metrics.StatusClass(status)
	}
	m.ProxyRequests.With(backend, code).Inc()
	m.ProxyLatency.With(backend).Observe(d.Seconds())
}
