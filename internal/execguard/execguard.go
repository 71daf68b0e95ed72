// Package execguard is the supervision layer under every program
// execution path — the REPL's run verb, POST /v1/sessions/{id}/run,
// the planner's compiled scoring pass, and the pedc/pedd binaries all
// route through it. Ped's interactive promise only holds if a user's
// *program* cannot take the daemon down, so every run is governed:
//
//   - a wall timeout (default 60s) kills runs that never finish;
//   - stdout/stderr are byte-capped, with an explicit "output
//     truncated after N bytes" error instead of unbounded buffering;
//   - compiled programs are spawned in their own process group and the
//     whole group is killed, so a timed-out DOALL fan-out leaves no
//     orphan workers behind;
//   - an RSS watchdog polls /proc/<pid>/status and kills runaway
//     allocators with a distinguishable ErrResourceLimit (generated
//     binaries also get GOMEMLIMIT so the Go runtime resists first);
//   - daemon-wide execution slots bound how many programs run at
//     once; past the cap Acquire fails fast with ErrBusy (429 at the
//     HTTP layer) instead of queueing unbounded work.
//
// The Governor carries the policy; Supervise carries one subprocess
// through it. The interpreter backend shares the same Limits and
// LimitWriter but is cancelled cooperatively (interp.Machine.Cancel)
// since it runs in-process.
package execguard

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"parascope/internal/metrics"
)

// Sentinel errors callers branch on with errors.Is. None of them wrap
// context errors: a run killed by the governor's own deadline must
// stay distinguishable from a request deadline (504) upstream.
var (
	// ErrTimeout marks a run the governor killed at its wall deadline.
	ErrTimeout = errors.New("run killed at deadline")
	// ErrOutputLimit marks a run whose stdout/stderr passed its byte
	// cap; captured output is the truncated prefix.
	ErrOutputLimit = errors.New("output limit exceeded")
	// ErrResourceLimit marks a run the RSS watchdog killed.
	ErrResourceLimit = errors.New("resource limit exceeded")
	// ErrBusy is returned by Acquire when every execution slot is in
	// use — admission control, mapped to 429 + Retry-After by pedd.
	ErrBusy = errors.New("execution slots exhausted")
)

// IsKill reports whether err is one of the governor's typed kill
// errors — the run was stopped by policy (deadline, output cap, RSS),
// not by its own failure.
func IsKill(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrOutputLimit) || errors.Is(err, ErrResourceLimit)
}

// TimeoutError wraps ErrTimeout with the deadline that fired.
func TimeoutError(d time.Duration) error {
	return fmt.Errorf("%w (wall timeout %s)", ErrTimeout, d)
}

// OutputLimitError wraps ErrOutputLimit with the cap that tripped.
func OutputLimitError(n int64) error {
	return fmt.Errorf("%w: output truncated after %d bytes", ErrOutputLimit, n)
}

// ResourceLimitError wraps ErrResourceLimit with the RSS cap.
func ResourceLimitError(n int64) error {
	return fmt.Errorf("%w: resident set exceeded %d bytes", ErrResourceLimit, n)
}

// Default limits. Zero fields in a Limits resolve to these; negative
// fields disable the corresponding bound.
const (
	DefaultTimeout      = 60 * time.Second
	DefaultOutputBytes  = int64(8 << 20)   // 8 MiB of captured stdout
	DefaultStderrBytes  = int64(256 << 10) // 256 KiB of captured stderr
	DefaultRSSBytes     = int64(1 << 30)   // 1 GiB resident set
	DefaultPollInterval = 20 * time.Millisecond
	DefaultBuildTimeout = 3 * time.Minute
	DefaultCacheEntries = 256
)

// Millis is a budget of n milliseconds, as a request or a REPL option
// states it: 0 — none of its own — for n ≤ 0, and the longest Duration
// for a count too large for one, never a product that wrapped around to
// a short or a negative budget.
func Millis(n int) time.Duration {
	switch {
	case n <= 0:
		return 0
	case int64(n) > math.MaxInt64/int64(time.Millisecond):
		return math.MaxInt64
	}
	return time.Duration(n) * time.Millisecond
}

// Limits bounds one run. The zero value means "governor defaults";
// negative values disable the corresponding bound entirely.
type Limits struct {
	// Timeout is the wall-clock budget; past it the run is killed and
	// ErrTimeout returned.
	Timeout time.Duration
	// OutputBytes caps captured stdout.
	OutputBytes int64
	// StderrBytes caps captured stderr.
	StderrBytes int64
	// RSSBytes caps the subprocess's resident set (compiled backend
	// only; the in-process interpreter has no separate RSS).
	RSSBytes int64
	// PollInterval is the RSS watchdog period.
	PollInterval time.Duration
}

// withDefaults resolves the zero-means-default / negative-means-off
// encoding into concrete bounds (0 now means disabled).
func (l Limits) withDefaults() Limits {
	switch {
	case l.Timeout == 0:
		l.Timeout = DefaultTimeout
	case l.Timeout < 0:
		l.Timeout = 0
	}
	switch {
	case l.OutputBytes == 0:
		l.OutputBytes = DefaultOutputBytes
	case l.OutputBytes < 0:
		l.OutputBytes = 0
	}
	switch {
	case l.StderrBytes == 0:
		l.StderrBytes = DefaultStderrBytes
	case l.StderrBytes < 0:
		l.StderrBytes = 0
	}
	switch {
	case l.RSSBytes == 0:
		l.RSSBytes = DefaultRSSBytes
	case l.RSSBytes < 0:
		l.RSSBytes = 0
	}
	if l.PollInterval <= 0 {
		l.PollInterval = DefaultPollInterval
	}
	return l
}

// override applies non-zero fields of over on top of l (both still in
// the zero-means-default encoding).
func (l Limits) override(over Limits) Limits {
	if over.Timeout != 0 {
		l.Timeout = over.Timeout
	}
	if over.OutputBytes != 0 {
		l.OutputBytes = over.OutputBytes
	}
	if over.StderrBytes != 0 {
		l.StderrBytes = over.StderrBytes
	}
	if over.RSSBytes != 0 {
		l.RSSBytes = over.RSSBytes
	}
	if over.PollInterval != 0 {
		l.PollInterval = over.PollInterval
	}
	return l
}

// Telemetry is the run layer's metric families, pedd_exec_* and
// pedd_build_*: the governor, Supervise, the codegen build pipeline and
// core's Exec update them where the work happens. Labels are bounded by
// construction: backends are core.BackendInterp/BackendCompile, kill
// reasons the Kill* constants.
type Telemetry struct {
	ExecRuns      *metrics.CounterVec   // backend
	ExecFailures  *metrics.CounterVec   // backend
	ExecLatency   *metrics.HistogramVec // backend
	ExecTimeouts  *metrics.CounterVec   // backend
	ExecKills     *metrics.CounterVec   // reason
	ExecFallbacks *metrics.Counter
	ExecRejected  *metrics.Counter
	ExecInflight  *metrics.Gauge

	BuildsTotal         *metrics.Counter
	BuildFailures       *metrics.Counter
	BuildLatency        *metrics.Histogram
	BuildCacheHits      *metrics.Counter
	BuildDedups         *metrics.Counter
	BuildVerifyFailures *metrics.Counter
	BuildJanitorEvicted *metrics.Counter
}

// NewTelemetry registers the run layer's families on reg.
func NewTelemetry(reg *metrics.Registry) *Telemetry {
	timeBuckets := metrics.TimeBuckets()
	return &Telemetry{
		ExecRuns: reg.CounterVec("pedd_exec_runs_total",
			"Program executions by the backend that actually ran.", "backend"),
		ExecFailures: reg.CounterVec("pedd_exec_failures_total",
			"Program executions that failed (program or toolchain error, not a governor kill).", "backend"),
		ExecLatency: reg.HistogramVec("pedd_exec_run_seconds",
			"Wall time of program executions by backend.", timeBuckets, "backend"),
		ExecTimeouts: reg.CounterVec("pedd_exec_timeouts_total",
			"Program executions stopped by a governor limit (deadline, output cap, RSS).", "backend"),
		ExecKills: reg.CounterVec("pedd_exec_kills_total",
			"Governor kills by reason (deadline, output, rss, ctx).", "reason"),
		ExecFallbacks: reg.Counter("pedd_exec_fallbacks_total",
			"Compile runs degraded to the interpreter (decline or build failure, fallback requested)."),
		ExecRejected: reg.Counter("pedd_exec_rejected_total",
			"Runs rejected at admission because every exec slot was busy (HTTP 429)."),
		ExecInflight: reg.Gauge("pedd_exec_inflight",
			"Program executions currently running under the governor."),
		BuildsTotal: reg.Counter("pedd_build_total",
			"Cold builds (compile and link) of generated programs."),
		BuildFailures: reg.Counter("pedd_build_failures_total",
			"Cold builds that failed (including build timeouts)."),
		BuildLatency: reg.Histogram("pedd_build_seconds",
			"Wall time of cold builds.", timeBuckets),
		BuildCacheHits: reg.Counter("pedd_build_cache_hits_total",
			"Compile-cache reuses whose manifest checksum verified."),
		BuildDedups: reg.Counter("pedd_build_dedup_total",
			"Concurrent build requests that piggybacked on another in-flight build."),
		BuildVerifyFailures: reg.Counter("pedd_build_verify_failures_total",
			"Cache entries that failed checksum verification and were quarantined."),
		BuildJanitorEvicted: reg.Counter("pedd_build_janitor_evictions_total",
			"Compile-cache entries evicted by the janitor's LRU bound."),
	}
}

// unscraped takes the telemetry of a nil governor and of one built
// without any: the updates are atomic and nobody reads them.
var unscraped = NewTelemetry(metrics.NewRegistry())

// Config assembles a Governor.
type Config struct {
	// MaxRuns bounds concurrently supervised runs (0 = unbounded).
	MaxRuns int
	// Limits are the per-run defaults; zero fields take the package
	// defaults, negative fields disable the bound.
	Limits Limits
	// BuildTimeout bounds one cold build (0 = DefaultBuildTimeout).
	BuildTimeout time.Duration
	// CacheEntries LRU-bounds the compile cache (0 = 256 entries).
	CacheEntries int
	// Telemetry receives the run layer's metrics (nil = unscraped).
	Telemetry *Telemetry
}

// Governor is the run-layer policy object: execution slots, default
// limits, and the metric families runs report to. A nil *Governor is
// valid everywhere and behaves like New(Config{}) — default limits,
// unbounded slots.
type Governor struct {
	slots        chan struct{}
	limits       Limits // resolved (0 = disabled)
	buildTimeout time.Duration
	cacheEntries int
	tel          *Telemetry
}

// New builds a governor from cfg.
func New(cfg Config) *Governor {
	g := &Governor{
		limits:       cfg.Limits.withDefaults(),
		buildTimeout: cfg.BuildTimeout,
		cacheEntries: cfg.CacheEntries,
		tel:          cfg.Telemetry,
	}
	if g.tel == nil {
		g.tel = unscraped
	}
	if g.buildTimeout <= 0 {
		g.buildTimeout = DefaultBuildTimeout
	}
	if g.cacheEntries <= 0 {
		g.cacheEntries = DefaultCacheEntries
	}
	if cfg.MaxRuns > 0 {
		g.slots = make(chan struct{}, cfg.MaxRuns)
	}
	return g
}

// With returns a governor sharing g's slots and telemetry but with lim
// overriding its default limits — how per-request timeouts and caps
// ride on top of daemon policy.
func (g *Governor) With(lim Limits) *Governor {
	base := g
	if base == nil {
		base = New(Config{})
	}
	cp := *base
	cp.limits = base.limits.override(lim)
	return &cp
}

// RunLimits returns the resolved per-run limits.
func (g *Governor) RunLimits() Limits {
	if g == nil {
		return Limits{}.withDefaults()
	}
	return g.limits
}

// BuildTimeout returns the budget of one cold build.
func (g *Governor) BuildTimeout() time.Duration {
	if g == nil {
		return DefaultBuildTimeout
	}
	return g.buildTimeout
}

// CacheEntries returns the compile-cache LRU bound.
func (g *Governor) CacheEntries() int {
	if g == nil {
		return DefaultCacheEntries
	}
	return g.cacheEntries
}

// Slots returns how many runs the governor admits at once, 0 when it
// does not bound them. A caller that starts several runs of its own
// side by side sizes that fan-out by it: Acquire fails fast, so the
// runs beyond the bound would only lose a race for a slot.
func (g *Governor) Slots() int {
	if g == nil {
		return 0
	}
	return cap(g.slots)
}

// Acquire claims one execution slot, failing fast with ErrBusy when
// all are taken. The returned release function is idempotent and must
// be called when the run finishes. An unbounded (or nil) governor
// always admits.
func (g *Governor) Acquire() (release func(), err error) {
	tel := g.Telemetry()
	if g == nil || g.slots == nil {
		tel.ExecInflight.Inc()
		var once sync.Once
		return func() { once.Do(tel.ExecInflight.Dec) }, nil
	}
	select {
	case g.slots <- struct{}{}:
		tel.ExecInflight.Inc()
		var once sync.Once
		return func() {
			once.Do(func() {
				<-g.slots
				tel.ExecInflight.Dec()
			})
		}, nil
	default:
		tel.ExecRejected.Inc()
		return nil, fmt.Errorf("%w (%d runs in flight)", ErrBusy, cap(g.slots))
	}
}

// Telemetry returns the families g's runs and builds report to.
func (g *Governor) Telemetry() *Telemetry {
	if g == nil {
		return unscraped
	}
	return g.tel
}
