package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"parascope/internal/core"
	"parascope/internal/dep"
	"parascope/internal/execguard"
	"parascope/internal/workloads"
)

// ErrTooManySessions is returned by Open when the live-session cap is
// reached — admission control; the client should retry after closures
// or evictions free a slot.
var ErrTooManySessions = errors.New("session limit reached")

// ErrInternal wraps failures of the server's own machinery (e.g. a
// panic during open-time analysis) as opposed to invalid input.
var ErrInternal = errors.New("internal error")

// Config tunes the session manager.
type Config struct {
	// TTL evicts sessions idle longer than this; 0 disables eviction.
	TTL time.Duration
	// SweepEvery is the janitor period; defaulted from TTL.
	SweepEvery time.Duration
	// CacheSize bounds the analysis cache (entries); 0 disables it.
	CacheSize int
	// Workers caps the per-open analysis worker pool (0 = GOMAXPROCS).
	Workers int
	// MaxSessions caps concurrently live sessions (0 = unlimited);
	// Open returns ErrTooManySessions at the cap.
	MaxSessions int
	// QueueDepth bounds each session's pending-command queue
	// (0 = default); a full queue rejects with ErrQueueFull.
	QueueDepth int
	// DataDir enables durability: each session keeps a write-ahead
	// journal under it and is rebuilt by Recover after a restart.
	// Empty = in-memory only (the pre-durability behavior).
	DataDir string
	// Fsync says when journal appends reach stable storage
	// (zero value = FsyncInterval).
	Fsync FsyncPolicy
	// SnapshotEvery compacts a session's journal to one snapshot
	// record after this many mutations (0 = never compact).
	SnapshotEvery int
	// FlushEvery is the FsyncInterval batching period (0 = 100ms).
	FlushEvery time.Duration
	// Metrics is the registry fed by the manager, its sessions, and
	// the analysis cache (nil = a fresh private registry, so the
	// instrumentation is unconditional either way).
	Metrics *Metrics
	// PlanWorkers bounds concurrent speculative plan searches across
	// the whole daemon (0 = 2); excess requests get 429.
	PlanWorkers int
	// PlanTimeout is the default wall-clock budget per plan search
	// (0 = the planner's own default).
	PlanTimeout time.Duration
	// PlanCacheSize bounds the plan result cache (entries; 0 = 32).
	PlanCacheSize int
	// MaxRuns bounds concurrent program executions across the daemon;
	// past the cap runs are rejected with 429 + Retry-After. 0 means
	// 2×GOMAXPROCS; negative means unbounded.
	MaxRuns int
	// RunTimeout is the default per-run wall budget (0 = 60s;
	// negative = none). Requests may override per run via timeout_ms.
	RunTimeout time.Duration
	// RunOutputBytes caps captured stdout per run (0 = 8MiB;
	// negative = unbounded).
	RunOutputBytes int64
	// RunRSSBytes kills compiled runs past this resident-set size
	// (0 = 1GiB; negative = watchdog off).
	RunRSSBytes int64
	// RunCacheDir overrides the compile build cache (tests); empty
	// means the per-user default.
	RunCacheDir string
}

// Manager owns the live sessions and the analysis cache.
type Manager struct {
	cfg     Config
	cache   *Cache
	metrics *Metrics
	planCfg *planConfig
	gov     *execguard.Governor

	mu       sync.Mutex
	sessions map[string]*Session
	// moved maps migrated-away session IDs to the base URL of the node
	// that adopted them; requests for them answer 421 + Location.
	// Persisted as <id>.moved files when a datadir is configured.
	moved map[string]string
	// reserved counts opens in flight (admitted but not yet
	// registered), so the MaxSessions cap holds across the analysis.
	reserved int

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// newSessionID draws a short random session ID. Sequential IDs would
// collide with sessions recovered from a previous process lifetime
// (both lifetimes would mint "s1"); random IDs need no cross-restart
// coordination, and journal creation (at the session's first mutation)
// is O_EXCL as a backstop.
func newSessionID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("crypto/rand unavailable: %v", err))
	}
	return "s" + hex.EncodeToString(b[:])
}

// NewManager creates a manager and starts its TTL janitor (if TTL is
// set). Call Shutdown to stop it and close every session.
func NewManager(cfg Config) *Manager {
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics()
	}
	maxRuns := cfg.MaxRuns
	switch {
	case maxRuns == 0:
		maxRuns = 2 * runtime.GOMAXPROCS(0)
	case maxRuns < 0:
		maxRuns = 0 // unbounded
	}
	m := &Manager{
		cfg:     cfg,
		metrics: cfg.Metrics,
		gov: execguard.New(execguard.Config{
			MaxRuns: maxRuns,
			Limits: execguard.Limits{
				Timeout:     cfg.RunTimeout,
				OutputBytes: cfg.RunOutputBytes,
				RSSBytes:    cfg.RunRSSBytes,
			},
			Sink: cfg.Metrics,
		}),
		sessions: map[string]*Session{},
		moved:    map[string]string{},
		stop:     make(chan struct{}),
		planCfg:  newPlanConfig(cfg),
	}
	m.planCfg.gov = m.gov
	if cfg.CacheSize > 0 {
		m.cache = NewCache(cfg.CacheSize)
		m.cache.metrics = m.metrics
	}
	if cfg.TTL > 0 {
		every := cfg.SweepEvery
		if every <= 0 {
			every = cfg.TTL / 4
			if every < time.Second {
				every = time.Second
			}
			if every > time.Minute {
				every = time.Minute
			}
		}
		m.wg.Add(1)
		go m.janitor(every)
	}
	if cfg.DataDir != "" && cfg.Fsync == FsyncInterval {
		every := cfg.FlushEvery
		if every <= 0 {
			every = 100 * time.Millisecond
		}
		m.wg.Add(1)
		go m.flusher(every)
	}
	return m
}

func (m *Manager) flusher(every time.Duration) {
	defer m.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.FlushJournals()
		case <-m.stop:
			return
		}
	}
}

// FlushJournals fsyncs every session's journal — the FsyncInterval
// batching point, driven by the manager's flush ticker. A session
// whose fsync fails degrades to read-only, exactly like a failed
// append: acknowledged-but-unflushed state must not keep growing on a
// disk that is not accepting writes.
func (m *Manager) FlushJournals() {
	m.mu.Lock()
	all := make([]*Session, 0, len(m.sessions))
	for _, ss := range m.sessions {
		all = append(all, ss)
	}
	m.mu.Unlock()
	for _, ss := range all {
		ss.syncJournal()
	}
}

func (m *Manager) janitor(every time.Duration) {
	defer m.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.Sweep()
		case <-m.stop:
			return
		}
	}
}

// Open resolves the request (workload name or raw source), consults
// the content-hash cache, and registers a new session. On a hit the
// session opens artifact-backed — no parse, no analysis. On a miss it
// analyzes cold, stores the artifacts, and opens live. Either way the
// open touches no file: the session's journal is born by its first
// mutation (Session.journalAppend), so until then a crash loses only
// what the client can have again by reopening.
//
// Admission control: when Config.MaxSessions is set, a slot is
// reserved before the (expensive) analysis and released if the open
// fails; at the cap Open returns ErrTooManySessions without doing any
// work. A panic during open-time analysis is recovered and returned
// as an error wrapping ErrInternal — it cannot take down the daemon.
//
// The cold-open analysis runs under ctx: when it expires (request
// deadline, client disconnect) Open returns ctx.Err() immediately
// while the analysis finishes on its own goroutine — the reserved
// MaxSessions slot is released (and any built artifacts cached) only
// when it does, so a hung parse cannot wedge the handler, and cannot
// leak admission capacity beyond its own lifetime.
func (m *Manager) Open(ctx context.Context, req OpenRequest) (*Session, OpenResponse, error) {
	var resp OpenResponse
	if ctx == nil {
		ctx = context.Background()
	}
	path, source := req.Path, req.Source
	if req.Workload != "" {
		w := workloads.ByName(req.Workload)
		if w == nil {
			return nil, resp, fmt.Errorf("unknown workload %q", req.Workload)
		}
		path, source = w.Name+".f", w.Source
	}
	if source == "" {
		return nil, resp, fmt.Errorf("open needs a workload name or source text")
	}
	if path == "" {
		path = "input.f"
	}
	if req.ID != "" {
		// Gateway-minted ID: honor it so the cluster's consistent-hash
		// routing needs no per-session state, but never silently reuse
		// an ID that is (or was) taken here.
		if err := validateSessionID(req.ID); err != nil {
			return nil, resp, err
		}
		m.mu.Lock()
		taken := m.taken(req.ID)
		m.mu.Unlock()
		if taken {
			return nil, resp, fmt.Errorf("%w: %s", ErrSessionExists, req.ID)
		}
		if m.cfg.DataDir != "" {
			if _, err := os.Lstat(walPath(m.cfg.DataDir, req.ID)); err == nil {
				return nil, resp, fmt.Errorf("%w: %s (journal already on disk)", ErrSessionExists, req.ID)
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, resp, err
	}
	m.mu.Lock()
	if m.cfg.MaxSessions > 0 && len(m.sessions)+m.reserved >= m.cfg.MaxSessions {
		m.mu.Unlock()
		return nil, resp, ErrTooManySessions
	}
	m.reserved++
	m.mu.Unlock()
	release := func() {
		m.mu.Lock()
		m.reserved--
		m.mu.Unlock()
	}

	key := core.AnalysisKey(path, source, dep.DefaultOptions(), false)
	art := m.cache.Get(key)
	cached := art != nil
	var live *core.Session
	var units []string
	if art != nil {
		units = art.UnitNames()
	} else {
		type openResult struct {
			cs  *core.Session
			art *Artifacts
			err error
		}
		ch := make(chan openResult, 1)
		go func() {
			cs, newArt, err := m.analyzeOpen(key, path, source)
			ch <- openResult{cs, newArt, err}
		}()
		var res openResult
		select {
		case res = <-ch:
		case <-ctx.Done():
			// Abandon the open but not the bookkeeping: the analysis
			// goroutine still owns a reserved slot until it returns.
			go func() {
				res := <-ch
				if res.err == nil && res.art != nil {
					m.cache.Put(res.art)
				}
				release()
			}()
			return nil, resp, ctx.Err()
		}
		if res.err != nil {
			release()
			return nil, resp, res.err
		}
		live = res.cs
		for _, u := range live.File.Units {
			units = append(units, u.Name)
		}
		if res.art != nil {
			art = res.art
			m.cache.Put(art)
		}
	}
	m.mu.Lock()
	id := req.ID
	if id == "" {
		for id = newSessionID(); m.taken(id); id = newSessionID() {
		}
	} else if m.taken(id) {
		// Explicit IDs must fail on collision, never remint — the
		// caller (the gateway) routes by this exact ID.
		m.reserved--
		m.mu.Unlock()
		return nil, resp, fmt.Errorf("%w: %s", ErrSessionExists, id)
	}
	ss := m.newSession(id, path, source, art, live, nil)
	m.sessions[id] = ss
	m.reserved--
	m.mu.Unlock()
	m.metrics.SessionsOpened.Inc()
	m.metrics.SessionsLive.Inc()
	resp = OpenResponse{ID: id, Path: path, Units: units, Cached: cached}
	return ss, resp, nil
}

// analyzeOpen runs the cold-open parse + whole-program analysis (and
// artifact build when the cache is enabled) behind a recover: a panic
// anywhere in the front end or analyses becomes an ErrInternal-
// wrapped error on this open only.
func (m *Manager) analyzeOpen(key, path, source string) (cs *core.Session, art *Artifacts, err error) {
	defer func() {
		if r := recover(); r != nil {
			cs, art = nil, nil
			err = fmt.Errorf("%w: analysis of %s panicked: %v", ErrInternal, path, r)
		}
	}()
	cs, err = core.OpenObserved(path, source, m.cfg.Workers, m.metrics)
	if err != nil {
		return nil, nil, err
	}
	if m.cache != nil {
		art = BuildArtifacts(key, cs)
	}
	return cs, art, nil
}

// taken reports an ID that is in use here or tombstoned as migrated
// away. Caller holds m.mu.
func (m *Manager) taken(id string) bool {
	_, moved := m.moved[id]
	return moved || m.sessions[id] != nil
}

// Get returns a session by ID, or nil.
func (m *Manager) Get(id string) *Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sessions[id]
}

// listInfoConcurrency bounds the parallel Info fan-out in List.
const listInfoConcurrency = 16

// List snapshots every session, ordered by ID. Sessions whose actor
// cannot answer within the per-session info budget (hung or
// saturated) degrade to their static fields rather than stalling the
// listing; the Info calls fan out (bounded) so N wedged sessions cost
// one budget per batch of listInfoConcurrency, not N budgets serially.
func (m *Manager) List(ctx context.Context) []SessionInfo {
	m.mu.Lock()
	all := make([]*Session, 0, len(m.sessions))
	for _, ss := range m.sessions {
		all = append(all, ss)
	}
	m.mu.Unlock()
	out := make([]SessionInfo, len(all))
	sem := make(chan struct{}, listInfoConcurrency)
	var wg sync.WaitGroup
	for i, ss := range all {
		wg.Add(1)
		go func(i int, ss *Session) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i] = ss.Info(ctx)
		}(i, ss)
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].ID) != len(out[j].ID) {
			return len(out[i].ID) < len(out[j].ID)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Close removes and stops a session. Deleting a migrated-away ID
// clears its tombstone — the operator's way to stop the 421 forwarding.
func (m *Manager) Close(id string) bool {
	m.mu.Lock()
	ss := m.sessions[id]
	delete(m.sessions, id)
	_, moved := m.moved[id]
	m.mu.Unlock()
	if ss == nil {
		if moved {
			m.clearTombstone(id)
			return true
		}
		return false
	}
	ss.discard()
	m.metrics.SessionsLive.Dec()
	m.metrics.SessionsClosed.Inc()
	return true
}

// Sweep evicts every session idle past the TTL, returning how many.
func (m *Manager) Sweep() int {
	if m.cfg.TTL <= 0 {
		return 0
	}
	var expired []*Session
	m.mu.Lock()
	for id, ss := range m.sessions {
		if ss.Idle() > m.cfg.TTL {
			delete(m.sessions, id)
			expired = append(expired, ss)
		}
	}
	m.mu.Unlock()
	for _, ss := range expired {
		ss.discard()
		m.metrics.SessionsLive.Dec()
		m.metrics.SessionsEvicted.Inc()
	}
	return len(expired)
}

// CacheStats reports the analysis cache counters.
func (m *Manager) CacheStats() CacheStatsResponse { return m.cache.Stats() }

// Metrics returns the manager's metric registry.
func (m *Manager) Metrics() *Metrics { return m.metrics }

// shutdownDrain bounds how long Shutdown waits for durable sessions'
// actors to drain their queues and sync their journals. A wedged actor
// (hung analysis) forfeits its tail rather than hanging the process.
const shutdownDrain = 10 * time.Second

// Shutdown stops the janitor and closes every session. Journals are
// kept (a restart with the same datadir recovers them), and with a
// datadir Shutdown waits — bounded — for every actor to finish its
// queue (a queued first mutation may still give birth to a journal) and
// fsync-close what it has, so a clean shutdown loses nothing regardless
// of fsync policy. Idempotent.
func (m *Manager) Shutdown() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
	m.mu.Lock()
	all := make([]*Session, 0, len(m.sessions))
	for id, ss := range m.sessions {
		all = append(all, ss)
		delete(m.sessions, id)
	}
	m.mu.Unlock()
	for _, ss := range all {
		ss.close()
		m.metrics.SessionsLive.Dec()
		m.metrics.SessionsClosed.Inc()
	}
	if m.cfg.DataDir == "" {
		return
	}
	deadline := time.NewTimer(shutdownDrain)
	defer deadline.Stop()
	for _, ss := range all {
		select {
		case <-ss.done:
		case <-deadline.C:
			return
		}
	}
}
