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
	"sync/atomic"
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

// host is what a manager's sessions share and none of them changes:
// the configuration, the metric registry, the execution governor and
// the planner's daemon-wide state. Every session holds the one pointer.
type host struct {
	cfg     Config
	metrics *Metrics
	// gov supervises every run and the planner's compiled scoring runs
	// (limits, exec slots, telemetry).
	gov *execguard.Governor
	// planAdmit admits plan searches daemon-wide — worlds burn a core
	// each — and plans caches their results by source hash, unit and
	// budget. Plans are replayable step sequences keyed by the exact
	// source they were computed from, so a hit is always valid: a stale
	// entry can only ever be unreachable, never wrong.
	planAdmit *execguard.Gate
	plans     *lru[PlanResponse]
	// disabled is the set of execution backends the operator switched
	// off (Options.DisabledBackends) — the one field written after
	// construction, once, by NewWith.
	disabled atomic.Pointer[map[string]bool]
}

// Manager owns the live sessions and the analysis cache.
type Manager struct {
	*host
	cache *Cache
	// admit holds a place for every registered session and every open
	// or import in flight, so the MaxSessions cap holds across the
	// analysis; register hands the place to the session, unregister
	// gives it back.
	admit *execguard.Gate

	// mu guards the two fields below. sessions gains entries in
	// register and loses them in unregister, nowhere else.
	mu       sync.Mutex
	sessions map[string]*Session
	// moved maps migrated-away session IDs to the base URL of the node
	// that adopted them; requests for them answer 421 + Location.
	// Persisted as <id>.moved files when a datadir is configured.
	moved map[string]string

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
	planWorkers := cfg.PlanWorkers
	if planWorkers <= 0 {
		planWorkers = defaultPlanWorkers
	}
	m := &Manager{
		host: &host{
			cfg:     cfg,
			metrics: cfg.Metrics,
			gov: execguard.New(execguard.Config{
				MaxRuns: maxRuns,
				Limits: execguard.Limits{
					Timeout:     cfg.RunTimeout,
					OutputBytes: cfg.RunOutputBytes,
					RSSBytes:    cfg.RunRSSBytes,
				},
				Telemetry: cfg.Metrics.Telemetry,
			}),
			planAdmit: cfg.Metrics.NewGate("plans", planWorkers, errPlannerBusy),
			plans:     newLRU[PlanResponse](planCacheSize),
		},
		admit:    cfg.Metrics.NewGate("sessions", cfg.MaxSessions, ErrTooManySessions),
		sessions: map[string]*Session{},
		moved:    map[string]string{},
		stop:     make(chan struct{}),
	}
	if cfg.CacheSize > 0 {
		m.cache = newCache(cfg.CacheSize, m.metrics)
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
	for _, ss := range m.all() {
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
// analyzes cold: the source's first open opens live, its second stores
// the artifacts and opens artifact-backed from them. Either way the
// open touches no file: the session's journal is born by its first
// mutation (Session.journalAppend), so until then a crash loses only
// what the client can have again by reopening.
//
// Admission control: when Config.MaxSessions is set, a place at the
// sessions gate is taken before the (expensive) analysis and given back
// if the open fails; at the cap Open returns ErrTooManySessions without
// doing any work. A panic during open-time analysis is recovered and
// returned as an error wrapping ErrInternal — it cannot take down the
// daemon. The analysis runs under ctx (see analyze): a request deadline
// or a client disconnect ends the open, not the place's accounting.
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
	leave, err := m.admit.Enter()
	if err != nil {
		return nil, resp, err
	}
	art, live, err := m.analyze(ctx, path, source, leave)
	if err != nil {
		return nil, resp, err
	}
	// An explicit ID fails on collision, never remints — the caller (the
	// gateway) routes by this exact ID; an empty one is minted by register.
	ss := m.newSession(req.ID, path, source, art, live, nil)
	if err := m.register(ss, leave, false); err != nil {
		leave()
		ss.close()
		return nil, resp, err
	}
	m.metrics.SessionsOpened.Inc()
	resp = OpenResponse{ID: ss.ID, Path: path, Cached: live == nil}
	if live == nil {
		resp.Units = art.UnitNames()
	} else {
		for _, u := range live.File.Units {
			resp.Units = append(resp.Units, u.Name)
		}
	}
	return ss, resp, nil
}

// register publishes ss under its ID. leave gives back the place ss
// holds at the sessions gate: a successful registration hands it to the
// session, for unregister to call; a refused one leaves it with the
// caller. An empty ss.ID is minted here, under the lock that makes it
// unique, before anyone else can see the session. adopt accepts an ID
// this node tombstoned as migrated away — an import brings the session
// back, recovery never sees both; a fresh open must not reuse it.
func (m *Manager) register(ss *Session, leave func(), adopt bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ss.ID == "" {
		for ss.ID = newSessionID(); m.taken(ss.ID); ss.ID = newSessionID() {
		}
	} else if _, moved := m.moved[ss.ID]; m.sessions[ss.ID] != nil || moved && !adopt {
		return fmt.Errorf("%w: %s", ErrSessionExists, ss.ID)
	}
	m.sessions[ss.ID] = ss
	ss.leave = leave
	m.metrics.SessionsLive.Inc()
	return nil
}

// unregister takes ss out of the table; false means it was no longer
// (or never) the session registered under its ID.
func (m *Manager) unregister(ss *Session) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sessions[ss.ID] != ss {
		return false
	}
	delete(m.sessions, ss.ID)
	ss.leave()
	m.metrics.SessionsLive.Dec()
	return true
}

// all snapshots the registered sessions.
func (m *Manager) all() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	all := make([]*Session, 0, len(m.sessions))
	for _, ss := range m.sessions {
		all = append(all, ss)
	}
	return all
}

// analyze answers (path, source) from the artifact cache — art, no
// parse, no analysis — or by analyzing cold. A source's first open gets
// the analyzed session, live, and only records the key (Cache.Admit);
// its second builds the artifacts, caches them and gets them — art — so
// the session opens artifact-backed like every later open, and a text
// opened once never fills the cache. Open, import and recovery share
// it, so a datadir or an import wave full of sessions on one source
// analyzes twice and pre-warms the cache. It runs under ctx: when that
// expires analyze returns ctx.Err() at once while the analysis
// finishes, and still caches, on its own goroutine — a hung parse
// cannot wedge the caller. release is called exactly once if analyze
// fails, and only when that goroutine has ended: the admission place
// the caller holds is not given back before the work it admitted is
// over.
func (m *Manager) analyze(ctx context.Context, path, source string, release func()) (*Artifacts, *core.Session, error) {
	key := core.AnalysisKey(path, source, dep.DefaultOptions(), false)
	if art := m.cache.Get(key); art != nil {
		return art, nil, nil
	}
	build := m.cache.Admit(key)
	type result struct {
		cs  *core.Session
		art *Artifacts
		err error
	}
	ch := make(chan result, 1)
	go func() {
		cs, art, err := m.analyzeOpen(key, path, source, build)
		if art != nil {
			m.cache.Put(art)
		}
		ch <- result{cs, art, err}
	}()
	select {
	case res := <-ch:
		switch {
		case res.err != nil:
			release()
			return nil, nil, res.err
		case res.art != nil:
			return res.art, nil, nil
		}
		return nil, res.cs, nil
	case <-ctx.Done():
		go func() {
			<-ch
			release()
		}()
		return nil, nil, ctx.Err()
	}
}

// analyzeOpen runs the cold-open parse + whole-program analysis (and,
// when build is set, the artifact build) behind a recover: a panic
// anywhere in the front end or analyses becomes an ErrInternal-wrapped
// error on this open only.
func (m *Manager) analyzeOpen(key, path, source string, build bool) (cs *core.Session, art *Artifacts, err error) {
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
	if build {
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
	all := m.all()
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
	if ss := m.Get(id); ss != nil && m.unregister(ss) {
		ss.discard()
		m.metrics.SessionsClosed.Inc()
		return true
	}
	_, moved := m.MovedTo(id)
	if moved {
		m.clearTombstone(id)
	}
	return moved
}

// Sweep evicts every session idle past the TTL, returning how many.
func (m *Manager) Sweep() int {
	if m.cfg.TTL <= 0 {
		return 0
	}
	n := 0
	for _, ss := range m.all() {
		if ss.Idle() > m.cfg.TTL && m.unregister(ss) {
			ss.discard()
			m.metrics.SessionsEvicted.Inc()
			n++
		}
	}
	return n
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
	all := m.all()
	for _, ss := range all {
		if m.unregister(ss) {
			ss.close()
			m.metrics.SessionsClosed.Inc()
		}
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
