package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"parascope/internal/httpedge"
	"parascope/internal/server"
)

// Gateway tuning defaults; override via Config.
const (
	// DefaultProbeInterval is how often each backend's /readyz is hit.
	DefaultProbeInterval = 1 * time.Second
	// DefaultProbeTimeout bounds one health probe.
	DefaultProbeTimeout = 1 * time.Second
	// DefaultUpAfter / DefaultDownAfter are the hysteresis widths: how
	// many consecutive probe results flip a backend's ready bit.
	DefaultUpAfter   = 2
	DefaultDownAfter = 2
	// DefaultMigrateTimeout bounds one control-plane migration call
	// (export + ship + replay of a whole journal).
	DefaultMigrateTimeout = 30 * time.Second
	// proxyMaxHops bounds 421-redirect following inside the proxy.
	proxyMaxHops = 3
	// openMintRetries is how many fresh IDs an open tries when a mint
	// collides (409) before giving up.
	openMintRetries = 4
)

// Config tunes the gateway.
type Config struct {
	// Backends is the initial fleet (see ParseBackends).
	Backends []Backend
	// Replicas is the virtual-node count per backend (0 = default).
	Replicas int
	// ProbeInterval / ProbeTimeout shape health probing.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// UpAfter / DownAfter are the hysteresis widths (0 = defaults).
	UpAfter   int
	DownAfter int
	// BreakerThreshold / BreakerCooldown tune the per-backend circuit
	// breakers (0 = Breaker defaults).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// ProxyTimeout bounds one proxied attempt and ProxyRetries is the
	// transport-failure budget for idempotent requests: they are the
	// proxy client's Timeout and MaxRetries (0 = server.Client's
	// defaults, negative = no timeout / never retry).
	ProxyTimeout time.Duration
	ProxyRetries int
	// MigrateTimeout bounds one rebalance/failover operation.
	MigrateTimeout time.Duration
	// MaxBodyBytes caps proxied request bodies (0 = default 1 MiB).
	MaxBodyBytes int64
	// AccessLog, when set, gets one structured line per request.
	AccessLog *slog.Logger
	// Metrics receives gateway counters (nil = a fresh registry).
	Metrics *Metrics
	// Logf receives operational log lines (nil = log.Printf).
	Logf func(format string, args ...interface{})
}

func (c Config) probeInterval() time.Duration { return defDur(c.ProbeInterval, DefaultProbeInterval) }
func (c Config) probeTimeout() time.Duration  { return defDur(c.ProbeTimeout, DefaultProbeTimeout) }
func (c Config) migrateTimeout() time.Duration {
	return defDur(c.MigrateTimeout, DefaultMigrateTimeout)
}
func (c Config) upAfter() int   { return defInt(c.UpAfter, DefaultUpAfter) }
func (c Config) downAfter() int { return defInt(c.DownAfter, DefaultDownAfter) }

func defDur(v, d time.Duration) time.Duration {
	if v > 0 {
		return v
	}
	return d
}

func defInt(v, d int) int {
	if v > 0 {
		return v
	}
	return d
}

// Orchestrator event kinds.
const (
	evRebalance = "rebalance" // a backend joined the ring: move its keys to it
	evFailover  = "failover"  // a backend died: adopt its journals elsewhere
	evDrain     = "drain"     // a backend was removed from config: move its sessions off
)

type gwEvent struct {
	kind    string
	backend *backendState
}

// Gateway is the stateless routing front of a pedd fleet: it
// consistent-hashes session IDs across the ready backends, proxies
// /v1/* with per-backend circuit breakers, probes health, and drives
// session migration on ring changes and backend death. It holds no
// session state — every routing decision recomputes from the session
// ID and the ready set, so gateways restart freely.
type Gateway struct {
	cfg     Config
	metrics *Metrics
	edge    *httpedge.Edge
	ready   *httpedge.Readiness

	mu       sync.Mutex
	backends map[string]*backendState // by Addr
	ring     *Ring
	// override routes sessions found off their ring owner (a 421
	// followed, a 404 sweep hit) until the ring catches up; entries
	// self-invalidate when the cached backend stops answering for them.
	override map[string]string // session ID -> backend Addr

	events chan gwEvent
	stop   chan struct{}
	wg     sync.WaitGroup
}

// NewGateway builds a gateway over cfg.Backends. Call Start to begin
// probing (the ring is empty — and every route 503s — until probes
// mark backends ready).
func NewGateway(cfg Config) *Gateway {
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics() // every backend state reports to it
	}
	g := &Gateway{
		cfg:      cfg,
		metrics:  cfg.Metrics,
		backends: map[string]*backendState{},
		ring:     NewRing(cfg.Replicas, nil),
		override: map[string]string{},
		events:   make(chan gwEvent, 64),
		stop:     make(chan struct{}),
	}
	for _, be := range cfg.Backends {
		g.backends[be.Addr] = newBackendState(be, cfg)
		g.metrics.BackendUp.With(be.Addr).Set(0)
		g.metrics.BreakerState.With(be.Addr).Set(0)
	}
	g.ready = &httpedge.Readiness{NotReady: g.notRoutable}
	// No deadline at the edge: each proxied exchange has ProxyTimeout.
	g.edge = httpedge.New(httpedge.Config{
		Metrics:   g.metrics.Metrics,
		AccessLog: cfg.AccessLog,
		// Proxied bodies are command-sized (import is node-internal, so
		// journal streams never pass through): no way to lift the cap.
		MaxBody:      max(cfg.MaxBodyBytes, 0),
		Ready:        g.ready,
		DrainRefusal: "gateway draining",
	})
	g.edge.Handle("POST /v1/sessions", g.handleOpen)
	g.edge.Handle("GET /v1/sessions", g.handleList)
	// Import is node-internal (migration and failover ship journals
	// directly between pedd nodes); the literal pattern outranks {id},
	// so it never proxies as a session named "import".
	g.edge.Handle("POST /v1/sessions/import", func(w http.ResponseWriter, r *http.Request) {
		httpedge.WriteError(w, http.StatusNotFound,
			errors.New("session import is node-internal; the gateway does not expose it"))
	})
	g.edge.Handle("/v1/sessions/{id}", g.handleProxy)
	g.edge.Handle("/v1/sessions/{id}/{op...}", g.handleProxy)
	return g
}

// Start launches the health prober and the migration orchestrator.
func (g *Gateway) Start() {
	g.wg.Add(2)
	go g.probeLoop()
	go g.orchestrate()
}

// Stop halts the prober and orchestrator and waits for them.
func (g *Gateway) Stop() {
	close(g.stop)
	g.wg.Wait()
}

// notRoutable is the rest of the gateway's readiness: not draining is
// not enough, it must be able to route somewhere.
func (g *Gateway) notRoutable() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.ring.Members()) == 0 {
		return "no ready backends"
	}
	return ""
}

// SetDraining flips the gateway's drain bit: /readyz answers 503 and
// new requests are refused with 503 + Retry-After while in-flight ones
// complete (pair with http.Server.Shutdown).
func (g *Gateway) SetDraining(v bool) { g.ready.SetDraining(v) }

// ServeHTTP implements http.Handler through the edge.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.edge.ServeHTTP(w, r) }

// OpsHandler mounts the gateway's operational surface — /metrics,
// /healthz, /readyz, pprof — for pedgw -opsaddr, separate from the
// proxy port so scraping never contends with routed traffic.
func (g *Gateway) OpsHandler() http.Handler {
	return httpedge.OpsHandler(g.metrics.Registry, g.ready)
}

func (g *Gateway) logf(format string, args ...interface{}) {
	if g.cfg.Logf != nil {
		g.cfg.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// rebuildRingLocked recomputes the ring from the ready set. Callers
// hold g.mu.
func (g *Gateway) rebuildRingLocked() {
	var members []string
	for addr, b := range g.backends {
		if b.isReady() {
			members = append(members, addr)
		}
	}
	g.ring = NewRing(g.cfg.Replicas, members)
	g.metrics.RingBackends.Set(int64(len(members)))
	g.metrics.RingChanges.Inc()
}

// route picks the backend for a session: a cached override (set when a
// session was found off its ring owner) wins, else the ring owner.
// The second return is the ring owner either way.
func (g *Gateway) route(id string) (addr, owner string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	owner = g.ring.Owner(id)
	if ov, ok := g.override[id]; ok {
		if _, present := g.backends[ov]; present {
			return ov, owner
		}
		delete(g.override, id) // backend dropped from config
	}
	return owner, owner
}

func (g *Gateway) backend(addr string) *backendState {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.backends[addr]
}

func (g *Gateway) readyBackends() []*backendState {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*backendState, 0, len(g.backends))
	for _, b := range g.backends {
		if b.isReady() {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}

func (g *Gateway) setOverride(id, addr string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ring.Owner(id) == addr {
		delete(g.override, id) // the ring already says so
		return
	}
	g.override[id] = addr
}

func (g *Gateway) clearOverride(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.override, id)
}

// mintID mints a session ID: 13 chars of [a-z0-9], safe for journal
// and tombstone filenames (server.validateSessionID's alphabet).
func mintID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "s0000000000000"
	}
	return "s" + hex.EncodeToString(b[:])
}

// handleOpen routes a session open. The gateway mints the ID before
// routing — consistent hashing needs the key up front — and injects it
// into the forwarded body; an explicit client ID is honored as-is. A
// minted ID that collides (409) is reminted and rerouted; an explicit
// one passes the 409 through.
func (g *Gateway) handleOpen(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	var obj map[string]interface{}
	if err := json.Unmarshal(body, &obj); err != nil {
		httpedge.WriteError(w, http.StatusBadRequest, fmt.Errorf("open: %w", err))
		return
	}
	id, _ := obj["id"].(string)
	explicit := id != ""
	reqID := w.Header().Get("X-Request-ID")
	for try := 0; try < openMintRetries; try++ {
		if !explicit {
			id = mintID()
			obj["id"] = id
		}
		payload, err := json.Marshal(obj)
		if err != nil {
			httpedge.WriteError(w, http.StatusBadRequest, err)
			return
		}
		addr, _ := g.route(id)
		b := g.backend(addr)
		if b == nil {
			g.unavailable(w, "no ready backends")
			return
		}
		resp, retries, err := b.proxy.Forward(r.Context(), http.MethodPost, "/v1/sessions", payload, "application/json", reqID)
		g.metrics.ProxyRetries.Add(uint64(retries))
		if err != nil {
			g.badGateway(w, b, err)
			return
		}
		if resp.StatusCode == http.StatusConflict && !explicit {
			drain(resp)
			continue // mint again; a fresh ID reroutes by hash
		}
		g.relay(w, resp)
		return
	}
	g.unavailable(w, fmt.Sprintf("could not mint an unused session ID in %d tries", openMintRetries))
}

// handleList fans GET /v1/sessions out to every ready backend and
// merges. A backend that fails mid-sweep is skipped (logged), so one
// slow node cannot blank the fleet listing.
func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	backends := g.readyBackends()
	var (
		mu  sync.Mutex
		all []server.SessionInfo
		wg  sync.WaitGroup
	)
	for _, b := range backends {
		wg.Add(1)
		go func(b *backendState) {
			defer wg.Done()
			infos, err := b.api.List(r.Context())
			if err != nil {
				g.logf("pedgw: list %s: %v", b.addr, err)
				return
			}
			mu.Lock()
			all = append(all, infos...)
			mu.Unlock()
		}(b)
	}
	wg.Wait()
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	if all == nil {
		all = []server.SessionInfo{}
	}
	httpedge.WriteJSON(w, http.StatusOK, all)
}

// handleProxy relays one session-scoped request to the session's
// backend through its proxy client (circuit breaker, transport retries
// on idempotent methods), following 421s to configured backends with
// override caching, and sweeping the fleet once on a 404 to re-locate
// sessions the ring mispredicts (e.g. just after a node rejoins).
func (g *Gateway) handleProxy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	reqID := w.Header().Get("X-Request-ID")
	pathq := r.URL.RequestURI()
	addr, owner := g.route(id)
	viaOverride := addr != owner
	swept := false
	hops := 0
	for {
		b := g.backend(addr)
		if b == nil {
			g.unavailable(w, "no ready backends")
			return
		}
		resp, retries, err := b.proxy.Forward(r.Context(), r.Method, pathq, body, r.Header.Get("Content-Type"), reqID)
		g.metrics.ProxyRetries.Add(uint64(retries))
		if err != nil {
			g.badGateway(w, b, err)
			return
		}
		switch {
		case resp.StatusCode == http.StatusMisdirectedRequest:
			// A tombstone: the session moved. Follow to the node the
			// tombstone names when it is one of ours; otherwise relay
			// the 421 and let a redirect-following client take over.
			next := g.locationBackend(resp.Header.Get("Location"))
			drain(resp)
			if next == "" || next == addr {
				g.clearOverride(id)
				g.relayMisdirect(w, r, id, resp)
				return
			}
			if hops++; hops > proxyMaxHops {
				httpedge.WriteError(w, http.StatusBadGateway,
					fmt.Errorf("session %s: gave up after %d migration redirects", id, proxyMaxHops))
				return
			}
			g.metrics.RedirectsServed.Inc()
			g.setOverride(id, next)
			addr = next
			continue
		case resp.StatusCode == http.StatusNotFound && viaOverride:
			// Stale override; fall back to the ring owner.
			drain(resp)
			g.clearOverride(id)
			addr, viaOverride = owner, false
			continue
		case resp.StatusCode == http.StatusNotFound && !swept:
			// The ring owner doesn't have it. Sweep the fleet once: a
			// session can legitimately live off its owner right after a
			// rejoin, until the rebalance sweep moves it home.
			drain(resp)
			swept = true
			if found := g.discover(r.Context(), id, addr); found != "" {
				g.metrics.Discoveries.Inc()
				g.setOverride(id, found)
				addr = found
				continue
			}
			httpedge.WriteError(w, http.StatusNotFound, fmt.Errorf("no such session %s on any ready backend", id))
			return
		}
		g.relay(w, resp)
		return
	}
}

// relayMisdirect passes a 421 through with its Location rewritten only
// if empty (keep the node's own answer when it has one).
func (g *Gateway) relayMisdirect(w http.ResponseWriter, r *http.Request, id string, resp *http.Response) {
	if loc := resp.Header.Get("Location"); loc != "" {
		w.Header().Set("Location", loc)
	}
	httpedge.WriteError(w, http.StatusMisdirectedRequest,
		fmt.Errorf("session %s migrated off the fleet the gateway routes", id))
}

// locationBackend maps a Location header to a configured backend's
// Addr ("" when it names no backend the gateway knows).
func (g *Gateway) locationBackend(loc string) string {
	if loc == "" {
		return ""
	}
	u, err := url.Parse(loc)
	if err != nil || u.Host == "" {
		return ""
	}
	base := u.Scheme + "://" + u.Host
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.backends[base]; ok {
		return base
	}
	return ""
}

// discover sweeps the ready backends (skipping the one already asked)
// for a session the ring mispredicted, returning the Addr that has it.
func (g *Gateway) discover(ctx context.Context, id, except string) string {
	for _, b := range g.readyBackends() {
		if b.addr == except {
			continue
		}
		if _, err := b.api.Status(ctx, id); err == nil {
			return b.addr
		}
	}
	return ""
}

// relay copies a backend response to the client, streaming the body.
func (g *Gateway) relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			if k == "X-Request-Id" {
				continue // the gateway already stamped its own
			}
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

func (g *Gateway) unavailable(w http.ResponseWriter, msg string) {
	httpedge.WriteRefusal(w, http.StatusServiceUnavailable, errors.New(msg))
}

func (g *Gateway) badGateway(w http.ResponseWriter, b *backendState, err error) {
	if errors.Is(err, errBreakerOpen) {
		g.unavailable(w, fmt.Sprintf("%v for backend %s", errBreakerOpen, b.addr))
		return
	}
	httpedge.WriteError(w, http.StatusBadGateway, fmt.Errorf("backend %s: %v", b.addr, err))
}

// enqueue hands the orchestrator an event without blocking the prober;
// the sweeps are idempotent, so coalescing under burst is safe.
func (g *Gateway) enqueue(ev gwEvent) {
	select {
	case g.events <- ev:
	default:
		g.logf("pedgw: orchestrator busy, dropping %s event", ev.kind)
	}
}

// orchestrate serializes all migration work on one goroutine: ring
// changes and failovers never race each other moving the same session.
func (g *Gateway) orchestrate() {
	defer g.wg.Done()
	for {
		select {
		case <-g.stop:
			return
		case ev := <-g.events:
			switch ev.kind {
			case evRebalance:
				g.rebalance()
			case evFailover:
				g.failover(ev.backend)
			case evDrain:
				g.drainBackend(ev.backend)
			}
		}
	}
}

// rebalance sweeps every ready backend and migrates each session whose
// ring owner is elsewhere — run after a backend joins the ring, so the
// keys it now owns move to it and the ring's routing prediction comes
// true again.
func (g *Gateway) rebalance() {
	g.metrics.Rebalances.Inc()
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.migrateTimeout())
	defer cancel()
	for _, b := range g.readyBackends() {
		infos, err := b.api.List(ctx)
		if err != nil {
			g.logf("pedgw: rebalance: list %s: %v", b.addr, err)
			continue
		}
		for _, info := range infos {
			g.mu.Lock()
			owner := g.ring.Owner(info.ID)
			g.mu.Unlock()
			if owner == "" || owner == b.addr {
				continue
			}
			if _, err := b.api.Migrate(ctx, info.ID, owner); err != nil {
				g.metrics.MigrationsFailed.Inc()
				g.logf("pedgw: rebalance: migrate %s %s -> %s: %v", info.ID, b.addr, owner, err)
				continue
			}
			g.metrics.Migrations.Inc()
			g.clearOverride(info.ID)
			g.logf("pedgw: rebalance: migrated %s %s -> %s", info.ID, b.addr, owner)
		}
	}
}

// drainBackend migrates every session off a backend that was removed
// from the config but is still alive (reload), so dropping it loses
// nothing.
func (g *Gateway) drainBackend(b *backendState) {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.migrateTimeout())
	defer cancel()
	infos, err := b.api.List(ctx)
	if err != nil {
		g.logf("pedgw: drain %s: list: %v", b.addr, err)
		return
	}
	for _, info := range infos {
		g.mu.Lock()
		owner := g.ring.Owner(info.ID)
		g.mu.Unlock()
		if owner == "" || owner == b.addr {
			if owner == "" {
				g.logf("pedgw: drain %s: no ready backend for %s; session stays", b.addr, info.ID)
			}
			continue
		}
		if _, err := b.api.Migrate(ctx, info.ID, owner); err != nil {
			g.metrics.MigrationsFailed.Inc()
			g.logf("pedgw: drain %s: migrate %s -> %s: %v", b.addr, info.ID, owner, err)
			continue
		}
		g.metrics.Migrations.Inc()
		g.clearOverride(info.ID)
	}
}

// failover adopts a dead backend's sessions from its journals. This is
// the shared-storage path: it only works when the dead node's DataDir
// is visible from the gateway. Each journal is cleaned — the torn tail
// a kill -9 leaves holds only unacknowledged work, exactly what
// startup recovery would discard — and shipped to the session's new
// ring owner, whose import replays it through the same recovery code.
// Adopted journals are renamed *.wal.migrated and a tombstone is left,
// so the dead node restarting neither resurrects nor forks them.
func (g *Gateway) failover(b *backendState) {
	g.metrics.Failovers.Inc()
	dir := b.journalDir()
	if dir == "" {
		g.logf("pedgw: failover %s: no datadir configured for this backend; "+
			"its sessions cannot be adopted (configure addr|opsaddr|datadir with shared storage)", b.addr)
		return
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		g.logf("pedgw: failover %s: reading %s: %v", b.addr, dir, err)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.migrateTimeout())
	defer cancel()
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".wal") {
			continue
		}
		id := strings.TrimSuffix(name, ".wal")
		path := filepath.Join(dir, name)
		if err := g.failoverOne(ctx, b, id, path); err != nil {
			g.metrics.FailoverFailed.Inc()
			g.logf("pedgw: failover %s: session %s: %v", b.addr, id, err)
			continue
		}
		g.metrics.FailoverSessions.Inc()
	}
}

func (g *Gateway) failoverOne(ctx context.Context, b *backendState, id, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	clean, err := server.CleanJournalStream(data)
	if err != nil {
		return fmt.Errorf("journal unusable: %w", err)
	}
	g.mu.Lock()
	owner := g.ring.Owner(id)
	g.mu.Unlock()
	if owner == "" || owner == b.addr {
		return errors.New("no ready backend to adopt it")
	}
	ob := g.backend(owner)
	if ob == nil {
		return fmt.Errorf("owner %s not configured", owner)
	}
	if _, err := ob.api.Import(ctx, id, clean); err != nil {
		var apiErr *server.APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusConflict {
			// Already adopted — another gateway won the race. Retire
			// the journal the same way; the live copy is authoritative.
			g.logf("pedgw: failover %s: session %s already adopted by %s", b.addr, id, owner)
		} else {
			return fmt.Errorf("import to %s: %w", owner, err)
		}
	}
	// Retire the source journal so the dead node restarting cannot
	// resurrect a forked copy, and leave a tombstone so it answers 421.
	if err := os.Rename(path, path+".migrated"); err != nil {
		return fmt.Errorf("journal adopted by %s but could not be retired: %w", owner, err)
	}
	_ = os.WriteFile(filepath.Join(filepath.Dir(path), id+".moved"), []byte(owner+"\n"), 0o644)
	g.setOverride(id, owner)
	g.logf("pedgw: failover: adopted %s from %s onto %s (%d bytes)", id, b.addr, owner, len(clean))
	return nil
}

// Reload swaps in a new backend set (SIGHUP): kept backends keep their
// health and breaker state, new ones join down (probes bring them up,
// then rebalance moves their keys in), and removed-but-alive backends
// are drained — their sessions migrate to the new ring — before the
// gateway forgets them.
func (g *Gateway) Reload(backends []Backend) {
	g.mu.Lock()
	next := make(map[string]*backendState, len(backends))
	var removed []*backendState
	for _, be := range backends {
		if old, ok := g.backends[be.Addr]; ok {
			old.mu.Lock()
			old.dataDir = be.DataDir
			old.mu.Unlock()
			next[be.Addr] = old
			continue
		}
		next[be.Addr] = newBackendState(be, g.cfg)
		g.metrics.BackendUp.With(be.Addr).Set(0)
		g.metrics.BreakerState.With(be.Addr).Set(0)
	}
	for addr, b := range g.backends {
		if _, ok := next[addr]; !ok {
			removed = append(removed, b)
		}
	}
	g.backends = next
	g.rebuildRingLocked()
	g.mu.Unlock()
	g.logf("pedgw: reloaded backends: %d configured, %d removed", len(backends), len(removed))
	for _, b := range removed {
		if b.isReady() {
			g.enqueue(gwEvent{kind: evDrain, backend: b})
		}
	}
	g.enqueue(gwEvent{kind: evRebalance})
}

func writeBodyError(w http.ResponseWriter, err error) {
	if !httpedge.TooLarge(w, err, "request body") {
		httpedge.WriteError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
	}
}
