package cluster

import (
	"context"
	"fmt"
	"net/url"
	"os"
	"strings"
	"sync"
	"time"

	"parascope/internal/server"
)

// Backend describes one pedd node the gateway can route to.
type Backend struct {
	// Addr is the node's serving base URL (http://host:port).
	Addr string
	// OpsAddr is the node's ops listener base URL; health probes go
	// there so a serving port wedged under load still answers. Empty
	// falls back to Addr (pedd mounts /readyz on both).
	OpsAddr string
	// DataDir is the node's journal directory as visible to the
	// gateway. Needed only for failover: when the node dies, the
	// gateway adopts its sessions from these journals. Empty means the
	// storage is not shared — failover is impossible and says so.
	DataDir string
}

// probeBase is where health probes go.
func (b Backend) probeBase() string {
	if b.OpsAddr != "" {
		return b.OpsAddr
	}
	return b.Addr
}

// ParseBackends parses a -backends spec: comma-separated entries, each
// `addr[|opsaddr[|datadir]]`, or `@path` naming a file with one entry
// per line (# comments and blank lines ignored) so fleets reload via
// SIGHUP without restarting the gateway.
func ParseBackends(spec string) ([]Backend, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("backends: empty spec")
	}
	var entries []string
	if strings.HasPrefix(spec, "@") {
		data, err := os.ReadFile(spec[1:])
		if err != nil {
			return nil, fmt.Errorf("backends: %w", err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			entries = append(entries, line)
		}
	} else {
		for _, e := range strings.Split(spec, ",") {
			if e = strings.TrimSpace(e); e != "" {
				entries = append(entries, e)
			}
		}
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("backends: spec names no backends")
	}
	seen := map[string]bool{}
	out := make([]Backend, 0, len(entries))
	for _, e := range entries {
		b, err := parseBackendEntry(e)
		if err != nil {
			return nil, err
		}
		if seen[b.Addr] {
			return nil, fmt.Errorf("backends: duplicate backend %s", b.Addr)
		}
		seen[b.Addr] = true
		out = append(out, b)
	}
	return out, nil
}

func parseBackendEntry(entry string) (Backend, error) {
	parts := strings.Split(entry, "|")
	if len(parts) > 3 {
		return Backend{}, fmt.Errorf("backends: %q: want addr[|opsaddr[|datadir]]", entry)
	}
	var b Backend
	var err error
	if b.Addr, err = normalizeBase(parts[0]); err != nil {
		return Backend{}, fmt.Errorf("backends: %q: %w", entry, err)
	}
	if len(parts) > 1 && strings.TrimSpace(parts[1]) != "" {
		if b.OpsAddr, err = normalizeBase(parts[1]); err != nil {
			return Backend{}, fmt.Errorf("backends: %q: %w", entry, err)
		}
	}
	if len(parts) > 2 {
		b.DataDir = strings.TrimSpace(parts[2])
	}
	return b, nil
}

// normalizeBase validates a base URL and strips the trailing slash so
// addresses compare and concatenate consistently everywhere.
func normalizeBase(s string) (string, error) {
	s = strings.TrimRight(strings.TrimSpace(s), "/")
	u, err := url.Parse(s)
	if err != nil {
		return "", err
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("base URL %q must be http or https", s)
	}
	if u.Host == "" {
		return "", fmt.Errorf("base URL %q has no host", s)
	}
	return s, nil
}

// backendState is one backend's runtime: its clients, its circuit
// breaker, and its hysteresis-filtered health.
type backendState struct {
	// addr is the backend's serving address. The gateway keys its
	// backends by it, so one state has one address for life and every
	// goroutine may read it.
	addr    string
	api     *server.Client // typed control-plane calls (list, migrate, import)
	ops     *server.Client // /readyz probes against the ops listener
	breaker *Breaker

	mu      sync.Mutex
	dataDir string // a reload may replace it
	ready   bool   // on the ring
	okRun   int    // consecutive successful probes
	failRun int    // consecutive failed probes
}

func newBackendState(be Backend, cfg Config) *backendState {
	return &backendState{
		addr:    be.Addr,
		dataDir: be.DataDir,
		// Control-plane calls retry inside the client only for
		// backpressure; a duplicated import would 409 and misreport.
		api: &server.Client{Base: be.Addr, MaxRetries: -1, Timeout: cfg.migrateTimeout()},
		ops: &server.Client{Base: be.probeBase(), MaxRetries: -1, Timeout: cfg.probeTimeout()},
		breaker: &Breaker{
			Threshold: cfg.BreakerThreshold,
			Cooldown:  cfg.BreakerCooldown,
		},
	}
}

func (b *backendState) journalDir() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dataDir
}

func (b *backendState) isReady() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ready
}

// observe folds one probe result through the hysteresis counters and
// reports whether the ready bit flipped. UpAfter consecutive successes
// bring a backend onto the ring; DownAfter consecutive failures take
// it off — so one dropped probe (GC pause, packet loss) does not
// trigger a fleet-wide rebalance, and one lucky probe does not route
// traffic at a flapping node.
func (b *backendState) observe(ok bool, upAfter, downAfter int) (flipped, nowReady bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.okRun++
		b.failRun = 0
		if !b.ready && b.okRun >= upAfter {
			b.ready = true
			return true, true
		}
	} else {
		b.failRun++
		b.okRun = 0
		if b.ready && b.failRun >= downAfter {
			b.ready = false
			return true, false
		}
	}
	return false, b.ready
}

// probeLoop drives periodic /readyz probes until stop closes. The
// first sweep runs immediately so a freshly started gateway builds its
// ring within UpAfter probe intervals, not UpAfter+1.
func (g *Gateway) probeLoop() {
	defer g.wg.Done()
	t := time.NewTicker(g.cfg.probeInterval())
	defer t.Stop()
	for {
		g.probeSweep()
		select {
		case <-g.stop:
			return
		case <-t.C:
		}
	}
}

// probeSweep probes every backend concurrently and applies the results.
func (g *Gateway) probeSweep() {
	g.mu.Lock()
	states := make([]*backendState, 0, len(g.backends))
	for _, b := range g.backends {
		states = append(states, b)
	}
	g.mu.Unlock()
	var wg sync.WaitGroup
	for _, b := range states {
		wg.Add(1)
		go func(b *backendState) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), g.cfg.probeTimeout())
			err := b.ops.Ready(ctx)
			cancel()
			g.observeProbe(b, err == nil)
		}(b)
	}
	wg.Wait()
}

// observeProbe applies one probe result: hysteresis, gauges, and — on
// a transition — a ring rebuild plus the follow-up work (rebalance
// onto a recovered node, failover off a dead one).
func (g *Gateway) observeProbe(b *backendState, ok bool) {
	flipped, nowReady := b.observe(ok, g.cfg.upAfter(), g.cfg.downAfter())
	var up int64
	if nowReady {
		up = 1
	}
	g.metrics.BackendUp.With(b.addr).Set(up)
	g.metrics.BreakerState.With(b.addr).Set(int64(b.breaker.State()))
	if !flipped {
		return
	}
	g.mu.Lock()
	// The backend may have been dropped by a concurrent reload; only
	// still-configured backends rebuild the ring.
	_, present := g.backends[b.addr]
	if present {
		g.rebuildRingLocked()
	}
	g.mu.Unlock()
	if !present {
		return
	}
	if nowReady {
		g.logf("pedgw: backend %s up, rebalancing", b.addr)
		g.enqueue(gwEvent{kind: evRebalance})
	} else {
		g.logf("pedgw: backend %s down, failing over", b.addr)
		g.enqueue(gwEvent{kind: evFailover, backend: b})
	}
}
