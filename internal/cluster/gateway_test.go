package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"parascope/internal/httpedge"
	"parascope/internal/server"
)

var bg = context.Background()

// testBackend is one in-process pedd node: a durable Manager behind
// real HTTP listeners for both the serving and the ops mux, so the
// gateway probes and proxies exactly as it would in production.
type testBackend struct {
	dir   string
	mgr   *server.Manager
	ready *httpedge.Readiness
	api   *httptest.Server
	ops   *httptest.Server
}

func newTestBackend(t *testing.T) *testBackend {
	t.Helper()
	dir := t.TempDir()
	m := server.NewManager(server.Config{CacheSize: 8, DataDir: dir, Fsync: server.FsyncAlways})
	t.Cleanup(m.Shutdown)
	ready := &httpedge.Readiness{}
	b := &testBackend{
		dir:   dir,
		mgr:   m,
		ready: ready,
		api:   httptest.NewServer(server.NewWith(m, server.Options{Ready: ready})),
		ops:   httptest.NewServer(httpedge.OpsHandler(m.Metrics().Registry, ready)),
	}
	t.Cleanup(b.kill)
	return b
}

func (b *testBackend) backend() Backend {
	return Backend{Addr: b.api.URL, OpsAddr: b.ops.URL, DataDir: b.dir}
}

// kill closes both listeners without shutting the manager down — the
// process-death analog for in-process tests: journals stay on disk,
// nothing answers the network. Idempotent so t.Cleanup can re-run it.
func (b *testBackend) kill() {
	if b.api != nil {
		b.api.Close()
		b.ops.Close()
		b.api, b.ops = nil, nil
	}
}

// sessions returns the IDs currently live on this backend.
func (b *testBackend) sessions() map[string]bool {
	out := map[string]bool{}
	for _, info := range b.mgr.List(bg) {
		out[info.ID] = true
	}
	return out
}

// newTestGateway wires a gateway over the given backends with probe
// timing fast enough for tests, started and serving on a real listener.
func newTestGateway(t *testing.T, cfg Config, backends ...*testBackend) (*Gateway, *httptest.Server) {
	t.Helper()
	for _, b := range backends {
		cfg.Backends = append(cfg.Backends, b.backend())
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 20 * time.Millisecond
	}
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = 500 * time.Millisecond
	}
	if cfg.UpAfter == 0 {
		cfg.UpAfter = 1
	}
	if cfg.DownAfter == 0 {
		cfg.DownAfter = 2
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	g := NewGateway(cfg)
	g.Start()
	ts := httptest.NewServer(g)
	t.Cleanup(func() {
		ts.Close()
		g.Stop()
	})
	return g, ts
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// waitGatewayReady polls the gateway's /readyz until it answers 200 and
// its scrape until every backend it was configured with reads up: the
// gateway is ready once any backend is, and a test that reaches one
// backend through another must not run before both are.
func waitGatewayReady(t *testing.T, g *Gateway, base string) {
	t.Helper()
	waitFor(t, 5*time.Second, "gateway /readyz", func() bool {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	waitFor(t, 5*time.Second, "every backend up", func() bool {
		up := gatewayPromValues(t, scrapeGateway(t, g))
		for _, b := range g.cfg.Backends {
			if up[fmt.Sprintf("pedgw_backend_up{backend=%q}", b.Addr)] != 1 {
				return false
			}
		}
		return true
	})
}

func mustCmd(t *testing.T, cl *server.Client, id, line string) string {
	t.Helper()
	resp, err := cl.Cmd(bg, id, line)
	if err != nil {
		t.Fatalf("cmd %q on %s: %v", line, id, err)
	}
	return resp.Output
}

// TestGatewayEndToEnd drives the full serving surface through a real
// gateway over three real backends: opens spread across the ring,
// session commands route by ID, the list merges the fleet, and the
// scrape shows bounded, session-ID-free series for all of it.
func TestGatewayEndToEnd(t *testing.T) {
	b1, b2, b3 := newTestBackend(t), newTestBackend(t), newTestBackend(t)
	g, ts := newTestGateway(t, Config{}, b1, b2, b3)
	waitGatewayReady(t, g, ts.URL)

	cl := &server.Client{Base: ts.URL}
	idRe := regexp.MustCompile(`^s[0-9a-f]{12}$`)
	// At least eight opens, and as many more as it takes for the IDs to
	// have two owners: the ring's arcs depend on the kernel-picked ports
	// and are sometimes so uneven that eight random IDs share one.
	ring := NewRing(0, []string{b1.api.URL, b2.api.URL, b3.api.URL})
	owners := map[string]bool{}
	var ids []string
	for i := 0; i < 8 || len(owners) < 2; i++ {
		if i == 2000 {
			t.Fatal("2000 minted IDs all belong to one backend")
		}
		resp, err := cl.Open(bg, server.OpenRequest{Workload: "direct"})
		if err != nil {
			t.Fatalf("open %d via gateway: %v", i, err)
		}
		if !idRe.MatchString(resp.ID) {
			t.Fatalf("gateway-minted ID %q does not match %v", resp.ID, idRe)
		}
		ids = append(ids, resp.ID)
		owners[ring.Owner(resp.ID)] = true
	}

	// Session-scoped requests route to wherever the ring put the session.
	for _, id := range ids {
		if out := mustCmd(t, cl, id, "loops"); !strings.Contains(out, "do") {
			t.Fatalf("loops on %s: unexpected output %q", id, out)
		}
		st, err := cl.Status(bg, id)
		if err != nil || st.ID != id {
			t.Fatalf("status %s via gateway: %+v, %v", id, st, err)
		}
	}

	// The merged list shows the whole fleet.
	infos, err := cl.List(bg)
	if err != nil {
		t.Fatalf("list via gateway: %v", err)
	}
	if len(infos) != len(ids) {
		t.Fatalf("gateway list: %d sessions, want %d", len(infos), len(ids))
	}

	// The gateway put the sessions where the ring says: on at least two
	// backends.
	nonEmpty := 0
	for _, b := range []*testBackend{b1, b2, b3} {
		if len(b.sessions()) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Errorf("all %d sessions landed on one backend; ring distribution broken", len(ids))
	}

	// DELETE proxies too, and the fleet view shrinks.
	if err := cl.CloseSession(bg, ids[0]); err != nil {
		t.Fatalf("close %s via gateway: %v", ids[0], err)
	}
	infos, err = cl.List(bg)
	if err != nil || len(infos) != len(ids)-1 {
		t.Fatalf("list after close: %d sessions (%v), want %d", len(infos), err, len(ids)-1)
	}

	// Import is node-internal: the gateway refuses to expose it.
	resp, err := http.Post(ts.URL+"/v1/sessions/import?id=x", "application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/sessions/import via gateway: %d, want 404", resp.StatusCode)
	}

	// Scrape: per-backend health, ring size, routed requests — and no
	// session IDs leaking into labels.
	expo := scrapeGateway(t, g)
	for _, b := range []*testBackend{b1, b2, b3} {
		want := fmt.Sprintf("pedgw_backend_up{backend=%q} 1", b.api.URL)
		if !strings.Contains(expo, want) {
			t.Errorf("scrape missing %s", want)
		}
	}
	if !strings.Contains(expo, "pedgw_ring_backends 3") {
		t.Error("scrape missing pedgw_ring_backends 3")
	}
	for _, family := range []string{
		"pedgw_http_requests_total", "pedgw_http_request_seconds_bucket",
		"pedgw_proxy_requests_total", "pedgw_proxy_seconds_bucket",
	} {
		if !strings.Contains(expo, family) {
			t.Errorf("scrape missing family %s", family)
		}
	}
	for _, id := range ids {
		if strings.Contains(expo, id) {
			t.Fatalf("session ID %s leaked into the metrics exposition (unbounded label cardinality)", id)
		}
	}
}

// TestGatewayExplicitID: a client-chosen session ID passes through the
// gateway unchanged, and reopening it is a 409 — not a silent remint.
func TestGatewayExplicitID(t *testing.T) {
	b := newTestBackend(t)
	g, ts := newTestGateway(t, Config{}, b)
	waitGatewayReady(t, g, ts.URL)

	cl := &server.Client{Base: ts.URL}
	resp, err := cl.Open(bg, server.OpenRequest{Workload: "direct", ID: "pick-me"})
	if err != nil || resp.ID != "pick-me" {
		t.Fatalf("explicit-ID open: %+v, %v", resp, err)
	}
	_, err = cl.Open(bg, server.OpenRequest{Workload: "direct", ID: "pick-me"})
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
		t.Fatalf("duplicate explicit ID: %v, want 409", err)
	}
}

// TestGatewayDraining: the drain bit flips /readyz to 503 and refuses
// new API work with 503 + Retry-After while /healthz stays 200 — the
// contract the SIGTERM path relies on for connection-draining restarts.
func TestGatewayDraining(t *testing.T) {
	b := newTestBackend(t)
	g, ts := newTestGateway(t, Config{}, b)
	waitGatewayReady(t, g, ts.URL)

	g.SetDraining(true)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /readyz: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(`{"workload":"direct"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining open: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 without Retry-After")
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("draining /healthz: %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}

	g.SetDraining(false)
	waitGatewayReady(t, g, ts.URL)
}

// TestGatewayNoReadyBackends: with nothing alive behind it, the
// gateway says so — 503 + Retry-After, not a hang or a 502 storm.
func TestGatewayNoReadyBackends(t *testing.T) {
	dead := deadListenerURL(t)
	g, ts := newTestGateway(t, Config{Backends: []Backend{{Addr: dead}}})
	_ = g
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz with no backends up: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(`{"workload":"direct"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("open with no backends up: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// deadListenerURL returns a URL whose port was just closed, so every
// dial fails fast with connection refused.
func deadListenerURL(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	ln.Close()
	return url
}

// TestGatewayBreakerTripsOnDeadServingPort: a backend whose ops
// listener answers ready but whose serving port refuses connections
// trips its breaker after the threshold; further requests are refused
// locally with 503 instead of dialing a dead socket.
func TestGatewayBreakerTripsOnDeadServingPort(t *testing.T) {
	stubOps := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer stubOps.Close()
	dead := deadListenerURL(t)
	g, ts := newTestGateway(t, Config{
		Backends:         []Backend{{Addr: dead, OpsAddr: stubOps.URL}},
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
		ProxyRetries:     -1,
	})
	waitGatewayReady(t, g, ts.URL) // ops stub answers, so the ring forms

	post := func() *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(`{"workload":"direct"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	for i := 0; i < 2; i++ {
		if resp := post(); resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("transport failure %d: %d, want 502", i, resp.StatusCode)
		}
	}
	resp := post()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("with breaker open: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("breaker-open 503 without Retry-After")
	}
	if !strings.Contains(scrapeGateway(t, g), fmt.Sprintf("pedgw_backend_breaker_state{backend=%q} 2", dead)) {
		t.Error("scrape does not show the breaker open (state 2)")
	}
}

// TestGatewayProxyRetry: a transport failure on the serving port is
// retried once for an idempotent method, under the request's one ID,
// and counted in pedgw_proxy_retries_total; a POST is never retried,
// and ProxyRetries -1 (not 0, which is the client's default budget)
// turns retries off.
func TestGatewayProxyRetry(t *testing.T) {
	stubOps := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer stubOps.Close()
	// gateway serves a fresh stub whose serving port drops the
	// connection of its first session GET and of every POST before any
	// response byte, and answers the rest; seen lists each attempt's
	// method and X-Request-ID. The first GET must dial a connection no
	// earlier request used, or http.Transport would retry it itself: the
	// probes go to their own ops server, and the rebalance sweep's list
	// of the stub is answered with Connection: close.
	gateway := func(cfg Config) (g *Gateway, base string, seen func() []string) {
		var mu sync.Mutex
		var attempts []string
		gets := 0
		stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sessions" {
				w.Header().Set("Connection", "close")
				io.WriteString(w, "[]")
				return
			}
			mu.Lock()
			attempts = append(attempts, r.Method+" "+r.Header.Get("X-Request-ID"))
			drop := r.Method == http.MethodPost || r.Method == http.MethodGet && gets == 0
			if r.Method == http.MethodGet {
				gets++
			}
			mu.Unlock()
			if drop {
				conn, _, err := w.(http.Hijacker).Hijack()
				if err != nil {
					t.Error(err)
					return
				}
				conn.Close()
				return
			}
			io.WriteString(w, `{"state":"active"}`)
		}))
		t.Cleanup(stub.Close)
		cfg.Backends = []Backend{{Addr: stub.URL, OpsAddr: stubOps.URL}}
		g, ts := newTestGateway(t, cfg)
		waitGatewayReady(t, g, ts.URL)
		return g, ts.URL, func() []string {
			mu.Lock()
			defer mu.Unlock()
			return append([]string(nil), attempts...)
		}
	}
	retried := func(g *Gateway) float64 {
		return gatewayPromValues(t, scrapeGateway(t, g))["pedgw_proxy_retries_total"]
	}
	const path = "/v1/sessions/s0123456789ab"

	g, base, seen := gateway(Config{})
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after one dropped connection: %d, want 200", resp.StatusCode)
	}
	if n := retried(g); n != 1 {
		t.Errorf("pedgw_proxy_retries_total = %v after one retried GET, want 1", n)
	}
	get := "GET " + resp.Header.Get("X-Request-ID")
	if got := seen(); len(got) != 2 || got[0] != get || got[1] != get {
		t.Errorf("backend saw %q, want two attempts %q", got, get)
	}

	resp, err = http.Post(base+path+"/cmd", "application/json", strings.NewReader(`{"line":"loops"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("POST on a dropped connection: %d, want 502", resp.StatusCode)
	}
	if n := retried(g); n != 1 {
		t.Errorf("pedgw_proxy_retries_total = %v after a dropped POST, want still 1", n)
	}
	if got := seen(); len(got) != 3 {
		t.Errorf("backend saw %q, want the POST once", got)
	}

	g, base, seen = gateway(Config{ProxyRetries: -1})
	resp, err = http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("GET with ProxyRetries -1: %d, want 502", resp.StatusCode)
	}
	if n := retried(g); n != 0 {
		t.Errorf("pedgw_proxy_retries_total = %v with ProxyRetries -1, want 0", n)
	}
	if got := seen(); len(got) != 1 {
		t.Errorf("backend saw %q with ProxyRetries -1, want one attempt", got)
	}
}

// TestGatewayFailover is the in-process half of the tentpole proof: a
// backend dies with live, mutated sessions; the gateway notices, adopts
// the sessions from the dead node's journals onto surviving ring
// owners, and every acknowledged mutation is served back byte-for-byte
// through the same gateway URL the client was already using.
func TestGatewayFailover(t *testing.T) {
	b1, b2, b3 := newTestBackend(t), newTestBackend(t), newTestBackend(t)
	g, ts := newTestGateway(t, Config{}, b1, b2, b3)
	waitGatewayReady(t, g, ts.URL)

	cl := &server.Client{Base: ts.URL}
	want := map[string]string{} // id -> acknowledged save output
	for i := 0; i < 6; i++ {
		resp, err := cl.Open(bg, server.OpenRequest{Workload: "direct"})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		mustCmd(t, cl, resp.ID, "loop 1")
		mustCmd(t, cl, resp.ID, "apply parallelize 1")
		out := mustCmd(t, cl, resp.ID, "save")
		if !strings.Contains(out, "doall") {
			t.Fatalf("parallelize not acknowledged in save output:\n%s", out)
		}
		want[resp.ID] = out
	}

	// Pick a victim that actually holds sessions.
	victim := b1
	for _, b := range []*testBackend{b1, b2, b3} {
		if len(b.sessions()) > 0 {
			victim = b
			break
		}
	}
	lost := victim.sessions()
	if len(lost) == 0 {
		t.Fatal("no backend holds sessions; test setup broken")
	}
	t.Logf("killing %s holding %d sessions", victim.api.URL, len(lost))
	victim.kill()

	// Every acknowledged mutation must come back byte-identical through
	// the gateway once failover adopts the journals.
	for id, out := range want {
		id, out := id, out
		waitFor(t, 15*time.Second, "session "+id+" to serve after failover", func() bool {
			resp, err := cl.Cmd(bg, id, "save")
			return err == nil && resp.Output == out
		})
	}

	// The adoption is visible in the metrics and on disk. A session
	// serves as soon as its import lands; the sweep counts it after that.
	if expo := scrapeGateway(t, g); !strings.Contains(expo, "pedgw_failovers_total") {
		t.Error("scrape missing pedgw_failovers_total")
	}
	waitFor(t, 5*time.Second, "pedgw_failover_sessions_total to count the adopted sessions", func() bool {
		return gatewayPromValues(t, scrapeGateway(t, g))["pedgw_failover_sessions_total"] >= float64(len(lost))
	})
	for id := range lost {
		if _, err := os.Stat(victim.dir + "/" + id + ".wal.migrated"); err != nil {
			t.Errorf("adopted journal for %s not retired: %v", id, err)
		}
		if _, err := os.Stat(victim.dir + "/" + id + ".moved"); err != nil {
			t.Errorf("no tombstone left for %s in the dead node's datadir: %v", id, err)
		}
	}
}

// TestGatewayDiscoverySweep: a session opened directly on a node that
// is not its ring owner (out-of-band, no gateway involved) is still
// reachable through the gateway — the 404 sweep finds it and caches
// the detour.
func TestGatewayDiscoverySweep(t *testing.T) {
	b1, b2 := newTestBackend(t), newTestBackend(t)
	g, ts := newTestGateway(t, Config{}, b1, b2)
	waitGatewayReady(t, g, ts.URL)
	// Each backend's up enqueued a rebalance sweep, and one that ran
	// after the out-of-band open below would move the session to its
	// owner before the gateway is asked, leaving nothing to discover.
	waitFor(t, 5*time.Second, "the ups' rebalance sweeps", func() bool {
		return gatewayPromValues(t, scrapeGateway(t, g))["pedgw_rebalances_total"] >= 2
	})
	waitOrchestratorIdle(t, g)

	// Find an ID the ring assigns to b1, then plant it on b2.
	ring := NewRing(0, []string{b1.api.URL, b2.api.URL})
	// Candidates look like minted IDs (hex of a hash): IDs that differ
	// only in a trailing counter sit on one arc of the ring's
	// un-finalised FNV-1a, and for some port pairs that arc is all b2's.
	id := ""
	for i := 0; i < 10000 && id == ""; i++ {
		h := sha256.Sum256([]byte(strconv.Itoa(i)))
		if cand := "s" + hex.EncodeToString(h[:6]); ring.Owner(cand) == b1.api.URL {
			id = cand
		}
	}
	if id == "" {
		t.Fatal("none of 10000 candidate IDs hashed to b1")
	}
	direct := &server.Client{Base: b2.api.URL}
	if _, err := direct.Open(bg, server.OpenRequest{Workload: "direct", ID: id}); err != nil {
		t.Fatalf("out-of-band open on b2: %v", err)
	}

	cl := &server.Client{Base: ts.URL}
	st, err := cl.Status(bg, id)
	if err != nil || st.ID != id {
		t.Fatalf("status of off-owner session via gateway: %+v, %v", st, err)
	}
	if got := gatewayPromValues(t, scrapeGateway(t, g))["pedgw_discoveries_total"]; got < 1 {
		t.Errorf("pedgw_discoveries_total = %v, want >= 1", got)
	}
}

// waitOrchestratorIdle returns once g's orchestrator has run every event
// enqueued before the call: the orchestrator runs events one at a time
// and in order, so it enqueues the drain of a stub backend and waits
// for the drain to list the stub's sessions (it has none).
func waitOrchestratorIdle(t *testing.T, g *Gateway) {
	t.Helper()
	listed := make(chan struct{}, 1)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "[]")
		select {
		case listed <- struct{}{}:
		default:
		}
	}))
	defer stub.Close()
	g.enqueue(gwEvent{kind: evDrain, backend: newBackendState(Backend{Addr: stub.URL}, g.cfg)})
	select {
	case <-listed:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the orchestrator to drain a stub backend")
	}
}

// TestGatewayReloadRebalanceAndDrain: scaling the fleet via Reload
// converges the placement to the new ring in both directions — keys
// move onto a joining backend, and a removed-but-alive backend is
// drained empty before the gateway forgets it.
func TestGatewayReloadRebalanceAndDrain(t *testing.T) {
	b1, b2 := newTestBackend(t), newTestBackend(t)
	g, ts := newTestGateway(t, Config{}, b1, b2)
	waitGatewayReady(t, g, ts.URL)

	// b3 exists from the start but joins the fleet only at the Reload
	// below: with its address known, sessions are opened until one of
	// them is b3's in the 3-node ring. The ring's arcs are uneven enough
	// (they depend on the kernel-picked ports) that a fixed dozen random
	// IDs sometimes gives the new backend nothing to receive.
	b3 := newTestBackend(t)
	ring3 := NewRing(0, []string{b1.api.URL, b2.api.URL, b3.api.URL})
	cl := &server.Client{Base: ts.URL}
	var ids []string
	forB3 := 0
	for i := 0; i < 12 || forB3 == 0; i++ {
		if i == 2000 {
			t.Fatal("none of 2000 minted IDs belongs to the joining backend")
		}
		resp, err := cl.Open(bg, server.OpenRequest{Workload: "direct"})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		mustCmd(t, cl, resp.ID, "loop 1")
		mustCmd(t, cl, resp.ID, "apply parallelize 1")
		ids = append(ids, resp.ID)
		if ring3.Owner(resp.ID) == b3.api.URL {
			forB3++
		}
	}

	// Scale out: add b3. Placement must converge to the 3-node ring.
	g.Reload([]Backend{b1.backend(), b2.backend(), b3.backend()})
	locate := func() map[string]string {
		out := map[string]string{}
		for _, b := range []*testBackend{b1, b2, b3} {
			for id := range b.sessions() {
				out[id] = b.api.URL
			}
		}
		return out
	}
	waitFor(t, 15*time.Second, "placement to converge to the 3-node ring", func() bool {
		loc := locate()
		for _, id := range ids {
			if loc[id] != ring3.Owner(id) {
				return false
			}
		}
		return true
	})
	if len(b3.sessions()) == 0 {
		t.Fatal("scale-out moved nothing onto the new backend")
	}

	// Scale in: drop b3 while it is alive. Its sessions must drain off
	// before the gateway stops routing to it.
	g.Reload([]Backend{b1.backend(), b2.backend()})
	ring2 := NewRing(0, []string{b1.api.URL, b2.api.URL})
	waitFor(t, 15*time.Second, "removed backend to drain", func() bool {
		if len(b3.sessions()) != 0 {
			return false
		}
		loc := locate()
		for _, id := range ids {
			if loc[id] != ring2.Owner(id) {
				return false
			}
		}
		return true
	})

	// Sessions still answer through the gateway after both moves, state
	// intact (the parallelize annotation survived two migrations).
	for _, id := range ids {
		if out := mustCmd(t, cl, id, "save"); !strings.Contains(out, "doall") {
			t.Fatalf("session %s lost its mutation across rebalance: %s", id, out)
		}
	}
	if got := gatewayPromValues(t, scrapeGateway(t, g))["pedgw_migrations_total"]; got < 1 {
		t.Errorf("pedgw_migrations_total = %v, want >= 1", got)
	}
}

// scrapeGateway renders the gateway's registry as GET /metrics would.
func scrapeGateway(t *testing.T, g *Gateway) string {
	t.Helper()
	var b strings.Builder
	if err := g.metrics.WriteProm(&b); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	return b.String()
}

// gatewayPromValues parses an exposition into name{labels} -> value.
func gatewayPromValues(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparsable exposition line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err != nil {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestGatewayOversizedBodyClosesConnection: past the proxied-body cap
// the gateway answers 413 itself, with the request ID in the body, and
// closes the connection so the rest of the body is never read as a
// next request — on the open route and on a proxied one.
func TestGatewayOversizedBodyClosesConnection(t *testing.T) {
	b := newTestBackend(t)
	g, ts := newTestGateway(t, Config{MaxBodyBytes: 4096}, b)
	waitGatewayReady(t, g, ts.URL)
	big := `{"line":"` + strings.Repeat("x", 8192) + `"}`
	for _, path := range []string{"/v1/sessions", "/v1/sessions/s0/cmd"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s past the cap: %d (%s), want 413", path, resp.StatusCode, body)
			continue
		}
		if !resp.Close {
			t.Errorf("POST %s: 413 left the connection open with the rest of the body on it", path)
		}
		var e server.ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.RequestID == "" || e.RequestID != resp.Header.Get("X-Request-ID") ||
			!strings.Contains(e.Error, "request body exceeds 4096 bytes") {
			t.Errorf("POST %s: 413 body %s lacks the error or the request ID", path, body)
		}
	}
}

// TestRequestIDHostileInput sends the same X-Request-ID table at pedd
// and at pedgw: absent, the edge mints 16 hex digits; 1-64 bytes of
// visible ASCII are echoed in the header and the error body; anything
// else — 4 KiB, a control byte, a space — is replaced rather than
// echoed into a header, every error body and the access log.
func TestRequestIDHostileInput(t *testing.T) {
	b := newTestBackend(t)
	g, ts := newTestGateway(t, Config{}, b)
	waitGatewayReady(t, g, ts.URL)
	minted := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for _, daemon := range []struct{ name, url string }{{"pedd", b.api.URL}, {"pedgw", ts.URL}} {
		for _, c := range []struct {
			name, sent string
			echoed     bool
		}{
			{"absent", "", false},
			{"well-formed", "caller-chose-this", true},
			{"what server.Client mints", "0123456789abcdef", true},
			{"64 bytes", strings.Repeat("a", 64), true},
			{"65 bytes", strings.Repeat("a", 65), false},
			{"4 KiB", strings.Repeat("x", 4096), false},
			{"control byte", "id\twith-tab", false},
			{"space", "two words", false},
		} {
			req, _ := http.NewRequest(http.MethodGet, daemon.url+"/v1/sessions/nope", nil)
			if c.sent != "" {
				req.Header.Set("X-Request-ID", c.sent)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s, %s: %v", daemon.name, c.name, err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			got := resp.Header.Get("X-Request-ID")
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s, %s: status %d, want 404", daemon.name, c.name, resp.StatusCode)
			}
			if c.echoed && got != c.sent {
				t.Errorf("%s, %s: X-Request-ID = %q, want it echoed", daemon.name, c.name, got)
			}
			if !c.echoed && !minted.MatchString(got) {
				t.Errorf("%s, %s: X-Request-ID = %.40q, want 16 minted hex digits", daemon.name, c.name, got)
			}
			if vs := resp.Header.Values("X-Request-ID"); len(vs) != 1 {
				t.Errorf("%s, %s: %d X-Request-ID headers %q, want one", daemon.name, c.name, len(vs), vs)
			}
			var e server.ErrorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.RequestID != got {
				t.Errorf("%s, %s: error body %s does not carry request_id %q", daemon.name, c.name, body, got)
			}
		}
	}
}
