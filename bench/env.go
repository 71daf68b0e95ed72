package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"parascope/internal/cluster"
	"parascope/internal/server"
)

// env is one running stack: a pedd daemon, optionally a gateway in
// front of it, and the files they own — all in this process, over
// loopback HTTP, configured the way cmd/pedd and cmd/pedgw configure
// themselves by default (journal on with the interval fsync policy,
// analysis cache on, access log formatted but discarded).
type env struct {
	dir     string // out/run-*: journals and build cache
	seed    int64
	metrics *server.Metrics
	gwm     *cluster.Metrics
	mgr     *server.Manager
	pedd    *http.Server
	gw      *cluster.Gateway
	gwSrv   *http.Server
	direct  string // pedd base URL
	base    string // what clients dial: the gateway when there is one
	tr      *tracer
	golden  *golden
	// primed collects the operations set-up itself makes through the
	// stack (cache-priming sessions); they are checked like any other.
	primed *recorder

	// Per-workload prepared inputs.
	suite []*suiteProg
	big   *bigProg
	mid   []*midProg
}

// startEnv brings the stack up. tr may be nil (untraced).
func startEnv(w *workload, seed int64, tr *tracer) (e *env, err error) {
	e = &env{seed: seed, tr: tr, metrics: server.NewMetrics(), primed: newRecorder()}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if err = os.MkdirAll("out", 0o755); err != nil {
		return e, err
	}
	if e.dir, err = os.MkdirTemp("out", "run-"); err != nil {
		return e, err
	}
	data := filepath.Join(e.dir, "data")
	if err = os.MkdirAll(data, 0o755); err != nil {
		return e, err
	}
	if e.golden, err = loadGolden(); err != nil {
		return e, err
	}
	discard := slog.New(slog.NewTextHandler(io.Discard, nil))
	e.mgr = server.NewManager(server.Config{
		TTL:           30 * time.Minute,
		CacheSize:     128,
		DataDir:       data,
		SnapshotEvery: 64,
		Metrics:       e.metrics,
		RunCacheDir:   filepath.Join(e.dir, "runcache"),
	})
	h := server.NewWith(e.mgr, server.Options{Metrics: e.metrics, AccessLog: discard})
	if e.pedd, e.direct, err = serve(tr.wrap("pedd", h)); err != nil {
		return e, err
	}
	e.base = e.direct
	if w.gateway {
		e.gwm = cluster.NewMetrics()
		e.gw = cluster.NewGateway(cluster.Config{
			Backends:  []cluster.Backend{{Addr: e.direct}},
			UpAfter:   1,
			AccessLog: discard,
			Metrics:   e.gwm,
			Logf:      func(string, ...interface{}) {},
		})
		e.gw.Start()
		if e.gwSrv, e.base, err = serve(tr.wrap("gateway", e.gw)); err != nil {
			return e, err
		}
		if err = waitReady(e.base); err != nil {
			return e, err
		}
	}
	if err = w.prepare(e); err != nil {
		return e, fmt.Errorf("prepare %s: %w", w.name, err)
	}
	return e, nil
}

// serve starts an HTTP server for h on a loopback port the kernel picks.
func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	go func() { _ = srv.Serve(ln) }() // returns when close() shuts the server down
	return srv, "http://" + ln.Addr().String(), nil
}

// waitReady polls the gateway's /readyz until its first health probe
// has put the backend on the ring.
func waitReady(base string) error {
	c := &server.Client{Base: base, MaxRetries: -1}
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := c.Ready(context.Background())
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway not ready after 10s: %w", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// close stops every server and goroutine the env started, waits for
// them, and removes the env's files.
func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if e.gwSrv != nil {
		_ = e.gwSrv.Shutdown(ctx)
	}
	if e.gw != nil {
		e.gw.Stop()
	}
	if e.pedd != nil {
		_ = e.pedd.Shutdown(ctx)
	}
	if e.mgr != nil {
		e.mgr.Shutdown()
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
	}
}

// newUser makes closed-loop client number id. Each user owns its
// connection pool, like a separate ped -remote process would.
func (e *env) newUser(id int, rec *recorder) *user {
	tap := &idTap{base: &http.Transport{MaxIdleConnsPerHost: 1}}
	return &user{
		id:  id,
		env: e,
		c:   &server.Client{Base: e.base, HTTPClient: &http.Client{Transport: tap}},
		tap: tap,
		rec: rec,
		ctx: context.Background(),
	}
}
