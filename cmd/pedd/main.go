// Command pedd is the ParaScope Editor daemon: it hosts many
// concurrent editor sessions behind an HTTP/JSON API so thin clients
// (ped -remote, curl, editors) get sub-second dependence analysis
// without running the analyses themselves. Sessions are serialized on
// per-session actor goroutines, evicted after an idle TTL, and opens
// of already-analyzed source are served from a content-hash cache.
//
// Usage:
//
//	pedd                      # listen on :7473
//	pedd -addr :8080 -ttl 10m -cache 256 -workers 4
//	pedd -opsaddr 127.0.0.1:7474   # also expose /metrics and pprof
//	pedd -datadir /var/lib/pedd -fsync always   # crash-safe sessions
//
// Then (session IDs are minted per open — read yours from the open
// response):
//
//	ID=$(curl -s localhost:7473/v1/sessions -d '{"workload":"arc3d"}' | jq -r .id)
//	curl -s localhost:7473/v1/sessions/$ID/cmd -d '{"line":"loops"}'
//	curl -s localhost:7474/metrics
//
// The ops listener (-opsaddr, off by default) serves the Prometheus
// text exposition at /metrics and net/http/pprof under /debug/pprof/,
// on a port separate from the serving one so profiling and scraping
// never contend with request traffic. Every request carries an
// X-Request-ID (generated when the client sends none) that appears in
// the structured access log on stderr and in error response bodies.
//
// With -datadir set, every session keeps a write-ahead journal of its
// mutating commands under that directory and is rebuilt — byte for
// byte — at the next start after a crash or kill -9. -fsync picks the
// durability/latency trade-off (always, interval, never) and
// -snapshotevery bounds replay length by periodically compacting each
// journal to a snapshot. A session whose journal hits an I/O error
// degrades to read-only (reads 200, mutations 503) instead of taking
// the daemon down.
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"strings"
	"time"

	"parascope/internal/faultpoint"
	"parascope/internal/httpedge"
	"parascope/internal/server"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", ":7473", "listen address")
	opsAddr := flag.String("opsaddr", "", "ops listen address for GET /metrics and /debug/pprof/ (empty = disabled)")
	ttl := flag.Duration("ttl", 30*time.Minute, "evict sessions idle longer than this (0 disables)")
	cacheSize := flag.Int("cache", 128, "analysis cache capacity in programs (0 disables)")
	workers := flag.Int("workers", 0, "per-open analysis worker pool size (0 = GOMAXPROCS)")
	reqTimeout := flag.Duration("reqtimeout", server.DefaultReqTimeout, "per-request deadline; queued commands past it get 504 (negative disables)")
	maxBody := flag.Int64("maxbody", server.DefaultMaxBodyBytes, "request body size cap in bytes; larger bodies get 413 (negative disables)")
	maxSessions := flag.Int("maxsessions", 0, "live session cap; opens past it get 503 (0 = unlimited)")
	queueDepth := flag.Int("queue", 0, "per-session pending-command queue depth; full queues get 429 (0 = default)")
	accessLog := flag.Bool("accesslog", true, "write one structured log line per request to stderr")
	dataDir := flag.String("datadir", "", "directory for session journals; sessions survive restarts (empty = in-memory only)")
	fsyncMode := flag.String("fsync", "interval", "journal fsync policy: always, interval, or never")
	snapEvery := flag.Int("snapshotevery", 64, "compact a session journal to a snapshot after this many mutations (0 = never)")
	planWorkers := flag.Int("planworkers", 0, "concurrent speculative plan searches daemon-wide; excess requests get 429 (0 = 2)")
	faults := flag.String("faults", "", "chaos testing: arm fault injections, e.g. journal-append=delay:25ms,plan-fork=panic")
	disableBackends := flag.String("disable-backends", "", "comma-separated execution backends POST /run refuses with 501 (e.g. compile)")
	maxRuns := flag.Int("maxruns", 0, "concurrent program executions daemon-wide; excess runs get 429 (0 = 2x GOMAXPROCS, negative = unbounded)")
	runTimeout := flag.Duration("runtimeout", 0, "default per-run wall budget before the governor kills it (0 = 60s, negative = none)")
	maxRunOut := flag.Int64("maxrunout", 0, "per-run captured stdout cap in bytes (0 = 8MiB, negative = unbounded)")
	maxRunRSS := flag.Int64("maxrunrss", 0, "kill compiled runs past this resident-set size in bytes (0 = 1GiB, negative = off)")
	flag.Parse()

	if !faultpoint.ArmDaemon("pedd", *faults) {
		return 2
	}

	fsync, err := server.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pedd: %v\n", err)
		return 2
	}
	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "pedd: %v\n", err)
			return 1
		}
	}

	metrics := server.NewMetrics()
	mgr := server.NewManager(server.Config{
		TTL:            *ttl,
		CacheSize:      *cacheSize,
		Workers:        *workers,
		MaxSessions:    *maxSessions,
		QueueDepth:     *queueDepth,
		DataDir:        *dataDir,
		Fsync:          fsync,
		SnapshotEvery:  *snapEvery,
		Metrics:        metrics,
		PlanWorkers:    *planWorkers,
		MaxRuns:        *maxRuns,
		RunTimeout:     *runTimeout,
		RunOutputBytes: *maxRunOut,
		RunRSSBytes:    *maxRunRSS,
	})
	if *dataDir != "" {
		st, err := mgr.Recover()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pedd: %v\n", err)
			return 1
		}
		log.Printf("pedd: recovery: %s (datadir %s, fsync %s)", st, *dataDir, fsync)
	}
	defer mgr.Shutdown()
	ready := &httpedge.Readiness{}
	opts := server.Options{ReqTimeout: *reqTimeout, MaxBodyBytes: *maxBody, Metrics: metrics, Ready: ready}
	if *disableBackends != "" {
		opts.DisabledBackends = strings.Split(*disableBackends, ",")
	}
	if *accessLog {
		opts.AccessLog = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	return httpedge.Serve(httpedge.Daemon{
		Name:        "pedd",
		Addr:        *addr,
		OpsAddr:     *opsAddr,
		Handler:     server.NewWith(mgr, opts),
		Ops:         httpedge.OpsHandler(metrics.Registry, ready),
		Detail:      fmt.Sprintf("ttl %s, cache %d", *ttl, *cacheSize),
		SetDraining: ready.SetDraining,
	})
}
