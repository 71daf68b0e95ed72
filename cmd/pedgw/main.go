// Command pedgw is the pedd cluster gateway: a stateless HTTP proxy
// that consistent-hashes session IDs across a fleet of pedd backends,
// so clients talk to one address while sessions spread over many
// nodes. It probes each backend's /readyz, keeps only up-and-accepting
// nodes on the hash ring, trips a per-backend circuit breaker on
// transport failures, and drives zero-loss session migration: when the
// ring changes (a node joins, a SIGHUP reload) sessions move to their
// new owners via the nodes' journal-shipping migrate endpoint, and
// when a node dies with shared storage configured, the gateway adopts
// its sessions from the journals it left behind.
//
// Usage:
//
//	pedgw -backends http://127.0.0.1:7473,http://127.0.0.1:7483
//	pedgw -addr :7470 -backends @/etc/pedgw/backends.conf
//
// Each -backends entry is addr[|opsaddr[|datadir]]: the serving URL,
// the ops URL health probes hit (falls back to the serving URL), and
// the node's journal directory as seen from the gateway — required
// only for failover from a dead node. @path reads entries from a file
// (one per line, # comments); SIGHUP re-reads it and rebalances, so
// fleets scale without restarting the gateway. SIGTERM drains: /readyz
// flips to 503, new requests get 503 + Retry-After, in-flight ones
// complete, then the process exits 0.
//
// The ops listener (-opsaddr) serves the pedgw_ metric families at
// /metrics and pprof under /debug/pprof/, mirroring pedd's.
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"time"

	"parascope/internal/cluster"
	"parascope/internal/faultpoint"
	"parascope/internal/httpedge"
	"parascope/internal/server"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", ":7470", "listen address")
	opsAddr := flag.String("opsaddr", "", "ops listen address for GET /metrics and /debug/pprof/ (empty = disabled)")
	backendsSpec := flag.String("backends", "", "comma-separated backend entries addr[|opsaddr[|datadir]], or @file (required)")
	replicas := flag.Int("replicas", 0, "virtual nodes per backend on the hash ring (0 = 64)")
	probeInterval := flag.Duration("probeinterval", cluster.DefaultProbeInterval, "how often each backend's /readyz is probed")
	probeTimeout := flag.Duration("probetimeout", cluster.DefaultProbeTimeout, "health probe timeout")
	upAfter := flag.Int("upafter", cluster.DefaultUpAfter, "consecutive good probes before a backend joins the ring")
	downAfter := flag.Int("downafter", cluster.DefaultDownAfter, "consecutive failed probes before a backend leaves the ring")
	breakerFails := flag.Int("breakerfails", 0, "consecutive transport failures that trip a backend's circuit breaker (0 = 3)")
	breakerCooldown := flag.Duration("breakercooldown", 0, "how long a tripped breaker stays open before a half-open probe (0 = 2s)")
	proxyTimeout := flag.Duration("proxytimeout", server.DefaultClientTimeout, "deadline of one proxied attempt (negative = none)")
	proxyRetries := flag.Int("proxyretries", server.DefaultMaxRetries, "transport-failure retries for idempotent proxied requests (negative disables)")
	migrateTimeout := flag.Duration("migratetimeout", cluster.DefaultMigrateTimeout, "deadline per rebalance/failover migration")
	maxBody := flag.Int64("maxbody", 0, "proxied request body cap in bytes (0 = 1 MiB)")
	drainGrace := flag.Duration("draingrace", 500*time.Millisecond, "how long to answer 503 before closing the listener on SIGTERM (lets load balancers see /readyz flip)")
	accessLog := flag.Bool("accesslog", true, "write one structured log line per request to stderr")
	faults := flag.String("faults", "", "chaos testing: arm fault injections, e.g. migrate-stream=err")
	flag.Parse()

	if !faultpoint.ArmDaemon("pedgw", *faults) {
		return 2
	}

	if *backendsSpec == "" {
		fmt.Fprintln(os.Stderr, "pedgw: -backends is required")
		return 2
	}
	backends, err := cluster.ParseBackends(*backendsSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pedgw: %v\n", err)
		return 2
	}

	cfg := cluster.Config{
		Backends:         backends,
		Replicas:         *replicas,
		ProbeInterval:    *probeInterval,
		ProbeTimeout:     *probeTimeout,
		UpAfter:          *upAfter,
		DownAfter:        *downAfter,
		BreakerThreshold: *breakerFails,
		BreakerCooldown:  *breakerCooldown,
		ProxyTimeout:     *proxyTimeout,
		ProxyRetries:     *proxyRetries,
		MigrateTimeout:   *migrateTimeout,
		MaxBodyBytes:     *maxBody,
	}
	if *accessLog {
		cfg.AccessLog = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	gw := cluster.NewGateway(cfg)
	gw.Start()
	defer gw.Stop()
	return httpedge.Serve(httpedge.Daemon{
		Name:        "pedgw",
		Addr:        *addr,
		OpsAddr:     *opsAddr,
		Handler:     gw,
		Ops:         gw.OpsHandler(),
		Detail:      fmt.Sprintf("%d backends", len(backends)),
		SetDraining: gw.SetDraining,
		// Refuse new work first, then keep the listener up for the grace
		// window: clients and load balancers see 503 + Retry-After (and
		// /readyz flip) instead of a connection reset, while in-flight
		// requests keep running.
		Grace: *drainGrace,
		Hangup: func() {
			// Re-parse the spec (an @file is re-read) and rebalance.
			next, err := cluster.ParseBackends(*backendsSpec)
			if err != nil {
				log.Printf("pedgw: SIGHUP: %v (keeping current backends)", err)
				return
			}
			gw.Reload(next)
		},
	})
}
