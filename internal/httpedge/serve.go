package httpedge

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// shutdownTimeout bounds the drain of in-flight requests on SIGINT or
// SIGTERM; connections still active past it make the exit code 1.
const shutdownTimeout = 5 * time.Second

// Daemon is what Serve runs: a serving handler, optionally an ops
// handler on a listener of its own, and the daemon's hooks into the
// drain.
type Daemon struct {
	// Name prefixes every log line ("pedd").
	Name string
	// Addr is the serving address; OpsAddr the ops one ("" = none).
	Addr, OpsAddr string
	Handler, Ops  http.Handler
	// Detail closes the "listening on" line ("ttl 30m0s, cache 128").
	Detail string
	// SetDraining flips the daemon's readiness; Serve calls it with true
	// once a stop signal arrives, before anything is closed.
	SetDraining func(bool)
	// Grace is how long the listener stays open after that, so load
	// balancers see /readyz flip instead of a connection reset.
	Grace time.Duration
	// Hangup, when set, runs on every SIGHUP.
	Hangup func()
}

// Serve binds, serves until SIGINT or SIGTERM, drains and returns the
// process exit code: 0 after a clean drain, 1 when a listener cannot be
// bound, serving fails, or connections outlive the shutdown timeout. It
// binds before it logs "listening on": a port in use is reported at
// once and alone, and an address with port 0 logs the port the kernel
// picked.
func Serve(d Daemon) int {
	ln, err := net.Listen("tcp", d.Addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", d.Name, err)
		return 1
	}
	srv := &http.Server{Handler: d.Handler, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	var opsLn net.Listener
	if d.OpsAddr != "" {
		if opsLn, err = net.Listen("tcp", d.OpsAddr); err != nil {
			fmt.Fprintf(os.Stderr, "%s: ops: %v\n", d.Name, err)
			_ = ln.Close()
			return 1
		}
	}
	log.Printf("%s: listening on %s (%s)", d.Name, ln.Addr(), d.Detail)
	if opsLn != nil {
		log.Printf("%s: ops listening on %s (/metrics, /debug/pprof/)", d.Name, opsLn.Addr())
		opsSrv := &http.Server{Handler: d.Ops, ReadHeaderTimeout: 10 * time.Second}
		defer opsSrv.Close()
		go func() {
			if err := opsSrv.Serve(opsLn); err != nil && err != http.ErrServerClosed {
				log.Printf("%s: ops: %v", d.Name, err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	if d.Hangup != nil {
		signal.Notify(hup, syscall.SIGHUP)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	for {
		select {
		case err := <-errCh:
			fmt.Fprintf(os.Stderr, "%s: %v\n", d.Name, err)
			return 1
		case <-hup:
			d.Hangup()
		case <-ctx.Done():
			log.Printf("%s: shutting down", d.Name)
			// Readiness first: rolling restarts and the gateway see
			// /readyz answer 503 and stop sending new work while the
			// in-flight requests below complete.
			d.SetDraining(true)
			time.Sleep(d.Grace)
			shutCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
			defer cancel()
			// A failed drain is an abnormal stop: say so and exit non-zero
			// so orchestrators can tell it from a clean one.
			if err := srv.Shutdown(shutCtx); err != nil {
				log.Printf("%s: shutdown: drain incomplete: %v", d.Name, err)
				return 1
			}
			return 0
		}
	}
}
