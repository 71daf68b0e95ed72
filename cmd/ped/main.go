// Command ped is the text-mode ParaScope Editor: it opens a Fortran
// source file (or one of the built-in workload programs with
// -workload), runs the full analysis, and accepts the interactive
// commands documented by `help` — selecting loops, browsing and
// marking dependences, asserting variable values, applying power-
// steering transformations, editing, and executing the program on
// the parallel interpreter.
//
// With -remote, ped becomes a thin client of a pedd daemon: the
// session lives server-side and every command travels over the
// HTTP/JSON API, so many editors share one analysis service and its
// content-hash cache.
//
// In -batch mode, any failed command makes ped exit non-zero, so
// scripted sessions can gate on analysis results.
//
// Usage:
//
//	ped file.f
//	ped -workload spec77
//	echo 'auto' | ped -workload pneoss -batch
//	ped -remote http://localhost:7473 -workload arc3d
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"parascope/internal/core"
	"parascope/internal/repl"
	"parascope/internal/server"
	"parascope/internal/workloads"
)

func main() {
	workload := flag.String("workload", "", "open a built-in workload program instead of a file")
	batch := flag.Bool("batch", false, "suppress the prompt (for piped command scripts); failed commands exit non-zero")
	remote := flag.String("remote", "", "drive a pedd daemon at this base URL instead of analyzing locally")
	timeout := flag.Duration("timeout", 0, "per-request timeout in -remote mode (0 = client default)")
	flag.Parse()

	if *remote != "" {
		os.Exit(runRemote(*remote, *workload, *batch, *timeout))
	}

	var (
		session *core.Session
		err     error
	)
	switch {
	case *workload != "":
		w := workloads.ByName(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "ped: unknown workload %q; available:\n", *workload)
			for _, x := range workloads.All() {
				fmt.Fprintf(os.Stderr, "  %s — %s\n", x.Name, x.Description)
			}
			os.Exit(2)
		}
		session, err = w.Session()
	case flag.NArg() == 1:
		var src []byte
		src, err = os.ReadFile(flag.Arg(0))
		if err == nil {
			session, err = core.Open(flag.Arg(0), string(src))
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: ped [-workload name] [-remote url] [file.f]")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ped: %v\n", err)
		os.Exit(1)
	}

	r := repl.New(session, os.Stdout)
	if !*batch {
		fmt.Printf("ParaScope Editor — %s (%d units); type help\n",
			session.File.Path, len(session.File.Units))
	}
	if err := r.Run(os.Stdin); err != nil {
		fmt.Fprintf(os.Stderr, "ped: %v\n", err)
		os.Exit(1)
	}
	if *batch && r.Errors > 0 {
		os.Exit(1)
	}
}

// runRemote drives a pedd daemon: open a server-side session, forward
// every stdin line to it, print what comes back. Returns the exit
// code (non-zero in batch mode when any command failed). The client's
// default resilience policy is in effect: per-request timeouts, and
// transparent backoff-and-retry across the daemon's 429/503
// backpressure rejections.
func runRemote(base, workload string, batch bool, timeout time.Duration) int {
	ctx := context.Background()
	client := server.NewClient(base)
	client.Timeout = timeout
	req := server.OpenRequest{Workload: workload}
	if workload == "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: ped -remote url [-workload name] [file.f]")
			return 2
		}
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "ped: %v\n", err)
			return 1
		}
		req.Path, req.Source = flag.Arg(0), string(src)
	}
	open, err := client.Open(ctx, req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ped: open: %v\n", err)
		return 1
	}
	defer func() { _ = client.CloseSession(ctx, open.ID) }()
	if !batch {
		cached := ""
		if open.Cached {
			cached = ", cache hit"
		}
		fmt.Printf("ParaScope Editor — %s (%d units, remote %s%s); type help\n",
			open.Path, len(open.Units), base, cached)
	}
	errors := 0
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "quit" || line == "exit" {
			break
		}
		resp, err := client.Cmd(ctx, open.ID, line)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ped: %v\n", err)
			return 1
		}
		fmt.Print(resp.Output)
		if resp.Err != "" {
			errors++
			fmt.Printf("error: %s\n", resp.Err)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "ped: %v\n", err)
		return 1
	}
	if batch && errors > 0 {
		return 1
	}
	return 0
}
