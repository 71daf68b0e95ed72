package execguard

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"time"
)

// Kill reasons, bounded for metric labels.
const (
	KillDeadline = "deadline" // wall timeout fired
	KillOutput   = "output"   // stdout/stderr cap tripped
	KillRSS      = "rss"      // resident-set watchdog fired
	KillCtx      = "ctx"      // caller's context cancelled/expired
)

// Result is what a supervised subprocess produced. It is returned even
// alongside a non-nil error so callers can surface the truncated
// output of a killed run.
type Result struct {
	Stdout string
	Stderr string
	Wall   time.Duration
	// Killed names the kill reason (KillDeadline etc.), empty when the
	// process exited on its own.
	Killed string
}

// Supervise runs cmd under g's limits: the process starts in its own
// group, stdout/stderr are captured through byte-capped writers, and a
// watchdog kills the whole group on wall timeout, output-cap trip, RSS
// breach, or caller context cancellation. cmd.Stdout/Stderr must be
// unset — Supervise owns capture. The returned error is nil on clean
// exit; a typed ErrTimeout/ErrOutputLimit/ErrResourceLimit when the
// governor killed the run; the wrapped ctx error when ctx ended it; or
// the process's own failure otherwise. A non-zero exit that races the
// deadline is reported as the process's own failure only if the
// process was not signalled by us — satellite 2's classification.
func Supervise(ctx context.Context, g *Governor, cmd *exec.Cmd) (*Result, error) {
	lim := g.RunLimits()
	outw := NewLimitWriter(lim.OutputBytes)
	errw := NewLimitWriter(lim.StderrBytes)
	cmd.Stdout = outw
	cmd.Stderr = errw
	if lim.RSSBytes > 0 {
		// Ask the Go runtime in generated binaries to resist first;
		// the watchdog is the backstop for non-cooperating processes.
		if cmd.Env == nil {
			cmd.Env = os.Environ()
		}
		cmd.Env = append(cmd.Env, fmt.Sprintf("GOMEMLIMIT=%d", lim.RSSBytes))
	}
	setpgid(cmd)

	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("execguard: start: %w", err)
	}
	pid := cmd.Process.Pid

	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	var deadline <-chan time.Time
	var timer *time.Timer
	if lim.Timeout > 0 {
		timer = time.NewTimer(lim.Timeout)
		deadline = timer.C
		defer timer.Stop()
	}
	var poll <-chan time.Time
	var ticker *time.Ticker
	if lim.RSSBytes > 0 {
		ticker = time.NewTicker(lim.PollInterval)
		poll = ticker.C
		defer ticker.Stop()
	}

	var waitErr error
	var killed string
	var killErr error
	kill := func(reason string, err error) {
		if killed != "" {
			return
		}
		killed, killErr = reason, err
		killGroup(pid)
		g.Telemetry().ExecKills.With(reason).Inc()
	}
loop:
	for {
		select {
		case waitErr = <-done:
			break loop
		case <-deadline:
			kill(KillDeadline, TimeoutError(lim.Timeout))
		case <-outw.TripC():
			kill(KillOutput, outw.Err())
		case <-errw.TripC():
			kill(KillOutput, errw.Err())
		case <-ctx.Done():
			kill(KillCtx, fmt.Errorf("execguard: run cancelled: %w", ctx.Err()))
		case <-poll:
			if rss := readRSS(pid); rss > lim.RSSBytes {
				kill(KillRSS, ResourceLimitError(lim.RSSBytes))
			}
		}
	}

	res := &Result{
		Stdout: outw.String(),
		Stderr: errw.String(),
		Wall:   time.Since(start),
		Killed: killed,
	}
	switch {
	case killed != "" && waitErr != nil && (wasSignaled(waitErr) || !isExitError(waitErr)):
		// Our kill landed (the process died signalled) or Wait
		// surfaced an I/O error from the tripped output copier —
		// report the governor's typed error.
		return res, killErr
	case waitErr != nil:
		// The process failed on its own — a non-zero exit that merely
		// raced the deadline is its failure, not a timeout.
		return res, fmt.Errorf("execguard: %w (stderr: %s)", waitErr, snippet(res.Stderr))
	default:
		// Clean exit, even if a kill fired after it had already
		// finished.
		res.Killed = ""
		return res, nil
	}
}

func isExitError(err error) bool {
	_, ok := err.(*exec.ExitError)
	return ok
}

// snippet trims stderr for inline error text.
func snippet(s string) string {
	const max = 300
	if len(s) > max {
		s = s[:max] + "..."
	}
	if s == "" {
		s = "<empty>"
	}
	return s
}
