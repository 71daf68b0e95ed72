package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"parascope/internal/codegen"
	"parascope/internal/execguard"
	"parascope/internal/interp"
)

// Execution backends. BackendInterp runs the session's program under
// the simulating interpreter; BackendCompile lowers it to Go, builds
// a native binary into the pedc cache, and executes that. Both
// produce byte-identical output for every program the code generator
// accepts.
const (
	BackendInterp  = "interp"
	BackendCompile = "compile"
)

// Backends lists the valid ExecRequest.Backend values.
func Backends() []string { return []string{BackendInterp, BackendCompile} }

// ExecRequest selects how to execute a session's current program.
// The zero value means: interpret, one DOALL worker, no READ input,
// governor-default limits.
type ExecRequest struct {
	// Backend is BackendInterp or BackendCompile; empty means interp.
	Backend string
	// Workers bounds the goroutines a DOALL loop fans out to; values
	// below one mean one.
	Workers int
	// Input supplies the values list-directed READ statements consume.
	Input []float64
	// Timeout overrides the governor's wall budget when positive.
	Timeout time.Duration
	// CacheDir overrides the compile backend's build cache location
	// (tests); empty means the per-user default.
	CacheDir string
	// Fallback routes a compile decline or build failure to the
	// interpreter instead of failing, with the reason surfaced in
	// ExecResult.FallbackReason. Run-time failures never fall back —
	// the program already started, rerunning it could double side
	// effects and hide real bugs.
	Fallback bool
	// Gov supplies the resource governor (limits, slots, telemetry);
	// nil means default limits, unbounded admission, no telemetry.
	Gov *execguard.Governor
}

// ExecResult is one execution's outcome, uniform across backends.
type ExecResult struct {
	// Output is the captured list-directed PRINT output.
	Output string
	// Wall is the execution's wall-clock duration. For the compile
	// backend it covers only the run, not the (cached) build.
	Wall time.Duration
	// SimCycles is the interpreter's simulated parallel cycle count;
	// zero for the compile backend, which reports real time instead.
	SimCycles int64
	// Backend records which backend actually ran.
	Backend string
	// FallbackReason is set when Fallback rerouted a compile request
	// to the interpreter; it carries the decline/build error text.
	FallbackReason string
}

// Trailer renders what the `run` verb prints after the program's own
// output: why a compile request fell back to the interpreter, and the
// wall time of a compiled run.
func (r ExecResult) Trailer() string {
	var out string
	if r.FallbackReason != "" {
		out = fmt.Sprintf("[fell back to interpreter: %s]\n", r.FallbackReason)
	}
	if r.Backend == BackendCompile {
		out += fmt.Sprintf("[compiled: %s]\n", r.Wall.Round(time.Microsecond))
	}
	return out
}

// Exec runs the session's current program under the requested backend,
// governed end to end: an execution slot is acquired (ErrBusy when the
// daemon is saturated), the run is bounded by the governor's wall
// timeout and output caps, and compiled binaries additionally get
// process-group kill plus the RSS watchdog. The compile backend
// declines programs it cannot lower exactly (codegen.IsDeclined
// distinguishes that from build or runtime failure); with Fallback set
// those degrade to the interpreter. ctx cancellation aborts the run.
func (s *Session) Exec(ctx context.Context, req ExecRequest) (ExecResult, error) {
	backend := req.Backend
	if backend == "" {
		backend = BackendInterp
	}
	workers := req.Workers
	if workers < 1 {
		workers = 1
	}
	if backend != BackendInterp && backend != BackendCompile {
		return ExecResult{}, fmt.Errorf("unknown backend %q (want %s)", backend, strings.Join(Backends(), " or "))
	}

	gov := req.Gov
	if req.Timeout > 0 {
		gov = gov.With(execguard.Limits{Timeout: req.Timeout})
	}
	release, err := gov.Acquire()
	if err != nil {
		return ExecResult{}, err
	}
	defer release()

	start := time.Now()
	res, err := s.execOn(ctx, backend, workers, req, gov)
	label := res.Backend
	if label == "" {
		label = backend
	}
	gov.Event("exec_run", label)
	gov.Timing("exec_run", label, time.Since(start))
	if err != nil {
		if execguard.IsKill(err) {
			gov.Event("exec_timeout", label)
		} else {
			gov.Event("exec_fail", label)
		}
	}
	return res, err
}

// execOn dispatches to one backend, applying the fallback policy.
func (s *Session) execOn(ctx context.Context, backend string, workers int, req ExecRequest, gov *execguard.Governor) (ExecResult, error) {
	if backend == BackendInterp {
		return s.runInterp(ctx, workers, req.Input, gov)
	}
	art, err := codegen.Build(ctx, s.File, req.CacheDir, gov)
	if err != nil {
		if req.Fallback && ctx.Err() == nil {
			gov.Event("exec_fallback", "")
			res, ierr := s.runInterp(ctx, workers, req.Input, gov)
			res.FallbackReason = err.Error()
			return res, ierr
		}
		return ExecResult{}, err
	}
	rr, err := codegen.Run(ctx, art, workers, req.Input, gov)
	if err != nil {
		return ExecResult{Backend: BackendCompile}, err
	}
	return ExecResult{Output: rr.Output, Wall: rr.Wall, Backend: BackendCompile}, nil
}

// runInterp executes under the in-process interpreter with the same
// governed bounds as a subprocess: output flows through a byte-capped
// writer and a watchdog cancels the machine cooperatively at the wall
// deadline — the run goroutine observes the cancel at its next loop
// iteration and exits, so a timed-out run leaks nothing.
func (s *Session) runInterp(ctx context.Context, workers int, input []float64, gov *execguard.Governor) (ExecResult, error) {
	lim := gov.RunLimits()
	out := execguard.NewLimitWriter(lim.OutputBytes)
	m := interp.New(s.File)
	m.Out = out
	m.Workers = workers
	m.Input = input
	m.StmtLimit = 500_000_000

	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- m.Run() }()

	var deadline <-chan time.Time
	if lim.Timeout > 0 {
		t := time.NewTimer(lim.Timeout)
		defer t.Stop()
		deadline = t.C
	}
	var err error
	select {
	case err = <-done:
	case <-deadline:
		gov.Event("exec_kill", execguard.KillDeadline)
		m.Cancel(execguard.TimeoutError(lim.Timeout))
		err = <-done
	case <-ctx.Done():
		gov.Event("exec_kill", execguard.KillCtx)
		m.Cancel(fmt.Errorf("interp: run cancelled: %w", ctx.Err()))
		err = <-done
	}
	res := ExecResult{Output: out.String(), Wall: time.Since(start), SimCycles: m.SimCycles, Backend: BackendInterp}
	if err != nil {
		if out.Tripped() {
			// The machine stopped because its PRINT hit the cap;
			// surface the typed limit error, not the raw write error.
			gov.Event("exec_kill", execguard.KillOutput)
			return res, out.Err()
		}
		return res, err
	}
	return res, nil
}

// ParseExecRequest parses the argument list of the `run` verb:
//
//	run [workers] [backend=interp|compile] [fallback]
//
// in any order. It leaves Input, Timeout, and Gov at their zero
// values for the caller to fill.
func ParseExecRequest(args []string) (ExecRequest, error) {
	req := ExecRequest{Workers: 1}
	seenWorkers := false
	for _, a := range args {
		if v, ok := strings.CutPrefix(a, "backend="); ok {
			if req.Backend != "" {
				return req, fmt.Errorf("duplicate backend argument %q", a)
			}
			if v != BackendInterp && v != BackendCompile {
				return req, fmt.Errorf("unknown backend %q (want %s)", v, strings.Join(Backends(), " or "))
			}
			req.Backend = v
			continue
		}
		if a == "fallback" {
			req.Fallback = true
			continue
		}
		w, err := strconv.Atoi(a)
		if err != nil || seenWorkers {
			return req, fmt.Errorf("usage: run [workers] [backend=interp|compile] [fallback], got %q", a)
		}
		if w < 1 {
			return req, fmt.Errorf("worker count must be at least 1, got %d", w)
		}
		req.Workers = w
		seenWorkers = true
	}
	return req, nil
}
