package execguard_test

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"parascope/internal/codegen"
	"parascope/internal/core"
	"parascope/internal/execguard"
	"parascope/internal/faultpoint"
	"parascope/internal/fortran"
	"parascope/internal/metrics"
)

const (
	tameSrc = "      program p\n      print *, 5050\n      end\n"
	loopSrc = "      program p\n      integer i\n      i = 0\n   10 i = i + 1\n      goto 10\n      end\n"
	bombSrc = "      program p\n   10 print *, 123456789\n      goto 10\n      end\n"
	oobSrc  = "      program p\n      real a(3,4)\n      a(2,5) = 1.0\n      end\n"
	// The code generator declines a non-constant integer exponent.
	powSrc = "      program p\n      integer i, j, k\n      i = 2\n      j = 3\n      k = i ** j\n      print *, k\n      end\n"
)

// scrape reads every counter, gauge and histogram count of reg, keyed
// by sample name with its labels.
func scrape(t *testing.T, reg *metrics.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "_bucket{") || strings.Contains(line, "_sum") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func label(family, name, value string) string { return family + "{" + name + `="` + value + `"}` }

func runs(backend string) string  { return label("pedd_exec_runs_total", "backend", backend) }
func secs(backend string) string  { return label("pedd_exec_run_seconds_count", "backend", backend) }
func fails(backend string) string { return label("pedd_exec_failures_total", "backend", backend) }
func stops(backend string) string { return label("pedd_exec_timeouts_total", "backend", backend) }
func kills(reason string) string  { return label("pedd_exec_kills_total", "reason", reason) }
func open(t *testing.T, src string) *core.Session {
	t.Helper()
	s, err := core.Open("t.f", src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestGovernorTelemetry drives every path that reports to the run
// layer's families — admission, each kill reason, run failure and
// fallback, and the build pipeline's cold build, cache hit, dedup,
// verify failure and janitor eviction — through core's Exec and
// codegen's Build on governors sharing one registry. Each row names the
// samples it moves and by how much; every other sample of the registry,
// the in-flight gauge included, must not move at all.
func TestGovernorTelemetry(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	reg := metrics.NewRegistry()
	tel := execguard.NewTelemetry(reg)
	gov := execguard.New(execguard.Config{MaxRuns: 1, Telemetry: tel})
	cache := t.TempDir()
	interp, compile := core.BackendInterp, core.BackendCompile
	exec := func(t *testing.T, src string, req core.ExecRequest) error {
		t.Helper()
		if req.Gov == nil {
			req.Gov = gov
		}
		req.CacheDir = cache
		_, err := open(t, src).Exec(context.Background(), req)
		return err
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	build := func(g *execguard.Governor, src string) error {
		f, err := fortran.Parse("t.f", src)
		if err == nil {
			_, err = codegen.Build(context.Background(), f, cache, g)
		}
		return err
	}

	rows := []struct {
		name     string
		compiles bool
		do       func(t *testing.T)
		moves    map[string]float64
	}{
		{"interp run", false, func(t *testing.T) {
			if err := exec(t, tameSrc, core.ExecRequest{}); err != nil {
				t.Fatal(err)
			}
		}, map[string]float64{runs(interp): 1, secs(interp): 1}},
		{"run failure", false, func(t *testing.T) {
			if err := exec(t, oobSrc, core.ExecRequest{}); err == nil || execguard.IsKill(err) {
				t.Fatalf("want the program's own failure, got %v", err)
			}
		}, map[string]float64{runs(interp): 1, secs(interp): 1, fails(interp): 1}},
		{"kill at deadline", false, func(t *testing.T) {
			if err := exec(t, loopSrc, core.ExecRequest{Timeout: 50 * time.Millisecond}); !errors.Is(err, execguard.ErrTimeout) {
				t.Fatalf("want ErrTimeout, got %v", err)
			}
		}, map[string]float64{runs(interp): 1, secs(interp): 1, stops(interp): 1, kills(execguard.KillDeadline): 1}},
		{"kill at output cap", false, func(t *testing.T) {
			capped := gov.With(execguard.Limits{OutputBytes: 4096})
			if err := exec(t, bombSrc, core.ExecRequest{Gov: capped}); !errors.Is(err, execguard.ErrOutputLimit) {
				t.Fatalf("want ErrOutputLimit, got %v", err)
			}
		}, map[string]float64{runs(interp): 1, secs(interp): 1, stops(interp): 1, kills(execguard.KillOutput): 1}},
		{"kill on cancelled context", false, func(t *testing.T) {
			s := open(t, loopSrc)
			if _, err := s.Exec(cancelled, core.ExecRequest{Gov: gov}); !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
		}, map[string]float64{runs(interp): 1, secs(interp): 1, fails(interp): 1, kills(execguard.KillCtx): 1}},
		{"slot rejection", false, func(t *testing.T) {
			release, err := gov.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			defer release()
			if got := tel.ExecInflight.Value(); got != 1 {
				t.Errorf("in-flight gauge %d while a slot is held, want 1", got)
			}
			if err := exec(t, tameSrc, core.ExecRequest{}); !errors.Is(err, execguard.ErrBusy) {
				t.Fatalf("want ErrBusy, got %v", err)
			}
		}, map[string]float64{label("pedd_admission_rejected_total", "gate", "runs"): 1}},
		{"fallback on decline", false, func(t *testing.T) {
			if err := exec(t, powSrc, core.ExecRequest{Backend: compile, Fallback: true}); err != nil {
				t.Fatal(err)
			}
		}, map[string]float64{"pedd_exec_fallbacks_total": 1, runs(interp): 1, secs(interp): 1}},
		{"cold build", true, func(t *testing.T) {
			if err := exec(t, tameSrc, core.ExecRequest{Backend: compile}); err != nil {
				t.Fatal(err)
			}
		}, map[string]float64{"pedd_build_total": 1, "pedd_build_seconds_count": 1, runs(compile): 1, secs(compile): 1}},
		{"cache hit", true, func(t *testing.T) {
			if err := exec(t, tameSrc, core.ExecRequest{Backend: compile}); err != nil {
				t.Fatal(err)
			}
		}, map[string]float64{"pedd_build_cache_hits_total": 1, runs(compile): 1, secs(compile): 1}},
		{"compiled kill at deadline", true, func(t *testing.T) {
			if err := exec(t, loopSrc, core.ExecRequest{Backend: compile, Timeout: 300 * time.Millisecond}); !errors.Is(err, execguard.ErrTimeout) {
				t.Fatalf("want ErrTimeout, got %v", err)
			}
		}, map[string]float64{"pedd_build_total": 1, "pedd_build_seconds_count": 1, runs(compile): 1, secs(compile): 1,
			stops(compile): 1, kills(execguard.KillDeadline): 1}},
		{"compiled kill at RSS cap", true, func(t *testing.T) {
			hog := gov.With(execguard.Limits{RSSBytes: 1 << 20, PollInterval: 5 * time.Millisecond})
			if err := exec(t, loopSrc, core.ExecRequest{Backend: compile, Gov: hog}); !errors.Is(err, execguard.ErrResourceLimit) {
				t.Fatalf("want ErrResourceLimit, got %v", err)
			}
		}, map[string]float64{"pedd_build_cache_hits_total": 1, runs(compile): 1, secs(compile): 1,
			stops(compile): 1, kills(execguard.KillRSS): 1}},
		{"build failure", true, func(t *testing.T) {
			defer faultpoint.Arm(faultpoint.ExecBuild, faultpoint.Fault{Err: errors.New("injected toolchain failure")})()
			if err := exec(t, strings.Replace(tameSrc, "5050", "1", 1), core.ExecRequest{Backend: compile}); err == nil {
				t.Fatal("a failed build ran")
			}
		}, map[string]float64{"pedd_build_failures_total": 1, runs(compile): 1, secs(compile): 1, fails(compile): 1}},
		{"build failure, fallback", true, func(t *testing.T) {
			defer faultpoint.Arm(faultpoint.ExecBuild, faultpoint.Fault{Err: errors.New("injected toolchain failure")})()
			if err := exec(t, strings.Replace(tameSrc, "5050", "1", 1), core.ExecRequest{Backend: compile, Fallback: true}); err != nil {
				t.Fatal(err)
			}
		}, map[string]float64{"pedd_build_failures_total": 1, "pedd_exec_fallbacks_total": 1, runs(interp): 1, secs(interp): 1}},
		{"verify failure", true, func(t *testing.T) {
			defer faultpoint.Arm(faultpoint.CacheVerify, faultpoint.Fault{Err: errors.New("injected corruption")})()
			if err := exec(t, tameSrc, core.ExecRequest{Backend: compile}); err != nil {
				t.Fatal(err)
			}
		}, map[string]float64{"pedd_build_verify_failures_total": 1, "pedd_build_total": 1, "pedd_build_seconds_count": 1,
			runs(compile): 1, secs(compile): 1}},
		{"dedup", true, func(t *testing.T) {
			// The first build holds its flight open while the others join it.
			defer faultpoint.Arm(faultpoint.ExecBuild, faultpoint.Fault{Delay: time.Second})()
			src := strings.Replace(tameSrc, "5050", "2", 1)
			var wg sync.WaitGroup
			for i := 0; i < 3; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := build(gov, src); err != nil {
						t.Error(err)
					}
				}()
				for i == 0 && faultpoint.Fired(faultpoint.ExecBuild) == 0 {
					time.Sleep(time.Millisecond)
				}
			}
			wg.Wait()
		}, map[string]float64{"pedd_build_total": 1, "pedd_build_seconds_count": 1, "pedd_build_dedup_total": 2}},
		{"janitor eviction", true, func(t *testing.T) {
			// The cache holds the tame, loop and dedup programs; a bound of
			// one entry keeps only the program built now.
			if err := build(execguard.New(execguard.Config{CacheEntries: 1, Telemetry: tel}), strings.Replace(tameSrc, "5050", "3", 1)); err != nil {
				t.Fatal(err)
			}
		}, map[string]float64{"pedd_build_total": 1, "pedd_build_seconds_count": 1, "pedd_build_janitor_evictions_total": 3}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.compiles && testing.Short() {
				t.Skip("compiles binaries; skipped in -short mode")
			}
			before := scrape(t, reg)
			row.do(t)
			after := scrape(t, reg)
			for sample, v := range after {
				if d := v - before[sample]; d != row.moves[sample] {
					t.Errorf("%s moved by %v, want %v", sample, d, row.moves[sample])
				}
			}
			for sample := range row.moves {
				if _, ok := after[sample]; !ok {
					t.Errorf("%s is not in the scrape", sample)
				}
			}
		})
	}
}
