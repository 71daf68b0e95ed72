package execguard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain doubles as the hostile-workload helper binary: when
// EXECGUARD_HELPER is set the test binary re-execs into one of the
// misbehaving modes below instead of running tests, so Supervise is
// exercised against real subprocesses without shipping fixtures.
func TestMain(m *testing.M) {
	switch os.Getenv("EXECGUARD_HELPER") {
	case "":
		os.Exit(m.Run())
	case "spin":
		// Fan out a child in the same process group, then hang: the
		// group-kill test asserts neither survives the deadline.
		child := exec.Command(os.Args[0])
		child.Env = append(os.Environ(), "EXECGUARD_HELPER=sleep")
		if err := child.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "spawn child:", err)
			os.Exit(1)
		}
		for {
			time.Sleep(time.Hour)
		}
	case "sleep":
		// Sleep, don't select{}: an empty select trips the runtime's
		// deadlock detector and exits before the governor can act.
		for {
			time.Sleep(time.Hour)
		}
	case "spam":
		chunk := bytes.Repeat([]byte("A"), 64<<10)
		for {
			if _, err := os.Stdout.Write(chunk); err != nil {
				os.Exit(1)
			}
		}
	case "memhog":
		var hold [][]byte
		for {
			b := make([]byte, 8<<20)
			for i := range b {
				b[i] = byte(i)
			}
			hold = append(hold, b)
			if len(hold) > 4<<10 {
				os.Exit(1)
			}
			time.Sleep(time.Millisecond)
		}
	case "fail":
		fmt.Fprintln(os.Stderr, "helper exploded")
		os.Exit(3)
	case "hello":
		fmt.Println("hello from helper")
	}
	os.Exit(0)
}

func helper(mode string) *exec.Cmd {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "EXECGUARD_HELPER="+mode)
	return cmd
}

func TestSuperviseTimeoutKillsProcessGroup(t *testing.T) {
	g := New(Config{Limits: Limits{Timeout: 300 * time.Millisecond, RSSBytes: -1}})
	cmd := helper("spin")
	res, err := Supervise(context.Background(), g, cmd)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if !IsKill(err) {
		t.Fatalf("timeout kill not classified by IsKill: %v", err)
	}
	if res.Killed != KillDeadline {
		t.Fatalf("Killed = %q, want %q", res.Killed, KillDeadline)
	}
	// No orphans: the helper spawned a child into its process group;
	// after the group kill the whole group must be gone, not just the
	// leader.
	pid := cmd.Process.Pid
	deadline := time.Now().Add(5 * time.Second)
	for GroupAlive(pid) {
		if time.Now().After(deadline) {
			t.Fatalf("process group %d still alive after group kill", pid)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSuperviseOutputBombCapped(t *testing.T) {
	const capBytes = int64(128 << 10)
	g := New(Config{Limits: Limits{Timeout: 10 * time.Second, OutputBytes: capBytes, RSSBytes: -1}})
	cmd := helper("spam")
	res, err := Supervise(context.Background(), g, cmd)
	if !errors.Is(err, ErrOutputLimit) {
		t.Fatalf("want ErrOutputLimit, got %v", err)
	}
	if !strings.Contains(err.Error(), "output truncated after") {
		t.Fatalf("error %q does not name the truncation", err)
	}
	if res.Killed != KillOutput {
		t.Fatalf("Killed = %q, want %q", res.Killed, KillOutput)
	}
	if int64(len(res.Stdout)) > capBytes {
		t.Fatalf("captured %d bytes past the %d cap", len(res.Stdout), capBytes)
	}
}

func TestSuperviseRSSWatchdog(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("RSS watchdog reads /proc; linux only")
	}
	g := New(Config{Limits: Limits{
		Timeout:      30 * time.Second,
		RSSBytes:     64 << 20,
		PollInterval: 5 * time.Millisecond,
	}})
	cmd := helper("memhog")
	res, err := Supervise(context.Background(), g, cmd)
	if !errors.Is(err, ErrResourceLimit) {
		t.Fatalf("want ErrResourceLimit, got %v", err)
	}
	if res.Killed != KillRSS {
		t.Fatalf("Killed = %q, want %q", res.Killed, KillRSS)
	}
}

func TestSuperviseCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	g := New(Config{Limits: Limits{RSSBytes: -1}})
	res, err := Supervise(ctx, g, helper("sleep"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got %v", err)
	}
	if IsKill(err) {
		t.Fatalf("ctx cancel must stay distinguishable from governor kills: %v", err)
	}
	if res.Killed != KillCtx {
		t.Fatalf("Killed = %q, want %q", res.Killed, KillCtx)
	}
}

func TestSuperviseOwnFailure(t *testing.T) {
	g := New(Config{Limits: Limits{Timeout: 10 * time.Second, RSSBytes: -1}})
	_, err := Supervise(context.Background(), g, helper("fail"))
	if err == nil {
		t.Fatal("want process failure, got nil")
	}
	if IsKill(err) {
		t.Fatalf("own exit classified as a governor kill: %v", err)
	}
	if !strings.Contains(err.Error(), "exit status 3") || !strings.Contains(err.Error(), "helper exploded") {
		t.Fatalf("error %q should carry exit status and stderr snippet", err)
	}
}

func TestSuperviseCleanExit(t *testing.T) {
	g := New(Config{Limits: Limits{Timeout: 10 * time.Second, RSSBytes: -1}})
	res, err := Supervise(context.Background(), g, helper("hello"))
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	if res.Stdout != "hello from helper\n" {
		t.Fatalf("stdout = %q", res.Stdout)
	}
	if res.Killed != "" {
		t.Fatalf("clean exit reported killed: %q", res.Killed)
	}
}

func TestAcquireSlots(t *testing.T) {
	g := New(Config{MaxRuns: 1})
	rel1, err := g.Acquire()
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if _, err := g.Acquire(); !errors.Is(err, ErrBusy) {
		t.Fatalf("want ErrBusy past the cap, got %v", err)
	}
	rel1()
	rel1() // idempotent: a double release must not free a second slot
	rel2, err := g.Acquire()
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	if _, err := g.Acquire(); !errors.Is(err, ErrBusy) {
		t.Fatal("double release freed two slots")
	}
	rel2()
}

func TestNilGovernorIsValid(t *testing.T) {
	var g *Governor
	lim := g.RunLimits()
	if lim.Timeout != DefaultTimeout || lim.OutputBytes != DefaultOutputBytes {
		t.Fatalf("nil governor limits = %+v, want package defaults", lim)
	}
	rel, err := g.Acquire()
	if err != nil {
		t.Fatalf("nil governor must admit: %v", err)
	}
	rel()
	g.Telemetry().ExecKills.With(KillDeadline).Inc() // must not panic
	over := g.With(Limits{Timeout: time.Second})
	if over.RunLimits().Timeout != time.Second {
		t.Fatalf("With on nil governor lost the override: %+v", over.RunLimits())
	}
}

func TestLimitsResolution(t *testing.T) {
	lim := Limits{}.withDefaults()
	if lim.Timeout != DefaultTimeout || lim.OutputBytes != DefaultOutputBytes ||
		lim.StderrBytes != DefaultStderrBytes || lim.RSSBytes != DefaultRSSBytes {
		t.Fatalf("zero limits did not resolve to defaults: %+v", lim)
	}
	off := Limits{Timeout: -1, OutputBytes: -1, StderrBytes: -1, RSSBytes: -1}.withDefaults()
	if off.Timeout != 0 || off.OutputBytes != 0 || off.StderrBytes != 0 || off.RSSBytes != 0 {
		t.Fatalf("negative limits did not disable: %+v", off)
	}
	g := New(Config{Limits: Limits{Timeout: 5 * time.Second}})
	got := g.With(Limits{OutputBytes: 42}).RunLimits()
	if got.Timeout != 5*time.Second || got.OutputBytes != 42 {
		t.Fatalf("With override mangled limits: %+v", got)
	}
	// The original governor must not see the override.
	if g.RunLimits().OutputBytes != DefaultOutputBytes {
		t.Fatalf("With mutated its receiver: %+v", g.RunLimits())
	}
}

// TestMillis: a millisecond count from a request or a REPL option is
// its Duration, 0 when it is not positive, and the longest Duration
// when the product would not fit — never one that wrapped around.
func TestMillis(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want time.Duration
	}{
		{0, 0},
		{-5, 0},
		{-18446744073709, 0}, // wrapped to +0.55 ms
		{1500, 1500 * time.Millisecond},
		{math.MaxInt64 / int(time.Millisecond), math.MaxInt64 / time.Millisecond * time.Millisecond},
		{math.MaxInt64/int(time.Millisecond) + 1, math.MaxInt64}, // wrapped below zero
		{18446744073710, math.MaxInt64},                          // wrapped to +0.45 ms
		{math.MaxInt64, math.MaxInt64},
	} {
		if got := Millis(tc.n); got != tc.want {
			t.Errorf("Millis(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestLimitWriter(t *testing.T) {
	w := NewLimitWriter(10)
	if _, err := w.Write([]byte("12345")); err != nil {
		t.Fatalf("write under cap: %v", err)
	}
	if _, err := w.Write([]byte("6789012345")); !errors.Is(err, ErrOutputLimit) {
		t.Fatalf("want ErrOutputLimit crossing the cap, got %v", err)
	}
	if got := w.String(); got != "1234567890" {
		t.Fatalf("kept prefix = %q, want first 10 bytes", got)
	}
	if !w.Tripped() {
		t.Fatal("Tripped() false after cap crossed")
	}
	select {
	case <-w.TripC():
	default:
		t.Fatal("trip channel not closed")
	}
	if _, err := w.Write([]byte("x")); !errors.Is(err, ErrOutputLimit) {
		t.Fatalf("writes after trip must keep failing, got %v", err)
	}
	if w.Len() != 10 {
		t.Fatalf("Len = %d, want 10", w.Len())
	}

	unbounded := NewLimitWriter(0)
	if _, err := unbounded.Write(bytes.Repeat([]byte("y"), 1<<20)); err != nil {
		t.Fatalf("unbounded writer errored: %v", err)
	}
}
