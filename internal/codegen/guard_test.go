package codegen

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"parascope/internal/execguard"
)

// buildSink records build-pipeline telemetry for assertions.
type buildSink struct {
	mu     sync.Mutex
	events map[string]int
}

func newBuildSink() *buildSink { return &buildSink{events: map[string]int{}} }

func (s *buildSink) ExecEvent(name, label string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events[name]++
}

func (s *buildSink) ExecTiming(name, label string, d time.Duration) {}
func (s *buildSink) ExecInFlight(delta int)                         {}

func (s *buildSink) count(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events[name]
}

const guardSrc = `
      program p
      print *, 7
      end
`

func TestCorruptCacheEntryQuarantinedAndRebuilt(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles binaries; skipped in -short mode")
	}
	cache := t.TempDir()
	sink := newBuildSink()
	g := execguard.New(execguard.Config{Sink: sink})
	ctx := context.Background()

	a1, err := Build(ctx, parse(t, guardSrc), cache, g)
	if err != nil {
		t.Fatalf("cold build: %v", err)
	}
	// Flip one byte in the cached binary without changing its size —
	// only the manifest checksum can catch this.
	data, err := os.ReadFile(a1.Bin)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(a1.Bin, data, 0o755); err != nil {
		t.Fatal(err)
	}

	a2, err := Build(ctx, parse(t, guardSrc), cache, g)
	if err != nil {
		t.Fatalf("rebuild after corruption: %v", err)
	}
	if a2.Cached {
		t.Fatal("corrupt cache entry was reused")
	}
	if sink.count("build_verify_fail") == 0 {
		t.Fatal("no build_verify_fail event emitted")
	}
	if _, err := os.Stat(a1.Dir + ".bad"); err != nil {
		t.Fatalf("corrupt entry not quarantined to %s.bad: %v", a1.Dir, err)
	}
	// The rebuilt binary must actually run.
	rr, err := Run(ctx, a2, 1, nil, g)
	if err != nil {
		t.Fatalf("run rebuilt binary: %v", err)
	}
	if !strings.Contains(rr.Output, "7") {
		t.Fatalf("rebuilt binary output = %q", rr.Output)
	}
	// A third build reuses the fresh entry — verification passes now.
	a3, err := Build(ctx, parse(t, guardSrc), cache, g)
	if err != nil {
		t.Fatal(err)
	}
	if !a3.Cached {
		t.Fatal("rebuilt entry did not verify on reuse")
	}

	// That hit verified the entry for this process; a binary that
	// changes afterwards is hashed again, not trusted from memory.
	corruptBinary(t, a3.Bin)
	a4, err := Build(ctx, parse(t, guardSrc), cache, g)
	if err != nil {
		t.Fatalf("rebuild after corruption of a verified entry: %v", err)
	}
	if a4.Cached {
		t.Fatal("entry corrupted after a verified hit was reused")
	}
	if got := sink.count("build_verify_fail"); got != 2 {
		t.Fatalf("build_verify_fail = %d after two corruptions, want 2", got)
	}
	if rr, err := Run(ctx, a4, 1, nil, g); err != nil || !strings.Contains(rr.Output, "7") {
		t.Fatalf("run after second rebuild: %q, %v", rr, err)
	}
}

// corruptBinary flips one byte of a cached binary in place, size
// unchanged. A write moves the file's mtime; on a filesystem whose
// clock is too coarse to show it, the test moves it.
func corruptBinary(t *testing.T, bin string) {
	t.Helper()
	before, err := os.Stat(bin)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(bin, data, 0o755); err != nil {
		t.Fatal(err)
	}
	if after, err := os.Stat(bin); err != nil {
		t.Fatal(err)
	} else if !after.ModTime().After(before.ModTime()) {
		later := before.ModTime().Add(time.Millisecond)
		if err := os.Chtimes(bin, later, later); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConcurrentColdBuildsDeduplicated(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles binaries; skipped in -short mode")
	}
	cache := t.TempDir()
	sink := newBuildSink()
	g := execguard.New(execguard.Config{Sink: sink})
	f := parse(t, guardSrc)

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	arts := make([]*Artifact, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arts[i], errs[i] = Build(context.Background(), f, cache, g)
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("build %d: %v", i, err)
		}
	}
	// Exactly one go build must have run; everyone else either joined
	// the in-flight build (dedup) or arrived late to a verified cache
	// hit. Every call is accounted for by one of the three.
	if got := sink.count("build"); got != 1 {
		t.Fatalf("go build ran %d times for one program, want exactly 1", got)
	}
	total := sink.count("build") + sink.count("build_dedup") + sink.count("build_cache_hit")
	if total != n {
		t.Fatalf("build+dedup+cache_hit = %d, want %d (one outcome per call)", total, n)
	}
	for i := 1; i < n; i++ {
		if arts[i].Bin != arts[0].Bin {
			t.Fatalf("build %d produced a different binary path: %s vs %s", i, arts[i].Bin, arts[0].Bin)
		}
	}
}

func TestBuildTimeoutKillsToolchain(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain; skipped in -short mode")
	}
	g := execguard.New(execguard.Config{BuildTimeout: 20 * time.Millisecond})
	_, err := Build(context.Background(), parse(t, guardSrc), t.TempDir(), g)
	if !errors.Is(err, execguard.ErrTimeout) {
		t.Fatalf("want ErrTimeout from a 20ms build budget, got %v", err)
	}
	if !strings.Contains(err.Error(), "go build") {
		t.Fatalf("error %q does not name the build stage", err)
	}
}

func TestJanitorSweepsAndEvictsLRU(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles binaries; skipped in -short mode")
	}
	cache := t.TempDir()
	sink := newBuildSink()
	g := execguard.New(execguard.Config{CacheEntries: 1, Sink: sink})
	ctx := context.Background()

	// Plant debris the janitor must sweep: an abandoned staging dir, an
	// old quarantined entry and another version's runtime module — and
	// one of those too young to go.
	stale := filepath.Join(cache, "build-abandoned")
	bad := filepath.Join(cache, "deadbeef.bad")
	oldRT := filepath.Join(cache, "rt-00000000000000000000000000000000")
	otherRT := filepath.Join(cache, "rt-11111111111111111111111111111111")
	for dir, age := range map[string]time.Duration{stale: 2 * time.Hour, bad: 25 * time.Hour, oldRT: 25 * time.Hour, otherRT: time.Hour} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		old := time.Now().Add(-age)
		if err := os.Chtimes(dir, old, old); err != nil {
			t.Fatal(err)
		}
	}

	srcs := []string{
		strings.Replace(guardSrc, "7", "1", 1),
		strings.Replace(guardSrc, "7", "2", 1),
		strings.Replace(guardSrc, "7", "3", 1),
	}
	var dirs []string
	for i, src := range srcs {
		a, err := Build(ctx, parse(t, src), cache, g)
		if err != nil {
			t.Fatalf("build %d: %v", i, err)
		}
		dirs = append(dirs, a.Dir)
		// Space the mtimes out so LRU order is deterministic even on
		// coarse-grained filesystems.
		old := time.Now().Add(-time.Duration(len(srcs)-i) * time.Hour)
		if err := os.Chtimes(a.Dir, old, old); err != nil {
			t.Fatal(err)
		}
	}
	// The runtime module in use is older than everything: neither the
	// LRU bound of one entry nor the stale sweep may take it.
	rt := filepath.Join(cache, rtDir)
	ancient := time.Now().Add(-30 * 24 * time.Hour)
	if err := os.Chtimes(rt, ancient, ancient); err != nil {
		t.Fatal(err)
	}
	// The third cold build's janitor pass ran with all three entries
	// present; run one more cold build to sweep with the aged mtimes.
	if _, err := Build(ctx, parse(t, strings.Replace(guardSrc, "7", "4", 1)), cache, g); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale staging dir survived the janitor: %v", err)
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("old quarantine dir survived the janitor: %v", err)
	}
	if _, err := os.Stat(oldRT); !os.IsNotExist(err) {
		t.Fatalf("another version's old runtime module survived the janitor: %v", err)
	}
	if _, err := os.Stat(otherRT); err != nil {
		t.Fatalf("another version's recent runtime module was swept: %v", err)
	}
	if !rtIntact(rt) {
		t.Fatal("the janitor took the runtime module in use")
	}
	if _, err := os.Stat(dirs[0]); !os.IsNotExist(err) {
		t.Fatalf("LRU eviction kept the oldest entry %s: %v", dirs[0], err)
	}
	if sink.count("build_janitor_evict") == 0 {
		t.Fatal("no build_janitor_evict event emitted")
	}
	entries, err := os.ReadDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	for _, e := range entries {
		if e.IsDir() && !strings.HasPrefix(e.Name(), "build-") && !strings.HasPrefix(e.Name(), "rt-") && !strings.HasSuffix(e.Name(), ".bad") {
			live++
		}
	}
	if live != 1 {
		t.Fatalf("cache holds %d entries, want the bound of 1", live)
	}
}
