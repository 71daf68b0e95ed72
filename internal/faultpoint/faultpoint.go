// Package faultpoint provides named fault-injection sites for chaos
// testing. Production code calls Hit at interesting boundaries
// (parsing, analysis, transformation, cache lookup); the call is a
// single atomic load when nothing is armed, so the sites are free in
// normal operation. Tests arm a site with a Fault — a delay, an
// error, a panic, or a combination — optionally scoped by a substring
// match on the site's detail string, and the next matching Hit
// injects it. This is how the server's resilience tests create a
// panicking session or a hung analysis on demand without touching
// production logic.
package faultpoint

import (
	"errors"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Site names instrumented in the codebase. Arbitrary strings are
// allowed; these constants are the sites that ship instrumented.
const (
	// Parse fires before a source file is parsed (detail: path).
	Parse = "parse"
	// Analyze fires before a program unit is analyzed (detail:
	// "path:unit"). Analysis has no error channel, so an Err fault at
	// this site surfaces as a panic in the worker that hit it.
	Analyze = "analyze"
	// Transform fires before a transformation is checked and applied
	// (detail: "path:transformation").
	Transform = "transform"
	// CacheGet fires on every analysis-cache lookup (detail: the
	// content-hash key). An Err fault degrades the lookup to a miss.
	CacheGet = "cache-get"
	// JournalAppend fires before a session journal append (detail:
	// "sessionID:op"). An Err fault models a failed disk write and
	// degrades the session to read-only.
	JournalAppend = "journal-append"
	// JournalSync fires before a journal fsync (detail: session ID).
	JournalSync = "journal-fsync"
	// JournalSnapshot fires before a snapshot compaction rewrites a
	// journal (detail: session ID).
	JournalSnapshot = "journal-snapshot"
	// JournalReplay fires before each record is replayed during crash
	// recovery (detail: "sessionID:op"). An Err fault stops the replay
	// and leaves the session read-only at the recovered prefix.
	JournalReplay = "journal-replay"
	// PlanFork fires before a speculative world is forked from its
	// parent source (detail: the candidate step line). A Panic fault is
	// recovered inside the world — the world is discarded, the search
	// and the parent session continue.
	PlanFork = "plan-fork"
	// PlanScore fires before a forked world is scored (detail: the
	// candidate step line). Same blast radius as PlanFork: the world.
	PlanScore = "plan-score"
	// PlanValidate fires before the base program or a finalist is run
	// under the interpreter (detail: the world's source hash). A fault
	// in a finalist's run discards that plan; in the base's it leaves
	// every plan with its estimate alone.
	PlanValidate = "plan-validate"
	// PlanApply fires before an accepted plan's steps are replayed
	// through the journaled mutation path (detail: "sessionID:planID").
	PlanApply = "plan-apply"
	// MigrateStream fires before an outbound migration ships its
	// journal stream (detail: session ID). An Err fault tears the
	// stream mid-record — the target must reject it whole and the
	// source must stay authoritative.
	MigrateStream = "migrate-stream"
	// ExecBuild fires before a cold build of a generated program
	// (detail: the cache hash). An Err fault models a broken toolchain;
	// with Fallback set the run degrades to the interpreter.
	ExecBuild = "exec-build"
	// ExecRun fires before a compiled binary is spawned (detail: the
	// cache hash).
	ExecRun = "exec-run"
	// CacheVerify fires before a cached compiled binary is checksummed
	// against its manifest (detail: the cache hash). An Err fault
	// models a corrupt entry: it is quarantined and rebuilt.
	CacheVerify = "cache-verify"
)

// Fault describes the behavior injected when an armed site is hit.
// Delay is applied first, then Panic or Err (Panic wins).
type Fault struct {
	// Match scopes the fault to Hit calls whose detail string
	// contains it; empty matches every call at the site.
	Match string
	// Delay sleeps before acting — armed alone it models a hang.
	Delay time.Duration
	// Err is returned from Hit for the caller to propagate.
	Err error
	// Panic makes Hit panic with a descriptive value.
	Panic bool
	// Times bounds how often the fault fires; 0 means every match.
	Times int
}

type armedFault struct {
	Fault
	fired atomic.Int64
}

var (
	// armedCount is the fast-path gate: zero means Hit is a no-op.
	armedCount atomic.Int64

	mu    sync.Mutex
	sites map[string][]*armedFault
)

// Arm registers a fault at a site and returns its disarm function.
// Multiple faults may be armed at one site; the first one that
// matches (and has firings left) wins.
func Arm(site string, f Fault) (disarm func()) {
	af := &armedFault{Fault: f}
	mu.Lock()
	if sites == nil {
		sites = map[string][]*armedFault{}
	}
	sites[site] = append(sites[site], af)
	mu.Unlock()
	armedCount.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			mu.Lock()
			list := sites[site]
			for i, x := range list {
				if x == af {
					sites[site] = append(list[:i], list[i+1:]...)
					break
				}
			}
			mu.Unlock()
			armedCount.Add(-1)
		})
	}
}

// Reset disarms every fault — test cleanup.
func Reset() {
	mu.Lock()
	n := 0
	for _, list := range sites {
		n += len(list)
	}
	sites = nil
	mu.Unlock()
	armedCount.Add(int64(-n))
}

// Fired reports how many injections have fired at the site since its
// faults were armed (disarming removes the counters).
func Fired(site string) int64 {
	mu.Lock()
	defer mu.Unlock()
	var n int64
	for _, af := range sites[site] {
		n += af.fired.Load()
	}
	return n
}

// ArmSpec arms faults described by a compact spec string — the
// cross-process variant of Arm for chaos tests that drive a real
// daemon they cannot call into (pedd -faults). The spec is a
// comma-separated list of site=kind[:arg] entries:
//
//	journal-append=delay:25ms     sleep 25ms at every journal append
//	plan-fork=panic               panic in every speculative world
//	analyze=err:injected          return an error from analysis
//
// Armed specs stay armed for the process lifetime (no disarm).
func ArmSpec(spec string) error {
	if spec == "" {
		return nil
	}
	for _, entry := range strings.Split(spec, ",") {
		site, kind, ok := strings.Cut(entry, "=")
		if !ok || site == "" {
			return fmt.Errorf("faultpoint: bad spec entry %q (want site=kind[:arg])", entry)
		}
		kind, arg, _ := strings.Cut(kind, ":")
		var f Fault
		switch kind {
		case "delay":
			d, err := time.ParseDuration(arg)
			if err != nil {
				return fmt.Errorf("faultpoint: bad delay in %q: %v", entry, err)
			}
			f.Delay = d
		case "err":
			if arg == "" {
				arg = "injected fault"
			}
			f.Err = errors.New(arg)
		case "panic":
			f.Panic = true
		default:
			return fmt.Errorf("faultpoint: unknown fault kind %q in %q", kind, entry)
		}
		Arm(site, f)
	}
	return nil
}

// ArmDaemon arms the -faults spec a daemon was started with. A bad spec
// is printed to stderr under the daemon's name and reported false — the
// daemon exits 2; an armed one is logged, so a chaos run is never taken
// for a clean one.
func ArmDaemon(name, spec string) bool {
	if err := ArmSpec(spec); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		return false
	}
	if spec != "" {
		log.Printf("%s: CHAOS: faults armed: %s", name, spec)
	}
	return true
}

// Hit triggers the first matching armed fault at the site: it sleeps
// the fault's Delay, then panics or returns the fault's Err. With
// nothing armed (the production case) it returns nil after one
// atomic load.
func Hit(site, detail string) error {
	if armedCount.Load() == 0 {
		return nil
	}
	mu.Lock()
	var act *armedFault
	for _, af := range sites[site] {
		if af.Match != "" && !strings.Contains(detail, af.Match) {
			continue
		}
		if af.Times > 0 && af.fired.Load() >= int64(af.Times) {
			continue
		}
		act = af
		break
	}
	if act != nil {
		act.fired.Add(1)
	}
	mu.Unlock()
	if act == nil {
		return nil
	}
	if act.Delay > 0 {
		time.Sleep(act.Delay)
	}
	if act.Panic {
		panic(fmt.Sprintf("faultpoint %s: injected panic (detail %q)", site, detail))
	}
	return act.Err
}
