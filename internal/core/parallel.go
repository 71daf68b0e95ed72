// Parallel per-unit analysis driver and the content-hash key used by
// the analysis cache in internal/server. Program units are
// independent once the interprocedural summaries are built: the
// per-unit pass — data flow and dependences — only reads the shared
// Program and its own unit's AST, so units fan out safely across a
// bounded worker pool. The performance estimates are not in it: a unit
// is priced from its callees' analyses, on the session's goroutine, the
// first time a reader asks for its estimate (Session.EstimateOf), with
// the prices of the callees its estimate reaches.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"parascope/internal/dataflow"
	"parascope/internal/dep"
	"parascope/internal/faultpoint"
	"parascope/internal/fortran"
)

// PhaseObserver receives the wall time of each analysis phase. The
// phases reported are "parse", "interproc", "dataflow", "dependence",
// "perf", and "patch" (the statement-granular step of an edit, on
// whichever rung: the splice of the data-flow solution and of the
// dependence graph, reported as one phase). "dataflow" is reported only
// where the per-unit pass solves: at a cold open (AnalyzeAll) the
// summary pass has solved every unit off a recursion cycle, and that
// time is inside "interproc"; a conservative session solves every unit
// again. "perf" is one unit's estimate, made on the session's goroutine
// when a reader first asks for it (Session.EstimateOf) — never by an
// open or a reanalysis — with the prices of the callees it is the first
// to reach; "dataflow" and "dependence" fan out on the analysis worker
// pool, so implementations must be safe for concurrent use. A nil
// observer costs a single pointer check per phase.
type PhaseObserver interface {
	ObservePhase(phase string, d time.Duration)
}

// analyzeUnits runs analyzeUnit over every unit, concurrently when
// more than one worker is available — the one level of analysis
// parallelism: inside a unit every phase runs on one goroutine. Each
// unit's previous state is its prev, so user marks, assertions,
// classifications and the source image survive reanalysis; solved holds
// the data-flow solves already made (nil for none).
func (s *Session) analyzeUnits(units []*fortran.Unit, solved map[*fortran.Unit]*dataflow.Analysis) map[*fortran.Unit]*UnitState {
	out := make(map[*fortran.Unit]*UnitState, len(units))
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(units) {
		workers = len(units)
	}
	if workers <= 1 {
		for _, u := range units {
			out[u] = s.analyzeUnit(u, s.units[u], solved[u])
		}
		return out
	}
	results := make([]*UnitState, len(units))
	idx := make(chan int)
	var wg sync.WaitGroup
	var panicMu sync.Mutex
	var firstPanic *unitPanic
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				// A panic in one unit's analysis must not take down
				// the process (the pool runs on daemon goroutines,
				// where an escaped panic is unrecoverable): capture
				// it here, let the other units finish, and rethrow
				// on the calling goroutine so the caller's recovery
				// boundary — the server's session actor — sees it.
				func(i int) {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if firstPanic == nil {
								firstPanic = &unitPanic{unit: units[i].Name, val: r, stack: debug.Stack()}
							}
							panicMu.Unlock()
						}
					}()
					results[i] = s.analyzeUnit(units[i], s.units[units[i]], solved[units[i]])
				}(i)
			}
		}()
	}
	for i := range units {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if firstPanic != nil {
		panic(fmt.Sprintf("analysis of unit %s panicked: %v\nworker stack:\n%s",
			firstPanic.unit, firstPanic.val, firstPanic.stack))
	}
	for i, u := range units {
		out[u] = results[i]
	}
	return out
}

// unitPanic carries a panic out of an analysis worker goroutine so it
// can be rethrown where the caller can recover it.
type unitPanic struct {
	unit  string
	val   interface{}
	stack []byte
}

// OpenWorkers parses src and builds a session whose whole-program
// analysis fan-out is capped at workers goroutines (0 = GOMAXPROCS) —
// the entry point the pedd server uses so a daemon hosting many
// sessions can bound its per-open analysis parallelism.
func OpenWorkers(path, src string, workers int) (*Session, error) {
	return OpenObserved(path, src, workers, nil)
}

// OpenObserved is OpenWorkers with per-phase timing: obs (when
// non-nil) receives the wall time of the parse and of every analysis
// phase of the initial whole-program analysis, and stays attached to
// the session so reanalysis after edits is timed too.
func OpenObserved(path, src string, workers int, obs PhaseObserver) (*Session, error) {
	if err := faultpoint.Hit(faultpoint.Parse, path); err != nil {
		return nil, err
	}
	start := time.Now()
	f, err := fortran.Parse(path, src)
	if err != nil {
		return nil, err
	}
	if len(f.Units) == 0 {
		// Every pane reads the current unit's state; a source without a
		// unit has neither.
		return nil, fmt.Errorf("%s: no program unit", path)
	}
	if obs != nil {
		obs.ObservePhase("parse", time.Since(start))
	}
	return newSession(f, workers, obs), nil
}

// AnalysisKey returns a stable content-hash key for the analysis of
// (path, src) under the given options — the cache key used by the
// pedd server: identical inputs produce identical analysis artifacts,
// so a key hit can skip the parse and reanalysis entirely.
func AnalysisKey(path, src string, opts dep.Options, conservative bool) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%+v\x00%t", path, src, opts, conservative)
	return hex.EncodeToString(h.Sum(nil))
}
