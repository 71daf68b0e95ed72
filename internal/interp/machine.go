package interp

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"parascope/internal/fortran"
)

// Machine executes a parsed Fortran file.
type Machine struct {
	File *fortran.File
	// Out receives PRINT/WRITE output; nil discards it.
	Out io.Writer
	// Input supplies values for READ statements, in order.
	Input []float64
	// Workers is the number of goroutines used for parallel loops;
	// 0 means GOMAXPROCS.
	Workers int
	// StmtLimit aborts runaway programs (0 = no limit).
	StmtLimit int64

	inputPos int
	stmts    int64
	// ParallelLoopsRun counts DOALL executions.
	ParallelLoopsRun int64
	// SimCycles is the simulated parallel execution time after Run:
	// statements executed along the critical path, with ForkCost
	// added per parallel loop execution.
	SimCycles int64
	// ForkCost is the simulated fork/join overhead of one parallel
	// loop execution (default 100 cycles).
	ForkCost int64

	commons map[string]*cell
	commonA map[string]*array
	// units is what the current run has compiled, one entry per unit it
	// has activated; proven is the run's proof of which symbols hold
	// their declared type. Neither outlives the run: the File is the
	// editor's and changes between runs. mu guards units and the two
	// COMMON maps.
	units  map[*fortran.Unit]*unit
	proven proof
	mu     sync.Mutex

	// cancelFlag is set by Cancel; checked on the statement-flush path
	// and per loop iteration so even statement-free spins (empty WHILE
	// bodies, tight backward gotos) observe it promptly.
	cancelFlag atomic.Bool
	cancelMu   sync.Mutex
	cancelErr  error
}

// New creates a machine for f.
func New(f *fortran.File) *Machine {
	return &Machine{File: f, commons: map[string]*cell{}, commonA: map[string]*array{}}
}

// StmtsExecuted reports how many statements ran.
func (m *Machine) StmtsExecuted() int64 { return atomic.LoadInt64(&m.stmts) }

// Cancel asks a running machine to stop with cause at its next
// cancellation check (every loop iteration and statement-count flush).
// Safe to call from any goroutine; the first cause wins.
func (m *Machine) Cancel(cause error) {
	if cause == nil {
		cause = fmt.Errorf("interp: run cancelled")
	}
	m.cancelMu.Lock()
	if m.cancelErr == nil {
		m.cancelErr = cause
	}
	m.cancelMu.Unlock()
	m.cancelFlag.Store(true)
}

// cancelled returns the Cancel cause once set; the fast path is one
// atomic load so it is cheap enough for per-iteration checks.
func (m *Machine) cancelled() error {
	if !m.cancelFlag.Load() {
		return nil
	}
	m.cancelMu.Lock()
	defer m.cancelMu.Unlock()
	return m.cancelErr
}

// abort carries a run-time error up the Go stack, from the closure
// that met it to Run or to the DOALL worker it happened in. Compiled
// code returns values, not (value, error) pairs; an error ends the run,
// so it happens at most once per goroutine.
type abort struct{ err error }

func raise(format string, args ...any) { panic(abort{fmt.Errorf(format, args...)}) }

// try runs fn and returns the run-time error it aborted with, if any.
func try(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			a, ok := r.(abort)
			if !ok {
				panic(r)
			}
			err = a.err
		}
	}()
	fn()
	return nil
}

// signal tells a body how control left a statement.
type signal int

const (
	sigNormal signal = iota
	sigReturn
	sigStop
	sigGoto
)

// frame is one procedure activation: the unit's scalars and arrays by
// slot (compile.go assigns the slots). A cell or array pointer shared
// with another frame is Fortran's by-reference argument passing, COMMON
// storage, or a DOALL worker's view of what its loop does not
// privatize.
type frame struct {
	m      *Machine
	cells  []*cell
	arrays []*array

	gotoTarget int
	// localStmts batches statement counting: flushing to the shared
	// atomic counter per statement would serialize parallel workers
	// on one cache line.
	localStmts int64
	// cycles accumulates simulated execution time: one unit per
	// statement, with parallel loops contributing fork/join overhead
	// plus the *maximum* over their workers (critical path). This
	// models the multiprocessor even on a single-core host.
	cycles int64
}

// flushStmts publishes the frame's batched statement count and
// enforces the global limit.
func (f *frame) flushStmts() error {
	if err := f.m.cancelled(); err != nil {
		return err
	}
	if f.localStmts == 0 {
		return nil
	}
	n := atomic.AddInt64(&f.m.stmts, f.localStmts)
	f.localStmts = 0
	if f.m.StmtLimit > 0 && n > f.m.StmtLimit {
		return fmt.Errorf("interp: statement limit %d exceeded", f.m.StmtLimit)
	}
	return nil
}

// checkCancel is the cancellation point of every loop back-edge.
func (f *frame) checkCancel() {
	if f.m.cancelFlag.Load() {
		panic(abort{f.m.cancelled()})
	}
}

// Run executes the main program.
func (m *Machine) Run() error {
	main := m.File.Main()
	if main == nil {
		return fmt.Errorf("interp: no main program")
	}
	m.units = map[*fortran.Unit]*unit{}
	m.proven = prove(m.File)
	u := m.compiled(main)
	f := u.newFrame(m)
	if err := try(func() { u.enter(f) }); err != nil {
		return err
	}
	var sig signal
	err := try(func() { sig = u.body.run(f) })
	m.SimCycles = f.cycles
	if ferr := f.flushStmts(); err == nil && ferr != nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	if sig == sigGoto {
		return fmt.Errorf("interp: unresolved GOTO %d", f.gotoTarget)
	}
	return nil
}

// compiled returns u lowered to closures, compiling it on the run's
// first activation of it.
func (m *Machine) compiled(u *fortran.Unit) *unit {
	m.mu.Lock()
	defer m.mu.Unlock()
	cu := m.units[u]
	if cu == nil {
		cu = compile(m.proven, u)
		m.units[u] = cu
	}
	return cu
}

func (m *Machine) commonCell(key string, t fortran.Type) *cell {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.commons[key]
	if !ok {
		c = &cell{v: zeroOf(t)}
		m.commons[key] = c
	}
	return c
}

// commonArray returns the COMMON array stored under key; the first
// unit to ask makes it, with its own declaration's shape. make runs
// outside the lock: it evaluates bound expressions.
func (m *Machine) commonArray(key string, make func() *array) *array {
	m.mu.Lock()
	a := m.commonA[key]
	m.mu.Unlock()
	if a != nil {
		return a
	}
	fresh := make()
	m.mu.Lock()
	defer m.mu.Unlock()
	if a = m.commonA[key]; a == nil {
		a = fresh
		m.commonA[key] = a
	}
	return a
}
