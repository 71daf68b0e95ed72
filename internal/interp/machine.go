package interp

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"parascope/internal/codegen/parrt"
	"parascope/internal/codegen/runfmt"
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
	mu      sync.Mutex

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

// signal tells the statement walker how control left a statement.
type signal int

const (
	sigNormal signal = iota
	sigReturn
	sigStop
	sigGoto
)

// frame is one procedure activation.
type frame struct {
	m       *Machine
	unit    *fortran.Unit
	scalars map[*fortran.Symbol]*cell
	arrays  map[*fortran.Symbol]*array

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

// Run executes the main program.
func (m *Machine) Run() error {
	main := m.File.Main()
	if main == nil {
		return fmt.Errorf("interp: no main program")
	}
	f, err := m.newFrame(main, nil, nil)
	if err != nil {
		return err
	}
	sig, err := f.execBody(main.Body)
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

// newFrame creates an activation of unit, binding formals to the
// caller-evaluated bindings.
func (m *Machine) newFrame(u *fortran.Unit, argCells []*cell, argArrays []*array) (*frame, error) {
	f := &frame{m: m, unit: u,
		scalars: make(map[*fortran.Symbol]*cell),
		arrays:  make(map[*fortran.Symbol]*array),
	}
	for i, formal := range u.Args {
		switch formal.Kind {
		case fortran.SymScalar:
			if i < len(argCells) && argCells[i] != nil {
				f.scalars[formal] = argCells[i]
			} else {
				return nil, fmt.Errorf("interp: %s: argument %d: scalar binding missing", u.Name, i+1)
			}
		case fortran.SymArray:
			if i < len(argArrays) && argArrays[i] != nil {
				f.arrays[formal] = argArrays[i]
			} else {
				return nil, fmt.Errorf("interp: %s: argument %d: array binding missing", u.Name, i+1)
			}
		}
	}
	// Locals, commons, parameters.
	for _, sym := range u.SymbolsSorted() {
		if sym.Dummy {
			continue
		}
		switch sym.Kind {
		case fortran.SymScalar:
			if sym.Common != "" {
				f.scalars[sym] = m.commonCell(sym)
			} else {
				c := &cell{v: zeroOf(sym.Type)}
				if sym.Value != nil {
					v, err := f.eval(sym.Value)
					if err == nil {
						c.v = convert(v, sym.Type)
					}
				}
				f.scalars[sym] = c
			}
		case fortran.SymArray:
			if sym.Common != "" {
				a, err := m.commonArray(f, sym)
				if err != nil {
					return nil, err
				}
				f.arrays[sym] = a
			} else {
				a, err := f.makeArray(sym)
				if err != nil {
					return nil, err
				}
				f.arrays[sym] = a
			}
		}
	}
	return f, nil
}

func zeroOf(t fortran.Type) Value {
	switch t {
	case fortran.TypeInteger:
		return IntVal(0)
	case fortran.TypeLogical:
		return LogVal(false)
	case fortran.TypeCharacter:
		return Value{Type: fortran.TypeCharacter}
	case fortran.TypeDouble:
		return DoubleVal(0)
	default:
		return RealVal(0)
	}
}

func (m *Machine) commonCell(sym *fortran.Symbol) *cell {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := sym.Common + "/" + sym.Name
	if c, ok := m.commons[key]; ok {
		return c
	}
	c := &cell{v: zeroOf(sym.Type)}
	m.commons[key] = c
	return c
}

func (m *Machine) commonArray(f *frame, sym *fortran.Symbol) (*array, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := sym.Common + "/" + sym.Name
	if a, ok := m.commonA[key]; ok {
		return a, nil
	}
	a, err := f.makeArray(sym)
	if err != nil {
		return nil, err
	}
	m.commonA[key] = a
	return a, nil
}

func (f *frame) makeArray(sym *fortran.Symbol) (*array, error) {
	a := &array{sym: sym}
	for _, d := range sym.Dims {
		lo := int64(1)
		if d.Lo != nil {
			v, err := f.eval(d.Lo)
			if err != nil {
				return nil, fmt.Errorf("interp: %s: bad lower bound: %v", sym.Name, err)
			}
			lo = v.Int()
		}
		if d.Hi == nil {
			return nil, fmt.Errorf("interp: %s: assumed-size array needs a caller binding", sym.Name)
		}
		v, err := f.eval(d.Hi)
		if err != nil {
			return nil, fmt.Errorf("interp: %s: bad upper bound: %v", sym.Name, err)
		}
		hi := v.Int()
		if hi < lo {
			return nil, fmt.Errorf("interp: %s: extent [%d,%d] empty", sym.Name, lo, hi)
		}
		a.lo = append(a.lo, lo)
		a.ext = append(a.ext, hi-lo+1)
	}
	zero := zeroOf(sym.Type)
	a.data = make([]Value, a.size())
	for i := range a.data {
		a.data[i] = zero
	}
	return a, nil
}

// ---------------------------------------------------------------------------
// Statement execution

func (f *frame) execBody(body []fortran.Stmt) (signal, error) {
	i := 0
	for i < len(body) {
		s := body[i]
		sig, err := f.exec(s)
		if err != nil {
			return sigNormal, err
		}
		switch sig {
		case sigNormal:
			i++
		case sigGoto:
			// Resolve within this body; otherwise propagate.
			found := -1
			for j, cand := range body {
				if fortran.StmtLabel(cand) == f.gotoTarget {
					found = j
					break
				}
			}
			if found < 0 {
				return sigGoto, nil
			}
			i = found
		default:
			return sig, nil
		}
	}
	return sigNormal, nil
}

func (f *frame) exec(s fortran.Stmt) (signal, error) {
	f.localStmts++
	f.cycles++
	if f.localStmts >= 8192 {
		if err := f.flushStmts(); err != nil {
			return sigNormal, err
		}
	}
	switch st := s.(type) {
	case *fortran.AssignStmt:
		return sigNormal, f.assign(st)
	case *fortran.IfStmt:
		cond, err := f.eval(st.Cond)
		if err != nil {
			return sigNormal, err
		}
		if cond.Bool() {
			return f.execBody(st.Then)
		}
		return f.execBody(st.Else)
	case *fortran.DoStmt:
		return f.execDo(st)
	case *fortran.WhileStmt:
		for {
			if err := f.m.cancelled(); err != nil {
				return sigNormal, err
			}
			cond, err := f.eval(st.Cond)
			if err != nil {
				return sigNormal, err
			}
			if !cond.Bool() {
				return sigNormal, nil
			}
			sig, err := f.execBody(st.Body)
			if err != nil || sig != sigNormal {
				return sig, err
			}
		}
	case *fortran.CallStmt:
		return sigNormal, f.call(st)
	case *fortran.ReturnStmt:
		return sigReturn, nil
	case *fortran.StopStmt:
		return sigStop, nil
	case *fortran.ContinueStmt:
		return sigNormal, nil
	case *fortran.GotoStmt:
		f.gotoTarget = st.Target
		return sigGoto, nil
	case *fortran.PrintStmt:
		if f.m.Out == nil {
			// Still evaluate for side effects (function calls).
			for _, it := range st.Items {
				if _, err := f.eval(it); err != nil {
					return sigNormal, err
				}
			}
			return sigNormal, nil
		}
		parts := make([]string, 0, len(st.Items))
		for _, it := range st.Items {
			v, err := f.eval(it)
			if err != nil {
				return sigNormal, err
			}
			parts = append(parts, v.String())
		}
		if _, err := io.WriteString(f.m.Out, runfmt.Line(parts)); err != nil {
			// A tripped output cap surfaces here and stops the run.
			return sigNormal, err
		}
		return sigNormal, nil
	case *fortran.ReadStmt:
		for _, it := range st.Items {
			vr, ok := it.(*fortran.VarRef)
			if !ok || vr.Sym == nil {
				return sigNormal, fmt.Errorf("interp: READ target must be a variable")
			}
			var raw float64
			if f.m.inputPos < len(f.m.Input) {
				raw = f.m.Input[f.m.inputPos]
				f.m.inputPos++
			}
			v := RealVal(raw)
			if vr.Sym.Type == fortran.TypeInteger {
				v = IntVal(int64(raw))
			}
			if err := f.store(vr, v); err != nil {
				return sigNormal, err
			}
		}
		return sigNormal, nil
	}
	return sigNormal, fmt.Errorf("interp: cannot execute %T", s)
}

func (f *frame) assign(st *fortran.AssignStmt) error {
	v, err := f.eval(st.Rhs)
	if err != nil {
		return err
	}
	return f.store(st.Lhs, v)
}

func (f *frame) store(ref *fortran.VarRef, v Value) error {
	sym := ref.Sym
	if sym == nil {
		return fmt.Errorf("interp: unresolved reference %s", ref.Name)
	}
	if sym.IsArray() && len(ref.Subs) > 0 {
		a := f.arrays[sym]
		if a == nil {
			return fmt.Errorf("interp: array %s has no storage", sym.Name)
		}
		off, err := f.offset(a, ref.Subs)
		if err != nil {
			return err
		}
		a.data[off] = convert(v, sym.Type)
		return nil
	}
	c := f.scalars[sym]
	if c == nil {
		return fmt.Errorf("interp: scalar %s has no storage", sym.Name)
	}
	c.v = convert(v, sym.Type)
	return nil
}

// ---------------------------------------------------------------------------
// DO loops: sequential and parallel. The protocol — trip count, when
// and how wide a marked loop forks, iteration assignment, the loop
// variable's values, reductions — is parrt's, shared with the compiled
// backend; this file supplies storage, errors and cycle accounting.

func (f *frame) loopControl(st *fortran.DoStmt) (parrt.Loop, error) {
	lo, err := f.eval(st.Lo)
	if err != nil {
		return parrt.Loop{}, err
	}
	hi, err := f.eval(st.Hi)
	if err != nil {
		return parrt.Loop{}, err
	}
	step := IntVal(1)
	if st.Step != nil {
		if step, err = f.eval(st.Step); err != nil {
			return parrt.Loop{}, err
		}
	}
	l, err := parrt.New(lo.Int(), hi.Int(), step.Int())
	if err != nil {
		return l, fmt.Errorf("interp: %w", err)
	}
	return l, nil
}

func (f *frame) execDo(st *fortran.DoStmt) (signal, error) {
	l, err := f.loopControl(st)
	if err != nil {
		return sigNormal, err
	}
	if st.Parallel {
		if workers := l.Fork(f.m.Workers); workers > 0 {
			return f.execDoall(st, l, workers)
		}
	}
	ivar := f.scalars[st.Var]
	if ivar == nil {
		return sigNormal, fmt.Errorf("interp: loop variable %s has no storage", st.Var.Name)
	}
	for n := int64(0); n < l.Trip; n++ {
		if err := f.m.cancelled(); err != nil {
			return sigNormal, err
		}
		ivar.v = IntVal(l.Index(n))
		sig, err := f.execBody(st.Body)
		if err != nil {
			return sigNormal, err
		}
		switch sig {
		case sigNormal:
		case sigGoto:
			// A goto out of the loop propagates; a goto to the loop's
			// own terminator label means "next iteration" and was
			// already resolved inside execBody when the label exists.
			return sigGoto, nil
		default:
			return sig, nil
		}
	}
	ivar.v = IntVal(l.Final())
	return sigNormal, nil
}

// execDoall runs the loop's iterations on worker goroutines under
// parrt's protocol (fan-out, iteration shares, reduction identities
// and combine order — the same code every compiled program runs).
// What is the interpreter's own: private scalars and work arrays
// (including the loop variable) get per-worker storage in a worker
// frame, each worker checks for cancellation and records its error,
// and the slowest worker sets the simulated time.
func (f *frame) execDoall(st *fortran.DoStmt, l parrt.Loop, workers int64) (signal, error) {
	atomic.AddInt64(&f.m.ParallelLoopsRun, 1)
	partials := make([][]Value, len(st.Reductions)) // [reduction][worker]
	for ri := range partials {
		partials[ri] = make([]Value, workers)
	}
	errs := make([]error, workers)
	workerCycles := make([]int64, workers)
	l.Run(workers, func(w, first, stride int64) {
		// Per-worker frame: same storage except private variables.
		wf := &frame{m: f.m, unit: f.unit,
			scalars: make(map[*fortran.Symbol]*cell, len(f.scalars)),
			arrays:  f.arrays}
		for sym, c := range f.scalars {
			wf.scalars[sym] = c
		}
		arraysCloned := false
		for _, p := range st.Private {
			switch p.Kind {
			case fortran.SymScalar:
				wf.scalars[p] = &cell{v: zeroOf(p.Type)}
			case fortran.SymArray:
				// Private work array: fresh zeroed storage with
				// the shared array's shape (safe because array
				// privatization requires a kill before any use).
				shared := f.arrays[p]
				if shared == nil {
					break
				}
				if !arraysCloned {
					wf.arrays = make(map[*fortran.Symbol]*array, len(f.arrays))
					for k, v := range f.arrays {
						wf.arrays[k] = v
					}
					arraysCloned = true
				}
				priv := &array{sym: p,
					lo:   append([]int64(nil), shared.lo...),
					ext:  append([]int64(nil), shared.ext...),
					data: make([]Value, shared.size())}
				zero := zeroOf(p.Type)
				for i := range priv.data {
					priv.data[i] = zero
				}
				wf.arrays[p] = priv
			}
		}
		if wf.scalars[st.Var] == f.scalars[st.Var] {
			wf.scalars[st.Var] = &cell{v: zeroOf(st.Var.Type)}
		}
		for _, r := range st.Reductions {
			wf.scalars[r.Sym] = &cell{v: identityValue(r)}
		}
		for n := first; n < l.Trip; n += stride {
			if err := f.m.cancelled(); err != nil {
				errs[w] = err
				return
			}
			wf.scalars[st.Var].v = IntVal(l.Index(n))
			sig, err := wf.execBody(st.Body)
			if err != nil {
				errs[w] = err
				return
			}
			if sig != sigNormal {
				errs[w] = fmt.Errorf("interp: control flow escaping a parallel loop")
				return
			}
		}
		for ri, r := range st.Reductions {
			partials[ri][w] = wf.scalars[r.Sym].v
		}
		workerCycles[w] = wf.cycles
		errs[w] = wf.flushStmts()
	})
	// Simulated time: the critical path is the slowest worker, plus
	// the fork/join overhead.
	fork := f.m.ForkCost
	if fork == 0 {
		fork = 100
	}
	maxCycles := int64(0)
	for _, c := range workerCycles {
		if c > maxCycles {
			maxCycles = c
		}
	}
	f.cycles += fork + maxCycles
	for _, err := range errs {
		if err != nil {
			return sigNormal, err
		}
	}
	for ri, r := range st.Reductions {
		c := f.scalars[r.Sym]
		c.v = reduceValues(r, c.v, partials[ri])
	}
	if c := f.scalars[st.Var]; c != nil {
		c.v = IntVal(l.Final())
	}
	return sigNormal, nil
}

// identityValue and reduceValues are the Value boundary of parrt's
// generic reductions: unbox to the reduction variable's storage (int64
// for INTEGER, float64 otherwise), let parrt decide, and box the
// result with the variable's type.

func identityValue(r fortran.Reduction) Value {
	op := parrt.Op(r.Operator())
	if r.Sym.Type == fortran.TypeInteger {
		return IntVal(parrt.Identity[int64](op))
	}
	return Value{Type: r.Sym.Type, R: parrt.Identity[float64](op)}
}

func reduceValues(r fortran.Reduction, shared Value, perWorker []Value) Value {
	op := parrt.Op(r.Operator())
	if r.Sym.Type == fortran.TypeInteger {
		parts := make([]int64, len(perWorker))
		for w, v := range perWorker {
			parts[w] = v.Int()
		}
		return IntVal(parrt.Reduce(op, shared.Int(), parts))
	}
	parts := make([]float64, len(perWorker))
	for w, v := range perWorker {
		parts[w] = v.Float()
	}
	return Value{Type: r.Sym.Type, R: parrt.Reduce(op, shared.Float(), parts)}
}

// ---------------------------------------------------------------------------
// Calls

func (f *frame) call(st *fortran.CallStmt) error {
	callee := st.Callee
	if callee == nil {
		return fmt.Errorf("interp: call to unknown subroutine %s", st.Name)
	}
	cells, arrays, err := f.bindArgs(callee, st.Args)
	if err != nil {
		return err
	}
	nf, err := f.m.newFrame(callee, cells, arrays)
	if err != nil {
		return err
	}
	sig, err := nf.execBody(callee.Body)
	// Fold the callee's batched count into the caller's, avoiding a
	// shared-counter flush per call.
	f.localStmts += nf.localStmts
	f.cycles += nf.cycles
	if err != nil {
		return err
	}
	if sig == sigStop {
		return fmt.Errorf("interp: STOP inside subroutine %s", callee.Name)
	}
	return nil
}

// bindArgs evaluates actuals into reference bindings. Scalars passed
// as variables share storage (by reference); expression actuals get
// fresh cells.
func (f *frame) bindArgs(callee *fortran.Unit, args []fortran.Expr) ([]*cell, []*array, error) {
	cells := make([]*cell, len(args))
	arrays := make([]*array, len(args))
	for i, a := range args {
		if i >= len(callee.Args) {
			break
		}
		formal := callee.Args[i]
		if vr, ok := a.(*fortran.VarRef); ok && vr.Sym != nil {
			switch {
			case vr.Sym.IsArray() && len(vr.Subs) == 0:
				arrays[i] = f.arrays[vr.Sym]
				continue
			case vr.Sym.IsArray() && len(vr.Subs) > 0 && formal.Kind == fortran.SymArray:
				// Array element passed where an array is expected:
				// alias the tail of the storage (sequence association).
				base := f.arrays[vr.Sym]
				off, err := f.offset(base, vr.Subs)
				if err != nil {
					return nil, nil, err
				}
				arrays[i] = &array{sym: formal, lo: []int64{1},
					ext: []int64{base.size() - off}, data: base.data[off:]}
				continue
			case !vr.Sym.IsArray() && len(vr.Subs) == 0:
				if c := f.scalars[vr.Sym]; c != nil {
					cells[i] = c
					continue
				}
			}
		}
		v, err := f.eval(a)
		if err != nil {
			return nil, nil, err
		}
		cells[i] = &cell{v: v}
	}
	return cells, arrays, nil
}
