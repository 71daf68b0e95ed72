package interp

import (
	"fmt"
	"io"
	"slices"
	"sync/atomic"

	"parascope/internal/codegen/parrt"
	"parascope/internal/codegen/runfmt"
	"parascope/internal/fortran"
)

// unit is one program unit lowered to closures. Everything the source
// fixes is resolved here, once per run: which slot of a frame holds
// each scalar and array, how each local is initialised, every
// statement and expression, every body's label → index table, and at
// each call site the callee and how each actual is passed.
type unit struct {
	nCells, nArrays int
	// formals says, per dummy argument, which slot — of the cells for a
	// scalar, of the arrays for an array — receives the caller's binding.
	formals []int
	// owned are the scalars an activation allocates itself (locals, not
	// dummies or COMMON members), in one block; steps then run in
	// symbol-name order: DATA values, COMMON members, local arrays.
	owned []ownedCell
	steps []func(*frame)
	body  *body
	// result is the cell slot of a function's result variable, -1
	// when there is none.
	result int
}

type ownedCell struct {
	slot int
	zero Value
}

func (u *unit) newFrame(m *Machine) *frame {
	return &frame{m: m, cells: make([]*cell, u.nCells), arrays: make([]*array, u.nArrays)}
}

// enter initialises the locals of a frame whose dummies are bound.
func (u *unit) enter(f *frame) {
	own := make([]cell, len(u.owned))
	for k, o := range u.owned {
		own[k].v = o.zero
		f.cells[o.slot] = &own[k]
	}
	for _, step := range u.steps {
		step(f)
	}
}

// stmt executes one statement; body is a statement list with its
// labels resolved.
type stmt func(*frame) signal

type body struct {
	stmts []stmt
	// labels maps a statement label to the index of the first statement
	// of this body that carries it — 0 too, the label of an unlabeled
	// statement, which is where a GOTO 0 lands.
	labels map[int]int
}

// run executes the body. Every statement counts once, towards the
// statement total and towards simulated time, before it executes; a
// GOTO is resolved here when the label is in this body and propagates
// to the enclosing body otherwise.
func (b *body) run(f *frame) signal {
	for i := 0; i < len(b.stmts); {
		f.localStmts++
		f.cycles++
		if f.localStmts >= 8192 {
			if err := f.flushStmts(); err != nil {
				panic(abort{err})
			}
		}
		switch sig := b.stmts[i](f); sig {
		case sigNormal:
			i++
		case sigGoto:
			j, ok := b.labels[f.gotoTarget]
			if !ok {
				return sigGoto
			}
			i = j
		default:
			return sig
		}
	}
	return sigNormal
}

// compiler lowers one unit.
type compiler struct {
	Proof
	cu *unit
	// places gives every scalar and array of the unit its slot — cells
	// and arrays are numbered apart — and its position in symbol-name
	// order, the order locals are initialised in. While the
	// initialisation steps are compiled, done counts the positions
	// already initialised: a bound expression or DATA value that names a
	// later local reads a variable that does not exist when it is
	// evaluated.
	places map[*fortran.Symbol]place
	done   int
	// gotos says whether the unit has a GOTO; without one no body needs
	// its label table.
	gotos bool
}

type place struct{ slot, pos int }

func compile(p Proof, u *fortran.Unit) *unit {
	syms := u.SymbolsSorted()
	c := &compiler{Proof: p, cu: &unit{result: -1}, places: make(map[*fortran.Symbol]place, len(syms))}
	for pos, sym := range syms {
		switch sym.Kind {
		case fortran.SymScalar:
			c.places[sym] = place{c.newCell(), pos}
		case fortran.SymArray:
			c.places[sym] = place{c.cu.nArrays, pos}
			c.cu.nArrays++
		}
	}
	for _, a := range u.Args {
		c.cu.formals = append(c.cu.formals, c.places[a].slot)
	}
	for pos, sym := range syms {
		if _, ok := c.places[sym]; ok && !sym.Dummy {
			if step := c.local(sym); step != nil {
				c.cu.steps = append(c.cu.steps, step)
			}
		}
		c.done = pos + 1
	}
	if ret := u.Lookup(u.Name); u.Kind == fortran.UnitFunction && ret != nil && ret.Kind == fortran.SymScalar {
		c.cu.result = c.places[ret].slot
	}
	fortran.WalkStmts(u.Body, func(s fortran.Stmt) bool {
		_, isGoto := s.(*fortran.GotoStmt)
		c.gotos = c.gotos || isGoto
		return !c.gotos
	})
	c.cu.body = c.body(u.Body)
	return c.cu
}

func (c *compiler) newCell() int {
	c.cu.nCells++
	return c.cu.nCells - 1
}

// cell is the slot of a scalar that exists when the code being
// compiled runs; array likewise.
func (c *compiler) cell(sym *fortran.Symbol) (slot int, ok bool) {
	p, ok := c.places[sym]
	return p.slot, ok && sym.Kind == fortran.SymScalar && (sym.Dummy || p.pos < c.done)
}

func (c *compiler) array(sym *fortran.Symbol) (slot int, ok bool) {
	p, ok := c.places[sym]
	return p.slot, ok && sym.Kind == fortran.SymArray && (sym.Dummy || p.pos < c.done)
}

// cellSlot is the slot of a DO or reduction variable: the symbol's own
// when it is a scalar, else a slot no activation fills — only a DOALL
// worker gives such a variable a cell, the sequential loop reports it.
func (c *compiler) cellSlot(sym *fortran.Symbol) int {
	if slot, ok := c.cell(sym); ok {
		return slot
	}
	return c.newCell()
}

// local compiles the initialisation of one non-dummy scalar or array.
func (c *compiler) local(sym *fortran.Symbol) func(*frame) {
	key := commonKey(sym)
	slot := c.places[sym].slot
	if sym.Kind == fortran.SymScalar {
		if key != "" {
			return func(f *frame) { f.cells[slot] = f.m.commonCell(key, sym.Type) }
		}
		c.cu.owned = append(c.cu.owned, ownedCell{slot, zeroOf(sym.Type)})
		if sym.Value == nil {
			return nil
		}
		// A DATA value that cannot be evaluated leaves the zero.
		value := c.value(sym.Value)
		return func(f *frame) {
			var v Value
			if try(func() { v = value(f) }) == nil {
				f.cells[slot].v = convert(v, sym.Type)
			}
		}
	}
	make := c.makeArray(sym)
	if key != "" {
		return func(f *frame) { f.arrays[slot] = f.m.commonArray(key, func() *array { return make(f) }) }
	}
	return func(f *frame) { f.arrays[slot] = make(f) }
}

// makeArray compiles the allocation of sym with the bounds its
// declaration gives, evaluated in the activation that allocates.
func (c *compiler) makeArray(sym *fortran.Symbol) func(*frame) *array {
	typed, rank := c.typed(sym), len(sym.Dims)
	los, his := make([]func(*frame) int64, rank), make([]func(*frame) int64, rank)
	for i, d := range sym.Dims {
		if d.Lo != nil {
			los[i] = c.int(d.Lo)
		}
		if d.Hi != nil {
			his[i] = c.int(d.Hi)
		}
	}
	return func(f *frame) *array {
		shape := make([]int64, 2*rank)
		lo, ext := shape[:rank], shape[rank:]
		for i := range lo {
			l, h := int64(1), int64(0)
			if los[i] != nil {
				if err := try(func() { l = los[i](f) }); err != nil {
					raise("interp: %s: bad lower bound: %v", sym.Name, err)
				}
			}
			if his[i] == nil {
				raise("interp: %s: assumed-size array needs a caller binding", sym.Name)
			}
			if err := try(func() { h = his[i](f) }); err != nil {
				raise("interp: %s: bad upper bound: %v", sym.Name, err)
			}
			if h < l {
				raise("interp: %s: extent [%d,%d] empty", sym.Name, l, h)
			}
			lo[i], ext[i] = l, h-l+1
		}
		return newArray(sym, typed, lo, ext)
	}
}

// ---------------------------------------------------------------------------
// Statements

var emptyBody = &body{}

func (c *compiler) body(stmts []fortran.Stmt) *body {
	if len(stmts) == 0 {
		return emptyBody
	}
	b := &body{stmts: make([]stmt, len(stmts))}
	if c.gotos {
		b.labels = make(map[int]int, len(stmts))
	}
	for i, s := range stmts {
		b.stmts[i] = c.stmt(s)
		if _, seen := b.labels[fortran.StmtLabel(s)]; c.gotos && !seen {
			b.labels[fortran.StmtLabel(s)] = i
		}
	}
	return b
}

func (c *compiler) stmt(s fortran.Stmt) stmt {
	switch st := s.(type) {
	case *fortran.AssignStmt:
		return c.assign(st)
	case *fortran.IfStmt:
		cond, then, els := c.bool(st.Cond), c.body(st.Then), c.body(st.Else)
		return func(f *frame) signal {
			if cond(f) {
				return then.run(f)
			}
			return els.run(f)
		}
	case *fortran.DoStmt:
		return c.do(st)
	case *fortran.WhileStmt:
		cond, body := c.bool(st.Cond), c.body(st.Body)
		return func(f *frame) signal {
			for {
				f.checkCancel()
				if !cond(f) {
					return sigNormal
				}
				if sig := body.run(f); sig != sigNormal {
					return sig
				}
			}
		}
	case *fortran.CallStmt:
		if st.Callee == nil {
			return func(*frame) signal {
				raise("interp: call to unknown subroutine %s", st.Name)
				return sigNormal
			}
		}
		site := c.callSite(st.Callee, st.Args)
		return func(f *frame) signal {
			cu, nf := site.enter(f)
			// The callee's batched statement count and its simulated
			// time fold into the caller's — also when an error is on its
			// way up through this call.
			defer func() {
				f.localStmts += nf.localStmts
				f.cycles += nf.cycles
			}()
			if cu.body.run(nf) == sigStop {
				raise("interp: STOP inside subroutine %s", st.Callee.Name)
			}
			return sigNormal
		}
	case *fortran.ReturnStmt:
		return func(*frame) signal { return sigReturn }
	case *fortran.StopStmt:
		return func(*frame) signal { return sigStop }
	case *fortran.ContinueStmt:
		return func(*frame) signal { return sigNormal }
	case *fortran.GotoStmt:
		return func(f *frame) signal {
			f.gotoTarget = st.Target
			return sigGoto
		}
	case *fortran.PrintStmt:
		return c.print(st)
	case *fortran.ReadStmt:
		return c.read(st)
	}
	return func(*frame) signal {
		raise("interp: cannot execute %T", s)
		return sigNormal
	}
}

// target is a compiled assignable reference, with the one setter its
// storage takes: setInt or setFloat where the symbol's type is proven
// (the value arrives converted), set — which converts a tagged value
// to the symbol's type — where it is not.
type target struct {
	setInt   func(*frame, int64)
	setFloat func(*frame, float64)
	set      func(*frame, Value)
}

// setValue is the setter for a tagged value whatever the storage.
func (t target) setValue() func(*frame, Value) {
	switch {
	case t.setInt != nil:
		return func(f *frame, v Value) { t.setInt(f, v.Int()) }
	case t.setFloat != nil:
		return func(f *frame, v Value) { t.setFloat(f, v.Float()) }
	}
	return t.set
}

func (c *compiler) target(ref *fortran.VarRef) target {
	sym := ref.Sym
	fail := func(format string, args ...any) target {
		return target{set: func(*frame, Value) { raise(format, args...) }}
	}
	if sym == nil {
		return fail("interp: unresolved reference %s", ref.Name)
	}
	if sym.IsArray() && len(ref.Subs) > 0 {
		at := c.element(ref)
		switch {
		case !c.typed(sym):
			return target{set: func(f *frame, v Value) {
				a, off := at(f)
				a.v[off] = convert(v, sym.Type)
			}}
		case sym.Type == fortran.TypeInteger:
			return target{setInt: func(f *frame, v int64) {
				a, off := at(f)
				a.i[off] = v
			}}
		}
		return target{setFloat: func(f *frame, v float64) {
			a, off := at(f)
			a.r[off] = v
		}}
	}
	slot, ok := c.cell(sym)
	switch {
	case !ok:
		return fail("interp: scalar %s has no storage", sym.Name)
	case !c.typed(sym):
		return target{set: func(f *frame, v Value) { f.cells[slot].v = convert(v, sym.Type) }}
	case sym.Type == fortran.TypeInteger:
		return target{setInt: func(f *frame, v int64) { f.cells[slot].v.I = v }}
	}
	return target{setFloat: func(f *frame, v float64) { f.cells[slot].v.R = v }}
}

// assign evaluates the right-hand side, then the subscripts of the
// left, then stores.
func (c *compiler) assign(st *fortran.AssignStmt) stmt {
	t := c.target(st.Lhs)
	switch {
	case t.setInt != nil:
		rhs := c.int(st.Rhs)
		return func(f *frame) signal {
			t.setInt(f, rhs(f))
			return sigNormal
		}
	case t.setFloat != nil:
		rhs := c.float(st.Rhs)
		return func(f *frame) signal {
			t.setFloat(f, rhs(f))
			return sigNormal
		}
	}
	rhs := c.value(st.Rhs)
	return func(f *frame) signal {
		t.set(f, rhs(f))
		return sigNormal
	}
}

func (c *compiler) print(st *fortran.PrintStmt) stmt {
	items := make([]func(*frame) Value, len(st.Items))
	for i, it := range st.Items {
		items[i] = c.value(it)
	}
	return func(f *frame) signal {
		if f.m.Out == nil {
			// Still evaluate for side effects (function calls).
			for _, it := range items {
				it(f)
			}
			return sigNormal
		}
		parts := make([]string, len(items))
		for i, it := range items {
			parts[i] = it(f).String()
		}
		if _, err := io.WriteString(f.m.Out, runfmt.Line(parts)); err != nil {
			// A tripped output cap surfaces here and stops the run.
			panic(abort{err})
		}
		return sigNormal
	}
}

// read consumes one input value per item — zero once the input is
// exhausted — as INTEGER for an INTEGER target and REAL otherwise.
func (c *compiler) read(st *fortran.ReadStmt) stmt {
	type item struct {
		set     func(*frame, Value)
		integer bool
	}
	items := make([]item, len(st.Items))
	for i, it := range st.Items {
		vr, ok := it.(*fortran.VarRef)
		if !ok || vr.Sym == nil {
			items[i].set = func(*frame, Value) { raise("interp: READ target must be a variable") }
			continue
		}
		items[i] = item{c.target(vr).setValue(), vr.Sym.Type == fortran.TypeInteger}
	}
	return func(f *frame) signal {
		for _, it := range items {
			var raw float64
			if f.m.inputPos < len(f.m.Input) {
				raw = f.m.Input[f.m.inputPos]
				f.m.inputPos++
			}
			if it.integer {
				it.set(f, IntVal(int64(raw)))
			} else {
				it.set(f, RealVal(raw))
			}
		}
		return sigNormal
	}
}

// ---------------------------------------------------------------------------
// DO loops: sequential and parallel. The protocol — trip count, when
// and how wide a marked loop forks, iteration assignment, the loop
// variable's values, reductions — is parrt's, shared with the compiled
// backend; this file supplies storage, errors and cycle accounting.

func (c *compiler) do(st *fortran.DoStmt) stmt {
	lo, hi := c.int(st.Lo), c.int(st.Hi)
	step := func(*frame) int64 { return 1 }
	if st.Step != nil {
		step = c.int(st.Step)
	}
	ivar, body := c.cellSlot(st.Var), c.body(st.Body)
	var par func(*frame, parrt.Loop, int64)
	if st.Parallel {
		par = c.doall(st, ivar, body)
	}
	return func(f *frame) signal {
		l, err := parrt.New(lo(f), hi(f), step(f))
		if err != nil {
			raise("interp: %w", err)
		}
		if par != nil {
			if workers := l.Fork(f.m.Workers); workers > 0 {
				par(f, l, workers)
				return sigNormal
			}
		}
		iv := f.cells[ivar]
		if iv == nil {
			raise("interp: loop variable %s has no storage", st.Var.Name)
		}
		for n := int64(0); n < l.Trip; n++ {
			f.checkCancel()
			iv.v = IntVal(l.Index(n))
			// A GOTO the body could not resolve leaves the loop; one to
			// the loop's own terminator label was resolved inside it.
			if sig := body.run(f); sig != sigNormal {
				return sig
			}
		}
		iv.v = IntVal(l.Final())
		return sigNormal
	}
}

// doall compiles the parallel execution of a marked loop: its
// iterations run on worker goroutines under parrt's protocol (fan-out,
// iteration shares, reduction identities and combine order — the same
// code every compiled program runs). What is the interpreter's own: a
// worker's frame is a copy of the slots with fresh storage in those of
// the private scalars and work arrays, the loop variable and the
// reduction variables; each worker checks for cancellation and records
// its error, and the slowest worker sets the simulated time.
func (c *compiler) doall(st *fortran.DoStmt, ivar int, body *body) func(*frame, parrt.Loop, int64) {
	type private struct {
		slot  int
		sym   *fortran.Symbol
		typed bool
	}
	var scalars, arrays []private
	ivarPrivate := false
	for _, p := range st.Private {
		if slot, ok := c.cell(p); ok {
			scalars = append(scalars, private{slot: slot, sym: p})
			ivarPrivate = ivarPrivate || p == st.Var
		} else if slot, ok := c.array(p); ok {
			arrays = append(arrays, private{slot, p, c.typed(p)})
		}
	}
	if !ivarPrivate {
		scalars = append(scalars, private{slot: ivar, sym: st.Var})
	}
	reductions := make([]int, len(st.Reductions))
	for ri, r := range st.Reductions {
		reductions[ri] = c.cellSlot(r.Sym)
	}
	return func(f *frame, l parrt.Loop, workers int64) {
		atomic.AddInt64(&f.m.ParallelLoopsRun, 1)
		partials := make([][]Value, len(reductions)) // [reduction][worker]
		for ri := range partials {
			partials[ri] = make([]Value, workers)
		}
		errs := make([]error, workers)
		workerCycles := make([]int64, workers)
		l.Run(workers, func(w, first, stride int64) {
			errs[w] = try(func() {
				wf := &frame{m: f.m, cells: append([]*cell(nil), f.cells...), arrays: f.arrays}
				for _, p := range scalars {
					wf.cells[p.slot] = &cell{v: zeroOf(p.sym.Type)}
				}
				cloned := false
				for _, p := range arrays {
					// Private work array: fresh zeroed storage with
					// the shared array's shape (safe because array
					// privatization requires a kill before any use).
					shared := f.arrays[p.slot]
					if shared == nil {
						continue
					}
					if !cloned {
						wf.arrays, cloned = append([]*array(nil), f.arrays...), true
					}
					wf.arrays[p.slot] = newArray(p.sym, p.typed, shared.lo, shared.ext)
				}
				for ri, slot := range reductions {
					wf.cells[slot] = &cell{v: identityValue(st.Reductions[ri])}
				}
				for n := first; n < l.Trip; n += stride {
					wf.checkCancel()
					wf.cells[ivar].v = IntVal(l.Index(n))
					if body.run(wf) != sigNormal {
						raise("interp: control flow escaping a parallel loop")
					}
				}
				for ri, slot := range reductions {
					partials[ri][w] = wf.cells[slot].v
				}
				workerCycles[w] = wf.cycles
				if err := wf.flushStmts(); err != nil {
					panic(abort{err})
				}
			})
		})
		// Simulated time: the critical path is the slowest worker, plus
		// the fork/join overhead.
		f.cycles += forkCycles + max(0, slices.Max(workerCycles))
		for _, err := range errs {
			if err != nil {
				panic(abort{err})
			}
		}
		for ri, slot := range reductions {
			cell := f.cells[slot]
			cell.v = reduceValues(st.Reductions[ri], cell.v, partials[ri])
		}
		if iv := f.cells[ivar]; iv != nil {
			iv.v = IntVal(l.Final())
		}
	}
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

// callSite is one CALL statement or function reference with its
// argument passing resolved: the callee, how each actual is passed
// (actualKind), and whether every dummy gets the kind of binding it
// needs.
type callSite struct {
	callee *fortran.Unit
	// unit caches the callee's compiled form on the first call through
	// this site; DOALL workers may race to fill it with the same
	// pointer.
	unit atomic.Pointer[unit]
	// args evaluate the actuals, in order; an actual beyond the
	// callee's dummies is not evaluated at all.
	args []actual
	// unbound is the error of the first dummy no actual binds, reported
	// once the actuals have been evaluated.
	unbound error
}

type actual struct {
	cell  func(*frame) *cell
	array func(*frame) *array
}

func (c *compiler) callSite(callee *fortran.Unit, args []fortran.Expr) *callSite {
	s := &callSite{callee: callee}
	for i, a := range args {
		if i >= len(callee.Args) {
			break
		}
		formal := callee.Args[i]
		vr, _ := a.(*fortran.VarRef)
		var bind actual
		switch kind := actualKind(a, formal); kind {
		case actualArray:
			// An array that does not exist binds nothing: the callee's
			// dummy then goes unbound.
			if slot, ok := c.array(vr.Sym); ok {
				bind.array = func(f *frame) *array { return f.arrays[slot] }
			}
		case actualTail:
			at := c.element(vr)
			bind.array = func(f *frame) *array {
				base, off := at(f)
				return base.tail(formal, off)
			}
		default:
			if kind == actualCell {
				if slot, ok := c.cell(vr.Sym); ok {
					bind.cell = func(f *frame) *cell { return f.cells[slot] }
					break
				}
			}
			value := c.value(a)
			bind.cell = func(f *frame) *cell { return &cell{v: value(f)} }
		}
		s.args = append(s.args, bind)
	}
	for i, formal := range callee.Args {
		switch {
		case formal.Kind == fortran.SymScalar && (i >= len(s.args) || s.args[i].cell == nil):
			s.unbound = fmt.Errorf("interp: %s: argument %d: scalar binding missing", callee.Name, i+1)
		case formal.Kind == fortran.SymArray && (i >= len(s.args) || s.args[i].array == nil):
			s.unbound = fmt.Errorf("interp: %s: argument %d: array binding missing", callee.Name, i+1)
		default:
			continue
		}
		break
	}
	return s
}

// enter evaluates the actuals in the caller's frame f and returns the
// callee with a frame ready to run its body.
func (s *callSite) enter(f *frame) (*unit, *frame) {
	cu := s.unit.Load()
	if cu == nil {
		cu = f.m.compiled(s.callee)
		s.unit.Store(cu)
	}
	nf := cu.newFrame(f.m)
	for i, a := range s.args {
		// A binding of the kind the dummy is not is evaluated and dropped.
		switch kind := s.callee.Args[i].Kind; {
		case a.cell != nil:
			if c := a.cell(f); kind == fortran.SymScalar {
				nf.cells[cu.formals[i]] = c
			}
		case a.array != nil:
			if arr := a.array(f); kind == fortran.SymArray {
				nf.arrays[cu.formals[i]] = arr
			}
		}
	}
	if s.unbound != nil {
		panic(abort{s.unbound})
	}
	cu.enter(nf)
	return cu, nf
}
