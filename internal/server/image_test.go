package server

// The serving layer reads the session's source image (core.Session.Save
// and SourceHash) where it used to print and hash the whole program.
// These tests pin what must not have moved — PreHash is still sha256
// of the printed program, so journals written before the image existed
// replay — and what must have: a journaled operation on a live session
// no longer prints anything.

import (
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"parascope/internal/core"
	"parascope/internal/fortran"
	"parascope/internal/planner"
	"parascope/internal/repl"
	"parascope/internal/workloads"
)

// srcHash is PreHash's definition, computed the long way: sha256 of a
// printed program text.
var srcHash = planner.SrcHash

// largestWorkload is the suite program with the longest printed text.
func largestWorkload(t *testing.T) *workloads.Workload {
	t.Helper()
	var best *workloads.Workload
	for _, w := range workloads.All() {
		if best == nil || len(w.Source) > len(best.Source) {
			best = w
		}
	}
	return best
}

// firstAssign returns the ID and text of the current unit's first
// assignment. Statement IDs are a function of the source alone, so a
// shadow session's IDs address the daemon's session too.
func firstAssign(t *testing.T, cs *core.Session) (int, string) {
	t.Helper()
	id, text := 0, ""
	fortran.WalkStmts(cs.CurrentUnit().Body, func(st fortran.Stmt) bool {
		if _, ok := st.(*fortran.AssignStmt); ok && id == 0 {
			id, text = st.ID(), fortran.StmtText(st)
		}
		return true
	})
	if id == 0 {
		t.Fatal("no assignment in the current unit")
	}
	return id, text
}

// allocated reports the fewest bytes f allocated over a few tries: the
// counter is process-wide, so a try can only over-count.
func allocated(f func()) uint64 {
	best := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d < best {
			best = d
		}
	}
	return best
}

// TestLiveReadsDoNotReprint: on a materialised, journaled session a
// Select (journaled, so it needs the PreHash) and a Deps allocate less
// than the program's printed length — nothing was printed to serve
// them. At the parent commit the Select allocated about nine times it.
func TestLiveReadsDoNotReprint(t *testing.T) {
	m := newTestManager(t, durableConfig(t.TempDir()))
	ss, _ := mustOpen(t, m, largestWorkload(t).Name)
	mustCmd(t, ss, "auto") // materialises, and changes the text
	printed := uint64(len(mustCmd(t, ss, "save")))
	if info := ss.Info(bg); !info.Live {
		t.Fatal("session is not live; the test is vacuous")
	}
	sel := allocated(func() {
		if _, err := ss.Select(bg, SelectRequest{Loop: 1}); err != nil {
			t.Error(err)
		}
	})
	deps := allocated(func() {
		if _, err := ss.Deps(bg, DepQuery{}); err != nil {
			t.Error(err)
		}
	})
	if sel >= printed || deps >= printed {
		t.Errorf("printed program is %d bytes; select allocated %d, deps %d — want both below it",
			printed, sel, deps)
	}
}

// TestJournalPreHashIsHashOfSave: every record the daemon writes
// carries the sha256 of the `save` text taken just before the
// operation — artifact-backed, live, after every kind of mutation.
func TestJournalPreHashIsHashOfSave(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, durableConfig(dir))
	w := largestWorkload(t)
	ss, resp := mustOpen(t, m, w.Name)
	shadow, err := w.Session()
	if err != nil {
		t.Fatal(err)
	}
	stmt, text := firstAssign(t, shadow)
	loopVar := shadow.Loops()[0].Do.Var.Name

	var want []string
	step := func(name string, op func() error) {
		t.Helper()
		want = append(want, srcHash(mustCmd(t, ss, "save")))
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	cmd := func(line string) func() error {
		return func() error { mustCmd(t, ss, line); return nil }
	}
	step("select", func() error { _, err := ss.Select(bg, SelectRequest{Loop: 1}); return err }) // artifact-backed
	step("edit", func() error { return ss.Edit(bg, EditRequest{Stmt: stmt, Text: "      " + text + " + 1.0"}) })
	step("rejected edit", func() error {
		// Fails in the parse, after declaring zz: the next pre_hash must
		// be the hash of a `save` that shows it.
		if err := ss.Edit(bg, EditRequest{Stmt: stmt, Text: "      zz(1) = 1.0"}); err == nil {
			t.Error("edit onto an undeclared array was accepted")
		}
		return nil
	})
	step("select live", func() error { _, err := ss.Select(bg, SelectRequest{Loop: 1}); return err })
	step("auto", cmd("auto"))
	step("classify", func() error { return ss.Classify(bg, ClassifyRequest{Var: loopVar, Class: "private"}) })
	step("undo", func() error { return ss.Undo(bg) })
	step("delete", func() error { return ss.Edit(bg, EditRequest{Stmt: stmt, Delete: true}) })
	step("loop", cmd("loop 1"))
	step("undo cmd", cmd("undo"))

	res, err := readJournal(walPath(dir, resp.ID))
	if err != nil {
		t.Fatal(err)
	}
	recs := res.records[1:] // after the open record
	if len(recs) != len(want) {
		t.Fatalf("journal holds %d operation records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.PreHash != want[i] {
			t.Errorf("record %d (%s): pre_hash %.12s…, sha256(save before it) %.12s…",
				i+1, rec.Op, rec.PreHash, want[i])
		}
	}
}

// TestParentDefinitionJournalRecovers writes a journal the way the
// parent commit did — every pre_hash computed here, independently of
// the daemon, as sha256 of fortran.Print of a shadow session's AST —
// and requires recovery to replay it without divergence onto exactly
// the shadow's program.
func TestParentDefinitionJournalRecovers(t *testing.T) {
	dir := t.TempDir()
	w := largestWorkload(t)
	shadow, err := w.Session()
	if err != nil {
		t.Fatal(err)
	}
	stmt, text := firstAssign(t, shadow)
	rep := repl.New(shadow, io.Discard)
	line := func(l string) func() { return func() { _ = rep.Execute(l) } }

	const id = "sparent01"
	jr, err := createJournal(dir, id, FsyncAlways, NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.append(&record{Op: recOpen, Path: w.Name + ".f", Source: w.Source}); err != nil {
		t.Fatal(err)
	}
	for _, op := range []struct {
		rec   record
		apply func()
	}{
		{record{Op: recSelect, Loop: 1}, func() { _ = shadow.SelectLoop(1) }},
		{record{Op: recEdit, Stmt: stmt, Text: "      " + text + " + 1.0"},
			func() { _ = shadow.EditStmt(stmt, "      "+text+" + 1.0") }},
		{record{Op: recEdit, Stmt: stmt, Text: "      zz(1) = 1.0"}, // rejected, but declares zz
			func() { _ = shadow.EditStmt(stmt, "      zz(1) = 1.0") }},
		{record{Op: recCmd, Line: "auto"}, line("auto")},
		{record{Op: recUndo}, func() { _ = shadow.Undo() }},
		{record{Op: recCmd, Line: "apply parallelize 1"}, line("apply parallelize 1")},
		{record{Op: recEdit, Stmt: stmt, Delete: true}, func() { _ = shadow.DeleteStmt(stmt) }},
	} {
		rec := op.rec
		rec.PreHash = srcHash(fortran.Print(shadow.File))
		if err := jr.append(&rec); err != nil {
			t.Fatal(err)
		}
		op.apply()
	}
	if err := jr.close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(walPath(dir, id))
	if err != nil {
		t.Fatal(err)
	}

	m := newTestManager(t, durableConfig(dir))
	st, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.Recovered != 1 || st.ReadOnly != 0 || st.Quarantined != 0 || st.Truncated != 0 {
		t.Fatalf("recovery stats = %+v, want exactly 1 recovered and writable", st)
	}
	rs := m.Get(id)
	if rs == nil {
		t.Fatal("session not registered after recovery")
	}
	want := fortran.Print(shadow.File)
	if got := mustCmd(t, rs, "save"); got != want {
		t.Errorf("recovered program differs from the shadow's:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if !strings.Contains(want, "c$par doall") {
		t.Error("the replayed operations left no parallel loop; the test is vacuous")
	}
	after, err := os.ReadFile(walPath(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Error("recovery rewrote a journal it replayed cleanly")
	}
}
