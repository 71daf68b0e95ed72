package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"parascope/internal/faultpoint"
	"parascope/internal/workloads"
)

// These tests pin the contract that a session journals from its first
// mutation, not from its open: every acknowledged mutation survives per
// the fsync policy, and a session exists after a crash iff one of its
// mutations does. Browsing — opens, cursor moves, reads, runs, closes —
// costs no disk at all.

// browse walks a session the way a user looks before touching: loop
// list, typed selects and the REPL's unit/loop/next across both units
// of arc3d, the dependence pane plain and under filters, the variable
// pane, save, status, an interpreted run. It ends with the cursor on
// (unit, loop), reached by a typed select and a REPL verb.
func browse(t *testing.T, ss *Session, unit string, loop int) {
	t.Helper()
	sel := func(req SelectRequest) {
		t.Helper()
		if _, err := ss.Select(bg, req); err != nil {
			t.Fatalf("select %+v: %v", req, err)
		}
	}
	mustCmd(t, ss, "loops")
	sel(SelectRequest{Loop: 2})
	mustCmd(t, ss, "deps")
	if _, err := ss.Deps(bg, DepQuery{Carried: true, Sym: "q"}); err != nil {
		t.Fatalf("typed deps: %v", err)
	}
	mustCmd(t, ss, "vars")
	mustCmd(t, ss, "unit sweep")
	mustCmd(t, ss, "loop 1")
	sel(SelectRequest{Unit: "arc3d", Loop: 3})
	mustCmd(t, ss, "deps carried hiderejected") // filters need the live session
	mustCmd(t, ss, "next")
	mustCmd(t, ss, "save")
	if out := mustCmd(t, ss, "status"); !strings.Contains(out, "not journaled") {
		t.Fatalf("status of an unmutated session: %q", out)
	}
	if _, err := ss.Run(bg, RunRequest{Backend: "interp"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	sel(SelectRequest{Unit: unit})
	mustCmd(t, ss, fmt.Sprintf("loop %d", loop))
}

// cursorOf reads the session's cursor on its actor, journaling nothing.
func cursorOf(t *testing.T, ss *Session) (unit string, loop int) {
	t.Helper()
	if err := ss.post(bg, func() { unit, loop = ss.cursor() }, false); err != nil {
		t.Fatal(err)
	}
	return unit, loop
}

// firstAssignIn returns the ID and text of unit's first assignment, from
// a shadow session (statement IDs are a function of the source alone).
func firstAssignIn(t *testing.T, w *workloads.Workload, unit string) (int, string) {
	t.Helper()
	shadow, err := w.Session()
	if err != nil {
		t.Fatal(err)
	}
	if err := shadow.SelectUnit(unit); err != nil {
		t.Fatal(err)
	}
	return firstAssign(t, shadow)
}

func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestJournalBornAtFirstMutation: under every fsync policy, on a cold
// open and on a cache hit, a browsing session leaves the data directory
// empty and the journal counters still, through to its close; the same
// session with one edit has a journal of exactly open, select (where the
// cursor stood), edit — each pre_hash the sha256 of the save before it.
func TestJournalBornAtFirstMutation(t *testing.T) {
	w := workloads.ByName("arc3d")
	stmt, text := firstAssignIn(t, w, "arc3d")
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			m := newTestManager(t, Config{CacheSize: 8, DataDir: dir, Fsync: policy, FlushEvery: time.Millisecond})
			// still: nothing on disk, and the journal counters where the
			// last journaled session (none at first) left them.
			base := map[string]float64{}
			counters := []string{"pedd_journal_bytes_total", "pedd_journal_fsync_seconds_count", "pedd_journal_append_seconds_count"}
			still := func(when string) {
				t.Helper()
				if names := walFiles(t, dir); len(names) != 0 {
					t.Fatalf("%s: data directory holds %v, want nothing", when, names)
				}
				vals := promValues(t, scrape(t, m.Metrics()))
				for _, series := range counters {
					if vals[series] != base[series] {
						t.Fatalf("%s: %s moved from %v to %v", when, series, base[series], vals[series])
					}
				}
			}
			for _, kind := range []string{"cold", "hit"} {
				ss, resp := mustOpen(t, m, w.Name)
				if resp.Cached != (kind == "hit") {
					t.Fatalf("%s open: cached = %v", kind, resp.Cached)
				}
				still(kind + " open")
				browse(t, ss, "arc3d", 2)
				time.Sleep(3 * time.Millisecond) // a few flusher ticks
				if info := ss.Info(bg); info.Journaled {
					t.Fatalf("%s: browsing session reports journaled", kind)
				}
				still(kind + " browse")
				if !m.Close(resp.ID) {
					t.Fatal("close failed")
				}
				<-ss.done
				still(kind + " close")
			}
			for _, kind := range []string{"hit", "hit again"} {
				ss, resp := mustOpen(t, m, w.Name)
				browse(t, ss, "arc3d", 2)
				still(kind + " browse before the edit")
				before := srcHash(mustCmd(t, ss, "save"))
				if err := ss.Edit(bg, EditRequest{Stmt: stmt, Text: "      " + text + " + 1.0"}); err != nil {
					t.Fatalf("edit: %v", err)
				}
				if info := ss.Info(bg); !info.Journaled {
					t.Fatalf("%s: mutated session does not report journaled", kind)
				}
				if out := mustCmd(t, ss, "status"); !strings.HasSuffix(out, ", journaled\n") {
					t.Fatalf("status of a mutated session: %q", out)
				}
				res, err := readJournal(walPath(dir, resp.ID))
				if err != nil {
					t.Fatal(err)
				}
				var ops []string
				for i, rec := range res.records {
					ops = append(ops, rec.Op)
					if rec.Seq != uint64(i+1) {
						t.Errorf("record %d has seq %d", i+1, rec.Seq)
					}
					if i > 0 && rec.PreHash != before {
						t.Errorf("record %d (%s): pre_hash %.12s…, sha256(save before it) %.12s…", i+1, rec.Op, rec.PreHash, before)
					}
				}
				if !reflect.DeepEqual(ops, []string{recOpen, recSelect, recEdit}) || res.tornAt >= 0 {
					t.Fatalf("journal after the first mutation = %v (torn at %d), want [open select edit]", ops, res.tornAt)
				}
				if sel := res.records[1]; sel.Unit != "arc3d" || sel.Loop != 2 {
					t.Errorf("birth select = (%q, %d), want the cursor (arc3d, 2)", sel.Unit, sel.Loop)
				}
				if open := res.records[0]; open.Source != w.Source || open.Path != w.Name+".f" {
					t.Errorf("birth open record does not carry the source the session was opened with")
				}
				// From here on selects are journaled in order, as before.
				if _, err := ss.Select(bg, SelectRequest{Loop: 1}); err != nil {
					t.Fatal(err)
				}
				if res, _ = readJournal(walPath(dir, resp.ID)); len(res.records) != 4 || res.records[3].Op != recSelect {
					t.Errorf("select after the birth was not journaled: %d records", len(res.records))
				}
				m.Close(resp.ID)
				<-ss.done
				if names := walFiles(t, dir); len(names) != 0 {
					t.Fatalf("close of a journaled session left %v", names)
				}
				vals := promValues(t, scrape(t, m.Metrics()))
				for _, series := range counters {
					base[series] = vals[series]
				}
				if base["pedd_journal_bytes_total"] == 0 {
					t.Fatal("the journaled session moved no journal counter")
				}
			}
		})
	}
}

// TestRecoverCursorBeforeFirstMutation: a cursor walked across units
// and loops before the first mutation — by typed selects and by REPL
// verbs, on an artifact-backed and on a cold-open session — is where
// recovery puts it. The manager is dropped without shutdown (a crash,
// as far as the journal can tell) and a second one recovers: same
// cursor, same save, same dependence pane, and a following edit hits the
// same statement (EditStmt resolves in the current unit, so a misplaced
// cursor would refuse it). What is not kept is the walk: `history` on
// the recovered session shows one selection, the final cursor, where
// the live cold-open session lists every step.
func TestRecoverCursorBeforeFirstMutation(t *testing.T) {
	w := workloads.ByName("arc3d")
	mainStmt, mainText := firstAssignIn(t, w, "arc3d")
	sweepStmt, sweepText := firstAssignIn(t, w, "sweep")
	type tc struct {
		name, unit string
		loop       int
		mutate     func(t *testing.T, ss *Session)
		stmt       int
		text       string
	}
	cases := []tc{
		{"edit", "sweep", 2, func(t *testing.T, ss *Session) {
			if err := ss.Edit(bg, EditRequest{Stmt: sweepStmt, Text: "      " + sweepText + " + 1.0"}); err != nil {
				t.Fatal(err)
			}
		}, sweepStmt, sweepText},
		{"apply", "arc3d", 1, func(t *testing.T, ss *Session) { mustCmd(t, ss, "apply parallelize 1") }, mainStmt, mainText},
		{"mark", "arc3d", 2, func(t *testing.T, ss *Session) {
			// The first row of the pane of loop 2, where browse left the cursor.
			resp, err := ss.Deps(bg, DepQuery{})
			if err != nil || len(resp.Deps) == 0 {
				t.Fatalf("deps of loop 2: %d rows, %v", len(resp.Deps), err)
			}
			mustCmd(t, ss, fmt.Sprintf("mark %d reject", resp.Deps[0].ID))
		}, mainStmt, mainText},
	}
	for _, c := range cases {
		for _, kind := range []string{"cold", "hit"} {
			t.Run(c.name+"/"+kind, func(t *testing.T) {
				dir := t.TempDir()
				m1 := NewManager(durableConfig(dir))
				t.Cleanup(m1.Shutdown) // only after the recovery below has been judged
				if kind == "hit" {
					mustOpen(t, m1, w.Name)
				}
				ss, resp := mustOpen(t, m1, w.Name)
				if resp.Cached != (kind == "hit") {
					t.Fatalf("cached = %v", resp.Cached)
				}
				browse(t, ss, c.unit, c.loop)
				c.mutate(t, ss)
				unit, loop := cursorOf(t, ss)
				if unit != c.unit || loop != c.loop {
					t.Fatalf("live cursor = (%s, %d), want (%s, %d)", unit, loop, c.unit, c.loop)
				}
				save, pane := mustCmd(t, ss, "save"), mustCmd(t, ss, "deps")

				m2 := newTestManager(t, durableConfig(dir))
				st, err := m2.Recover()
				if err != nil || st.Recovered != 1 || st.ReadOnly != 0 || st.Quarantined != 0 {
					t.Fatalf("recover: %+v, %v", st, err)
				}
				rs := m2.Get(resp.ID)
				if rs == nil {
					t.Fatal("session not recovered")
				}
				if u, l := cursorOf(t, rs); u != unit || l != loop {
					t.Errorf("recovered cursor = (%s, %d), want (%s, %d)", u, l, unit, loop)
				}
				if got := mustCmd(t, rs, "save"); got != save {
					t.Errorf("recovered save differs:\n--- want ---\n%s--- got ---\n%s", save, got)
				}
				if got := mustCmd(t, rs, "deps"); got != pane {
					t.Errorf("recovered dependence pane differs:\n--- want ---\n%s--- got ---\n%s", pane, got)
				}
				if n := strings.Count(mustCmd(t, rs, "history"), "select "); n > 2 {
					t.Errorf("recovered history holds %d selections; the birth records one cursor, not the walk", n)
				}
				if kind == "cold" {
					if n := strings.Count(mustCmd(t, ss, "history"), "select "); n < 5 {
						t.Errorf("live history holds %d selections; the walk made more", n)
					}
				}
				edit := EditRequest{Stmt: c.stmt, Text: "      " + c.text + " * 2.0"}
				if err := ss.Edit(bg, edit); err != nil {
					t.Fatalf("following edit on the live session: %v", err)
				}
				if err := rs.Edit(bg, edit); err != nil {
					t.Fatalf("following edit on the recovered session: %v", err)
				}
				if live, got := mustCmd(t, ss, "save"), mustCmd(t, rs, "save"); got != live || got == save {
					t.Errorf("the following edit did not land on the same statement (changed: %v)", got != save)
				}
			})
		}
	}
}

// TestJournalCloseWithQueuedMutationLeavesNoWal: a close that races the
// session's first mutation — in even rounds the mutation is provably
// queued behind a blocked actor when Close runs, so the wal is born
// after Close looked — never leaves a file behind, and nothing
// resurrects at the next recovery.
func TestJournalCloseWithQueuedMutationLeavesNoWal(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{CacheSize: 8, DataDir: dir, Fsync: FsyncInterval, FlushEvery: time.Millisecond})
	w := workloads.ByName("onedim")
	stmt, text := firstAssignIn(t, w, "onedim")
	mustOpen(t, m, w.Name) // prime the cache; this one stays open and unmutated
	born := 0
	for round := 0; round < 200; round++ {
		ss, resp := mustOpen(t, m, w.Name)
		gate, blocked := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		if round%2 == 0 {
			wg.Add(1)
			go func() { defer wg.Done(); _ = ss.post(bg, func() { close(blocked); <-gate }, false) }()
			<-blocked
		}
		wg.Add(1)
		var editErr error
		go func() {
			defer wg.Done()
			editErr = ss.Edit(bg, EditRequest{Stmt: stmt, Text: "      " + text + " + 1.0"})
		}()
		if round%2 == 0 {
			waitFor(t, func() bool { return len(ss.reqCh) == 1 })
		}
		if !m.Close(resp.ID) {
			t.Fatalf("round %d: close failed", round)
		}
		close(gate)
		wg.Wait()
		<-ss.done
		if editErr == nil {
			born++
		} else if !errors.Is(editErr, ErrSessionClosed) {
			t.Fatalf("round %d: edit: %v", round, editErr)
		}
		if names := walFiles(t, dir); len(names) != 0 {
			t.Fatalf("round %d (edit: %v): closed session left %v", round, editErr, names)
		}
	}
	if born < 100 {
		t.Fatalf("only %d of 200 rounds journaled their mutation; the queued rounds must all", born)
	}
	m2 := newTestManager(t, durableConfig(dir))
	if st, err := m2.Recover(); err != nil || st != (RecoveryStats{}) {
		t.Fatalf("recovery after 200 closes: %+v, %v — want nothing", st, err)
	}
}

// TestJournalBirthFaults: a birth that fails — injected append fault,
// injected fsync fault, a foreign file already under the session's wal
// name — refuses the mutation with the read-only error (503 over HTTP),
// leaves no half-written file of its own (and the foreign one as it
// was), does not touch the AST, and the session keeps serving reads.
func TestJournalBirthFaults(t *testing.T) {
	w := workloads.ByName("onedim")
	stmt, text := firstAssignIn(t, w, "onedim")
	foreign := []byte("not a journal")
	for _, c := range []struct {
		name string
		arm  func(dir, id string) func()
		left []byte // what must be under the wal name afterwards (nil = nothing)
	}{
		{"append", func(dir, id string) func() {
			return faultpoint.Arm(faultpoint.JournalAppend, faultpoint.Fault{Match: id + ":" + recEdit, Err: errors.New("injected EIO")})
		}, nil},
		{"fsync", func(dir, id string) func() {
			return faultpoint.Arm(faultpoint.JournalSync, faultpoint.Fault{Match: id, Err: errors.New("injected EIO")})
		}, nil},
		{"collision", func(dir, id string) func() {
			if err := os.WriteFile(walPath(dir, id), foreign, 0o644); err != nil {
				t.Fatal(err)
			}
			return func() {}
		}, foreign},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			m := newTestManager(t, durableConfig(dir))
			t.Cleanup(faultpoint.Reset)
			mustOpen(t, m, w.Name)
			ss, resp := mustOpen(t, m, w.Name) // artifact-backed
			mustCmd(t, ss, "loop 1")
			before := mustCmd(t, ss, "save")
			disarm := c.arm(dir, resp.ID)
			defer disarm()

			ts := httptest.NewServer(New(m))
			defer ts.Close()
			hr, err := http.Post(ts.URL+"/v1/sessions/"+resp.ID+"/edit", "application/json",
				strings.NewReader(fmt.Sprintf(`{"stmt":%d,"text":%q}`, stmt, "      "+text+" + 1.0")))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(hr.Body)
			hr.Body.Close()
			if hr.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("first mutation with a failing birth: %d %s, want 503", hr.StatusCode, body)
			}
			if err := ss.Undo(bg); !errors.Is(err, ErrSessionReadOnly) {
				t.Errorf("mutation after the failed birth: %v, want ErrSessionReadOnly", err)
			}
			if reason := ss.ReadOnlyReason(); !strings.Contains(reason, "journal create") {
				t.Errorf("read-only reason %q does not name the birth", reason)
			}
			got, err := os.ReadFile(walPath(dir, resp.ID))
			if c.left == nil && !os.IsNotExist(err) {
				t.Errorf("failed birth left a file: %q, %v", got, err)
			}
			if c.left != nil && string(got) != string(c.left) {
				t.Errorf("failed birth touched the foreign file: %q, %v", got, err)
			}
			if info := ss.Info(bg); info.Journaled || !info.ReadOnly {
				t.Errorf("info after the failed birth = %+v, want read-only and not journaled", info)
			}
			if got := mustCmd(t, ss, "save"); got != before {
				t.Error("refused mutation changed the program")
			}
			mustCmd(t, ss, "loops")
			if u, l := cursorOf(t, ss); u != "onedim" || l != 1 {
				t.Errorf("cursor after the failed birth = (%s, %d)", u, l)
			}
			if _, err := ss.Deps(bg, DepQuery{}); err != nil {
				t.Errorf("deps on the degraded session: %v", err)
			}
		})
	}
}

// TestJournalFlusherFirstMutationStress runs the interval flusher at
// 1 ms against sessions that browse, give birth and keep mutating from
// several goroutines; under -race it is the check that the journal
// pointer the actor publishes is read safely by the flusher, Close and
// Shutdown. Half the sessions are closed (no wal may survive), half are
// left to Shutdown and must recover byte-identically.
func TestJournalFlusherFirstMutationStress(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{CacheSize: 8, DataDir: dir, Fsync: FsyncInterval, FlushEvery: time.Millisecond}
	m := NewManager(cfg)
	w := workloads.ByName("direct")
	mustOpen(t, m, w.Name)
	const workers, perWorker = 4, 12
	var mu sync.Mutex
	kept := map[string]string{}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				ss, resp, err := m.Open(bg, OpenRequest{Workload: w.Name})
				if err != nil {
					t.Error(err)
					return
				}
				for _, line := range []string{"loops", "loop 3", "deps", "apply parallelize 3", "loop 1", "apply parallelize 1", "undo"} {
					if r, err := ss.Cmd(bg, line); err != nil || r.Err != "" {
						t.Errorf("%s: %v %s", line, err, r.Err)
						return
					}
				}
				if (g+k)%2 == 0 {
					m.Close(resp.ID)
					continue
				}
				r, _ := ss.Cmd(bg, "save")
				mu.Lock()
				kept[resp.ID] = r.Output
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	m.Shutdown()
	if names := walFiles(t, dir); len(names) != len(kept) {
		t.Fatalf("data directory holds %d files, want the %d sessions left open: %v", len(names), len(kept), names)
	}
	m2 := newTestManager(t, cfg)
	st, err := m2.Recover()
	if err != nil || st.Recovered != len(kept) || st.Truncated+st.ReadOnly+st.Quarantined+st.Removed != 0 {
		t.Fatalf("recover: %+v, %v — want %d clean recoveries", st, err, len(kept))
	}
	for id, want := range kept {
		if got := mustCmd(t, m2.Get(id), "save"); got != want {
			t.Errorf("session %s recovered a different program", id)
		}
	}
}
