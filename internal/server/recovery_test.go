package server

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"parascope/internal/faultpoint"
	"parascope/internal/planner"
)

// durableConfig is the standard durability setup for these tests:
// FsyncAlways so every acknowledged mutation is on disk the moment the
// call returns — no flush-interval timing in the assertions.
func durableConfig(dir string) Config {
	return Config{CacheSize: 8, DataDir: dir, Fsync: FsyncAlways}
}

// cmdOK runs a line and requires transport success AND command success.
func cmdOK(t *testing.T, ss *Session, line string) string {
	t.Helper()
	return mustCmd(t, ss, line)
}

// TestRecoverRebuildsByteIdentical is the core durability contract: a
// mutated session survives a restart byte for byte — same ID, same
// printed source, same dependence answers — and stays writable.
func TestRecoverRebuildsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	m1 := NewManager(durableConfig(dir))
	ss, resp := mustOpen(t, m1, "direct")
	before := cmdOK(t, ss, "save")
	cmdOK(t, ss, "loop 1")
	cmdOK(t, ss, "apply parallelize 1")
	want := cmdOK(t, ss, "save")
	if want == before {
		t.Fatal("parallelize 1 did not change the printed source; the test is vacuous")
	}
	wantDeps, err := ss.Deps(bg, DepQuery{})
	if err != nil {
		t.Fatal(err)
	}
	m1.Shutdown()

	m2 := newTestManager(t, durableConfig(dir))
	st, err := m2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if st.Recovered != 1 || st.Quarantined != 0 || st.Truncated != 0 {
		t.Fatalf("recovery stats = %+v, want exactly 1 recovered", st)
	}
	rs := m2.Get(resp.ID)
	if rs == nil {
		t.Fatalf("session %s not re-registered after recovery", resp.ID)
	}
	if got := cmdOK(t, rs, "save"); got != want {
		t.Errorf("recovered source differs:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	gotDeps, err := rs.Deps(bg, DepQuery{})
	if err != nil {
		t.Fatalf("deps after recovery: %v", err)
	}
	if !reflect.DeepEqual(gotDeps, wantDeps) {
		t.Errorf("recovered deps differ:\nwant %+v\ngot  %+v", wantDeps, gotDeps)
	}
	// The recovered session is writable, and its new mutations are
	// journaled in turn — recover again to prove the reopened journal
	// keeps working.
	cmdOK(t, rs, "undo")
	roundTwo := cmdOK(t, rs, "save")
	if roundTwo != before {
		t.Errorf("undo after recovery did not restore the original source")
	}
	m2.Shutdown()

	m3 := newTestManager(t, durableConfig(dir))
	if _, err := m3.Recover(); err != nil {
		t.Fatal(err)
	}
	rs3 := m3.Get(resp.ID)
	if rs3 == nil {
		t.Fatal("session lost on second recovery")
	}
	if got := cmdOK(t, rs3, "save"); got != roundTwo {
		t.Errorf("second recovery diverged:\nwant %s\ngot  %s", roundTwo, got)
	}
}

// TestRecoverPrewarmsCache: recovery runs its reanalysis through the
// artifact cache, so the first post-restart open of the same source is
// a hit. The session mutates before the restart — an unmutated one has
// no journal and nothing would be recovered.
func TestRecoverPrewarmsCache(t *testing.T) {
	dir := t.TempDir()
	m1 := NewManager(durableConfig(dir))
	ss, _ := mustOpen(t, m1, "onedim")
	cmdOK(t, ss, "loop 1")
	cmdOK(t, ss, "apply parallelize 1")
	m1.Shutdown()

	m2 := newTestManager(t, durableConfig(dir))
	if _, err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, resp := mustOpen(t, m2, "onedim"); !resp.Cached {
		t.Error("open after recovery missed the cache; recovery did not pre-warm it")
	}
}

// TestRecoverTruncatesTornTail: a partial final record — the expected
// aftermath of kill -9 — is cut off and the session recovers from the
// records before it, still writable.
func TestRecoverTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	m1 := NewManager(durableConfig(dir))
	ss, resp := mustOpen(t, m1, "direct")
	cmdOK(t, ss, "loop 1")
	cmdOK(t, ss, "apply parallelize 1")
	want := cmdOK(t, ss, "save")
	m1.Shutdown()

	// Simulate the torn write: a length header promising more payload
	// than the file holds.
	wal := walPath(dir, resp.ID)
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x00, 0x40, 'p', 'a', 'r'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2 := newTestManager(t, durableConfig(dir))
	st, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.Recovered != 1 || st.Truncated != 1 || st.Quarantined != 0 {
		t.Fatalf("recovery stats = %+v, want 1 recovered with 1 truncation", st)
	}
	rs := m2.Get(resp.ID)
	if rs == nil {
		t.Fatal("torn-tail session not recovered")
	}
	if got := cmdOK(t, rs, "save"); got != want {
		t.Errorf("recovered source differs after torn-tail truncation")
	}
	// The truncated journal must be clean and appendable.
	cmdOK(t, rs, "undo")
	m2.Shutdown()
	res, err := readJournal(wal)
	if err != nil {
		t.Fatal(err)
	}
	if res.tornAt != -1 || res.corruptAt != -1 {
		t.Fatalf("journal still damaged after recovery truncation: %+v", res)
	}
}

// TestRecoverQuarantinesCorruptJournal: mid-stream corruption in one
// session's journal quarantines that session only — its status and
// failure are queryable, its operations are rejected, its neighbors
// recover untouched, and deleting it removes the corrupt wal. Both
// sessions mutate before the restart: a session that has only moved its
// cursor has no journal to corrupt or to recover.
func TestRecoverQuarantinesCorruptJournal(t *testing.T) {
	dir := t.TempDir()
	m1 := NewManager(durableConfig(dir))
	ssA, respA := mustOpen(t, m1, "direct")
	ssB, respB := mustOpen(t, m1, "onedim")
	cmdOK(t, ssA, "loop 1")
	cmdOK(t, ssA, "apply parallelize 1")
	cmdOK(t, ssB, "loop 1")
	cmdOK(t, ssB, "apply parallelize 1")
	wantB := cmdOK(t, ssB, "save")
	m1.Shutdown()

	// Flip one bit in A's first record (the open record) — intact
	// records follow, so this must read as corruption, not a torn tail.
	wal := walPath(dir, respA.ID)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	data[6] ^= 0x40
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, durableConfig(dir))
	st, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.Recovered != 1 || st.Quarantined != 1 {
		t.Fatalf("recovery stats = %+v, want 1 recovered + 1 quarantined", st)
	}

	husk := m2.Get(respA.ID)
	if husk == nil {
		t.Fatal("corrupt session not registered as a husk")
	}
	if state := husk.StateName(); state != "failed" {
		t.Errorf("husk state = %q, want failed", state)
	}
	fail := husk.Failure()
	if fail == nil || !strings.Contains(fail.Reason, "corrupt") {
		t.Errorf("husk failure = %+v, want a corruption diagnostic", fail)
	}
	if _, err := husk.Cmd(bg, "loops"); !errors.Is(err, ErrSessionFailed) {
		t.Errorf("cmd on husk: %v, want ErrSessionFailed", err)
	}

	// The neighbor is untouched.
	rsB := m2.Get(respB.ID)
	if rsB == nil {
		t.Fatal("healthy neighbor not recovered")
	}
	if got := cmdOK(t, rsB, "save"); got != wantB {
		t.Error("neighbor session source diverged")
	}

	// The status endpoint surfaces the quarantine.
	ts := httptest.NewServer(New(m2))
	defer ts.Close()
	hr, err := http.Get(ts.URL + "/v1/sessions/" + respA.ID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("husk status endpoint: %d, want 200", hr.StatusCode)
	}
	if !strings.Contains(string(body), `"state":"failed"`) || !strings.Contains(string(body), "corrupt") {
		t.Errorf("husk status body lacks quarantine diagnostics: %s", body)
	}

	// DELETE clears the husk and its wal; the next recovery sees nothing.
	if !m2.Close(respA.ID) {
		t.Fatal("closing husk failed")
	}
	if _, err := os.Stat(wal); !os.IsNotExist(err) {
		t.Errorf("husk wal still on disk after DELETE: %v", err)
	}
}

// TestJournalAppendFaultDegradesReadOnly is the fault-injection
// acceptance test: a failed journal append degrades exactly that
// session to read-only — the mutation that hit the fault reports 503,
// reads keep answering 200, the daemon and other sessions stay
// healthy, and the gauge tracks it.
func TestJournalAppendFaultDegradesReadOnly(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, durableConfig(dir))
	t.Cleanup(faultpoint.Reset)
	ssA, respA := mustOpen(t, m, "direct")
	ssB, _ := mustOpen(t, m, "onedim")
	cmdOK(t, ssA, "loop 1")

	disarm := faultpoint.Arm(faultpoint.JournalAppend,
		faultpoint.Fault{Match: respA.ID + ":", Err: errors.New("injected EIO")})
	defer disarm()

	_, err := ssA.Cmd(bg, "apply parallelize 1")
	if !errors.Is(err, ErrSessionReadOnly) {
		t.Fatalf("mutation with failing journal: %v, want ErrSessionReadOnly", err)
	}
	// Reads still serve from memory; further mutations are rejected
	// up front (journal untouched — the readonly check precedes it).
	cmdOK(t, ssA, "loops")
	cmdOK(t, ssA, "save")
	if _, err := ssA.Deps(bg, DepQuery{}); err != nil {
		t.Errorf("deps on read-only session: %v", err)
	}
	if _, err := ssA.Select(bg, SelectRequest{Loop: 1}); !errors.Is(err, ErrSessionReadOnly) {
		t.Errorf("select on read-only session: %v, want ErrSessionReadOnly", err)
	}
	if err := ssA.Undo(bg); !errors.Is(err, ErrSessionReadOnly) {
		t.Errorf("undo on read-only session: %v, want ErrSessionReadOnly", err)
	}

	// The other session mutates fine while the fault is still armed.
	cmdOK(t, ssB, "loop 1")

	info := ssA.Info(bg)
	if !info.ReadOnly {
		t.Error("Info does not report read-only")
	}
	if reason := ssA.ReadOnlyReason(); !strings.Contains(reason, "injected EIO") {
		t.Errorf("read-only reason %q does not carry the journal error", reason)
	}
	vals := promValues(t, scrape(t, m.Metrics()))
	if got := vals["pedd_sessions_readonly"]; got != 1 {
		t.Errorf("pedd_sessions_readonly = %v, want 1", got)
	}

	// Over HTTP: mutations 503, reads 200, status carries the reason.
	ts := httptest.NewServer(New(m))
	defer ts.Close()
	hr, err := http.Post(ts.URL+"/v1/sessions/"+respA.ID+"/cmd", "application/json",
		strings.NewReader(`{"line":"apply parallelize 1"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("mutating cmd on read-only session: %d, want 503", hr.StatusCode)
	}
	hr, err = http.Get(ts.URL + "/v1/sessions/" + respA.ID + "/deps")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("deps on read-only session: %d, want 200", hr.StatusCode)
	}
	hr, err = http.Get(ts.URL + "/v1/sessions/" + respA.ID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if !strings.Contains(string(body), `"read_only":true`) ||
		!strings.Contains(string(body), "injected EIO") {
		t.Errorf("status body lacks read-only diagnostics: %s", body)
	}

	// Closing the degraded session drains the gauge.
	m.Close(respA.ID)
	vals = promValues(t, scrape(t, m.Metrics()))
	if got := vals["pedd_sessions_readonly"]; got != 0 {
		t.Errorf("pedd_sessions_readonly after close = %v, want 0", got)
	}
}

// TestReplayFaultLeavesPrefixReadOnly: an injected replay fault stops
// recovery at the rebuilt prefix; the session serves reads from that
// prefix and rejects mutations.
func TestReplayFaultLeavesPrefixReadOnly(t *testing.T) {
	dir := t.TempDir()
	m1 := NewManager(durableConfig(dir))
	ss, resp := mustOpen(t, m1, "direct")
	prefix := cmdOK(t, ss, "save")
	cmdOK(t, ss, "loop 1")
	cmdOK(t, ss, "apply parallelize 1")
	m1.Shutdown()

	t.Cleanup(faultpoint.Reset)
	// Fail the replay of the apply (a cmd record), after open + select
	// already rebuilt.
	disarm := faultpoint.Arm(faultpoint.JournalReplay,
		faultpoint.Fault{Match: resp.ID + ":" + recCmd, Err: errors.New("injected replay fault")})
	defer disarm()

	m2 := newTestManager(t, durableConfig(dir))
	st, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.ReadOnly != 1 {
		t.Fatalf("recovery stats = %+v, want 1 read-only", st)
	}
	rs := m2.Get(resp.ID)
	if rs == nil {
		t.Fatal("session missing after partial replay")
	}
	if got := cmdOK(t, rs, "save"); got != prefix {
		t.Errorf("read-only session does not serve the recovered prefix")
	}
	if _, err := rs.Cmd(bg, "apply parallelize 1"); !errors.Is(err, ErrSessionReadOnly) {
		t.Errorf("mutation after partial replay: %v, want ErrSessionReadOnly", err)
	}
}

// TestSnapshotCompactionAndUndoAcrossIt: after SnapshotEvery mutations
// the journal folds to one snapshot record; recovery from the snapshot
// is byte-identical AND undo still works, because the snapshot carries
// the undo stack. The count starts at the first mutation: the `loop 1`
// before it only moves the cursor (the birth records where it stands),
// so SnapshotEvery is 1 here to compact after the one apply.
func TestSnapshotCompactionAndUndoAcrossIt(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.SnapshotEvery = 1
	m1 := NewManager(cfg)
	ss, resp := mustOpen(t, m1, "direct")
	original := cmdOK(t, ss, "save")
	cmdOK(t, ss, "loop 1")              // cursor only: no journal yet
	cmdOK(t, ss, "apply parallelize 1") // mutation 1: birth → compaction
	want := cmdOK(t, ss, "save")
	m1.Shutdown()

	res, err := readJournal(walPath(dir, resp.ID))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.records) == 0 || res.records[0].Op != recSnapshot {
		t.Fatalf("journal not compacted: first record %+v", res.records)
	}
	if len(res.records) != 1 {
		t.Fatalf("journal holds %d records after compaction, want 1", len(res.records))
	}
	if len(res.records[0].Undo) != 1 {
		t.Fatalf("snapshot undo stack depth %d, want 1", len(res.records[0].Undo))
	}

	m2 := newTestManager(t, durableConfig(dir))
	st, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.Recovered != 1 {
		t.Fatalf("recovery stats = %+v", st)
	}
	rs := m2.Get(resp.ID)
	if got := cmdOK(t, rs, "save"); got != want {
		t.Errorf("snapshot recovery not byte-identical:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	cmdOK(t, rs, "undo")
	if got := cmdOK(t, rs, "save"); got != original {
		t.Errorf("undo across a snapshot lost the pre-mutation source:\nwant %s\ngot  %s", original, got)
	}
}

// TestStickyStateBlocksCompaction: state a snapshot cannot represent
// (analysis toggles, marks, classifications) pins the full journal. The
// sticky `set` is also the session's first mutation, so it is what gives
// birth to the journal; the cursor moves after it are journaled in order.
func TestStickyStateBlocksCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.SnapshotEvery = 2
	m1 := NewManager(cfg)
	ss, resp := mustOpen(t, m1, "direct")
	cmdOK(t, ss, "set constants off") // sticky mutation 1: birth (cursor at its default, no select)
	cmdOK(t, ss, "loop 1")            // mutation 2: threshold hit, but sticky blocks
	cmdOK(t, ss, "loop 1")            // mutation 3
	m1.Shutdown()

	res, err := readJournal(walPath(dir, resp.ID))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.records) != 4 || res.records[0].Op != recOpen {
		ops := make([]string, len(res.records))
		for i, r := range res.records {
			ops[i] = r.Op
		}
		t.Fatalf("sticky journal = %v, want [open cmd cmd cmd] uncompacted", ops)
	}

	m2 := newTestManager(t, durableConfig(dir))
	if _, err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	if rs := m2.Get(resp.ID); rs == nil {
		t.Fatal("sticky session not recovered")
	} else {
		cmdOK(t, rs, "deps") // replayed `set constants off` state serves
	}
}

// TestShutdownFlushesJournals: with -fsync never nothing is synced on
// the hot path, but a clean Shutdown still drains every actor and
// syncs every journal on close — so a restart loses nothing.
func TestShutdownFlushesJournals(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.Fsync = FsyncNever
	m1 := NewManager(cfg)
	ss, resp := mustOpen(t, m1, "direct")
	cmdOK(t, ss, "loop 1")
	cmdOK(t, ss, "apply parallelize 1")
	want := cmdOK(t, ss, "save")
	m1.Shutdown()
	m1.Shutdown() // idempotent

	m2 := newTestManager(t, durableConfig(dir))
	st, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.Recovered != 1 || st.Truncated != 0 {
		t.Fatalf("recovery stats after clean shutdown = %+v, want 1 clean recovery", st)
	}
	if got := cmdOK(t, m2.Get(resp.ID), "save"); got != want {
		t.Error("clean shutdown lost a mutation under -fsync never")
	}
}

// TestCloseIsIdempotentAndScopedToDatadirLifecycle: double-close of a
// durable session is safe and only the first close reports success;
// an explicitly closed session's wal is gone, so it must NOT
// resurrect at the next recovery.
func TestCloseIsIdempotentAndRemovesWal(t *testing.T) {
	dir := t.TempDir()
	m1 := NewManager(durableConfig(dir))
	ss, resp := mustOpen(t, m1, "onedim")
	cmdOK(t, ss, "loop 1")
	if !m1.Close(resp.ID) {
		t.Fatal("first close reported failure")
	}
	if m1.Close(resp.ID) {
		t.Fatal("second close reported success")
	}
	if _, err := os.Stat(walPath(dir, resp.ID)); !os.IsNotExist(err) {
		t.Fatalf("wal survives explicit close: %v", err)
	}
	m1.Shutdown()

	m2 := newTestManager(t, durableConfig(dir))
	st, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.Recovered != 0 || st.Quarantined != 0 {
		t.Fatalf("closed session resurrected: %+v", st)
	}
}

// TestRecoverRemovesEmptyJournal: a wal that never got its open record
// durably written (crash between create and append) is deleted, not
// recovered and not quarantined.
func TestRecoverRemovesEmptyJournal(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(walPath(dir, "sdead"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, durableConfig(dir))
	st, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.Removed != 1 || st.Recovered != 0 || st.Quarantined != 0 {
		t.Fatalf("recovery stats = %+v, want 1 removed", st)
	}
	if _, err := os.Stat(walPath(dir, "sdead")); !os.IsNotExist(err) {
		t.Errorf("empty wal not deleted: %v", err)
	}
}

// TestRandomSessionIDs: IDs are no longer sequential — two managers
// (or one manager across restarts) cannot mint colliding IDs by
// counting from 1. Shape-check plus a collision sanity check.
func TestRandomSessionIDs(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8})
	seen := map[string]bool{}
	for i := 0; i < 8; i++ {
		_, resp := mustOpen(t, m, "onedim")
		if len(resp.ID) != 9 || resp.ID[0] != 's' {
			t.Fatalf("session ID %q, want s + 8 hex digits", resp.ID)
		}
		if resp.ID == "s1" || seen[resp.ID] {
			t.Fatalf("ID %q collides", resp.ID)
		}
		seen[resp.ID] = true
		m.Close(resp.ID)
	}
}

// TestRecoveredAndFreshSessionsCoexist: after recovery, new opens on
// the same manager mint IDs that cannot collide with recovered ones
// (O_EXCL on the wal is the backstop) and both kinds serve. The first
// session mutates before the restart, or there would be nothing to
// recover; the fresh one mutates too, so two wals sit side by side.
func TestRecoveredAndFreshSessionsCoexist(t *testing.T) {
	dir := t.TempDir()
	m1 := NewManager(durableConfig(dir))
	ss, resp := mustOpen(t, m1, "direct")
	cmdOK(t, ss, "loop 1")
	cmdOK(t, ss, "apply parallelize 1")
	m1.Shutdown()

	m2 := newTestManager(t, durableConfig(dir))
	if _, err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	fresh, freshResp := mustOpen(t, m2, "onedim")
	if freshResp.ID == resp.ID {
		t.Fatalf("fresh session reused recovered ID %s", resp.ID)
	}
	cmdOK(t, fresh, "loop 1")
	cmdOK(t, fresh, "apply parallelize 1")
	cmdOK(t, m2.Get(resp.ID), "loops")
	infos := m2.List(bg)
	if len(infos) != 2 || !infos[0].Journaled || !infos[1].Journaled {
		t.Fatalf("listing = %+v, want 2 journaled sessions", infos)
	}
}

// TestStatementInterchangeReachesEveryDoor: the catalog row that gave
// xform.StmtInterchange a name makes it reachable the way every other
// transformation is — a cmd line (what `ped -remote` sends), the typed
// transform endpoint, a plan step replayed by apply-plan — and each
// application is a journal record that replays onto the same source.
func TestStatementInterchangeReachesEveryDoor(t *testing.T) {
	dir := t.TempDir()
	m1 := NewManager(durableConfig(dir))
	ss, resp := mustOpen(t, m1, "direct")
	before := cmdOK(t, ss, "save")
	// direct's statements 5 and 6 initialise x(i) and y(i): independent.
	if out := cmdOK(t, ss, "apply statement-interchange 5 6"); !strings.HasPrefix(out, "applied statement-interchange: ") {
		t.Fatalf("cmd line: %q", out)
	}
	swapped := cmdOK(t, ss, "save")
	if swapped == before {
		t.Fatal("the interchange did not change the printed source")
	}
	tr, err := ss.Transform(bg, TransformRequest{Name: "statement-interchange", Args: []string{"5", "6"}})
	if err != nil || tr.Err != "" {
		t.Fatalf("typed transform: %+v, %v", tr, err)
	}
	if got := cmdOK(t, ss, "save"); got != before {
		t.Fatal("interchanging twice did not restore the source")
	}
	if _, err := ss.ApplyPlan(bg, ApplyPlanRequest{Plan: &planner.Plan{ID: "byvalue",
		Steps: []planner.Step{{Line: "apply statement-interchange 5 6"}}}}); err != nil {
		t.Fatalf("plan step: %v", err)
	}
	if got := cmdOK(t, ss, "save"); got != swapped {
		t.Fatal("the plan step did not interchange the statements")
	}
	if tr, err := ss.Transform(bg, TransformRequest{Name: "statement-interchange", Args: []string{"5"}}); err != nil || tr.Err != "missing statement id" {
		t.Fatalf("one statement id: %+v, %v", tr, err)
	}
	m1.Shutdown()

	m2 := newTestManager(t, durableConfig(dir))
	if st, err := m2.Recover(); err != nil || st.Recovered != 1 || st.ReadOnly != 0 {
		t.Fatalf("recover: %+v, %v", st, err)
	}
	if got := cmdOK(t, m2.Get(resp.ID), "save"); got != swapped {
		t.Errorf("the journal replayed onto another source:\n--- want ---\n%s\n--- got ---\n%s", swapped, got)
	}
}
