package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"parascope/internal/faultpoint"
	"parascope/internal/httpedge"
)

// migratePair is two daemons wired for migration tests: source and
// target, each a real Manager behind a real HTTP server.
type migratePair struct {
	srcMgr, dstMgr *Manager
	src, dst       *httptest.Server
	srcDir, dstDir string
}

func newMigratePair(t *testing.T, durable bool) *migratePair {
	t.Helper()
	p := &migratePair{}
	mk := func(dir string) *Manager {
		cfg := Config{CacheSize: 8}
		if durable {
			cfg.DataDir = dir
			cfg.Fsync = FsyncAlways
		}
		m := NewManager(cfg)
		t.Cleanup(m.Shutdown)
		return m
	}
	p.srcDir, p.dstDir = t.TempDir(), t.TempDir()
	p.srcMgr, p.dstMgr = mk(p.srcDir), mk(p.dstDir)
	p.src = httptest.NewServer(New(p.srcMgr))
	p.dst = httptest.NewServer(New(p.dstMgr))
	t.Cleanup(p.src.Close)
	t.Cleanup(p.dst.Close)
	return p
}

// TestMigrateRoundTrip pins the whole zero-loss protocol: a mutated
// session moves between nodes and every acknowledged mutation arrives
// byte-identically; the source keeps a tombstone that answers 421 with
// a Location, and a redirect-following client rides the move without
// ever seeing it.
func TestMigrateRoundTrip(t *testing.T) {
	for _, durable := range []bool{true, false} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			p := newMigratePair(t, durable)
			cl := NewClient(p.src.URL)
			open, err := cl.Open(bg, OpenRequest{Workload: "direct"})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			id := open.ID
			if _, err := cl.Cmd(bg, id, "loop 1"); err != nil {
				t.Fatalf("loop: %v", err)
			}
			if _, err := cl.Cmd(bg, id, "apply parallelize 1"); err != nil {
				t.Fatalf("parallelize: %v", err)
			}
			want, err := cl.Cmd(bg, id, "save")
			if err != nil {
				t.Fatalf("save: %v", err)
			}
			if !strings.Contains(want.Output, "doall") {
				t.Fatalf("parallelize left no annotation:\n%s", want.Output)
			}

			mresp, err := cl.Migrate(bg, id, p.dst.URL)
			if err != nil {
				t.Fatalf("migrate: %v", err)
			}
			if mresp.ID != id || mresp.Bytes <= 0 {
				t.Fatalf("migrate response: %+v", mresp)
			}

			// The target owns it now, byte for byte, and stays mutable.
			dcl := NewClient(p.dst.URL)
			got, err := dcl.Cmd(bg, id, "save")
			if err != nil {
				t.Fatalf("save on target: %v", err)
			}
			if got.Output != want.Output {
				t.Fatalf("migrated source differs:\nwant %s\ngot  %s", want.Output, got.Output)
			}
			if _, err := dcl.Cmd(bg, id, "undo"); err != nil {
				t.Errorf("migrated session not mutable: %v", err)
			}

			// The source answers 421 + Location for the old ID. Use a raw
			// request — the resilient client would follow the redirect.
			resp, err := http.Get(p.src.URL + "/v1/sessions/" + id)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMisdirectedRequest {
				t.Fatalf("source after migration: %d, want 421", resp.StatusCode)
			}
			wantLoc := p.dst.URL + "/v1/sessions/" + id
			if loc := resp.Header.Get("Location"); loc != wantLoc {
				t.Fatalf("Location %q, want %q", loc, wantLoc)
			}

			// A client still pointed at the source follows the move.
			st, err := cl.Status(bg, id)
			if err != nil {
				t.Fatalf("client did not follow the migration redirect: %v", err)
			}
			if st.ID != id {
				t.Fatalf("followed status: %+v", st)
			}

			if durable {
				// The shipped journal left the source's disk; the
				// tombstone is durable instead.
				if _, err := os.Stat(filepath.Join(p.srcDir, id+".wal")); !errors.Is(err, os.ErrNotExist) {
					t.Errorf("source wal still on disk after migration: %v", err)
				}
				if _, err := os.Stat(filepath.Join(p.srcDir, id+".moved")); err != nil {
					t.Errorf("no durable tombstone: %v", err)
				}
			}
		})
	}
}

// TestMigrateFrozenSessionRejectsMutations: while a session is frozen
// mid-migration, mutating requests answer 503 ErrSessionMigrating —
// never silently drop — and the freeze lifts if migration fails.
func TestMigrateFrozenSessionRejectsMutations(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8})
	ss, resp := mustOpen(t, m, "direct")
	if !ss.freeze() {
		t.Fatal("freeze refused on an idle session")
	}
	if _, err := ss.Cmd(bg, "loop 1"); !errors.Is(err, ErrSessionMigrating) {
		t.Fatalf("mutation on frozen session: %v, want ErrSessionMigrating", err)
	}
	// Reads still serve on a frozen session.
	if got := ss.Info(bg).ID; got != resp.ID {
		t.Fatalf("Info on frozen session: %q, want %q", got, resp.ID)
	}
	// A second migration cannot start while one is in flight.
	if _, err := m.Migrate(bg, ss, "http://nowhere.invalid"); !errors.Is(err, ErrSessionMigrating) {
		t.Fatalf("concurrent migrate: %v, want ErrSessionMigrating", err)
	}
	ss.unfreeze()
	if _, err := ss.Cmd(bg, "loop 1"); err != nil {
		t.Fatalf("mutation after unfreeze: %v", err)
	}
}

// TestImportRejectionMatrix: the import endpoint must reject torn,
// corrupt, empty, and hostile-ID streams whole — unlike startup
// recovery it never truncates-and-accepts, because the source is still
// alive and authoritative — and a duplicate ID is a 409.
func TestImportRejectionMatrix(t *testing.T) {
	p := newMigratePair(t, true)
	cl := NewClient(p.src.URL)
	open, err := cl.Open(bg, OpenRequest{Workload: "direct"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Cmd(bg, open.ID, "loop 1"); err != nil {
		t.Fatal(err)
	}
	stream, err := cl.ExportJournal(bg, open.ID)
	if err != nil {
		t.Fatal(err)
	}

	dcl := NewClient(p.dst.URL)
	corrupt := append([]byte(nil), stream...)
	corrupt[6] ^= 0x40
	cases := []struct {
		name    string
		id      string
		stream  []byte
		wantMsg string
	}{
		{"torn", "imp-torn", stream[:len(stream)-1], "torn"},
		{"empty", "imp-empty", nil, "empty"},
		{"corrupt", "imp-corrupt", corrupt, "corrupt"},
		{"bad id", "../evil", stream, "session ID"},
	}
	for _, c := range cases {
		_, err := dcl.Import(bg, c.id, c.stream)
		if err == nil {
			t.Errorf("%s: import accepted, want rejection", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantMsg) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantMsg)
		}
		if p.dstMgr.Get(c.id) != nil {
			t.Errorf("%s: rejected import still registered a session", c.name)
		}
	}
	if got := p.dstMgr.Metrics().ImportsRejected.Value(); got < 3 {
		t.Errorf("ImportsRejected = %d, want >= 3", got)
	}

	// A valid stream under an ID that's already live is a 409.
	if _, err := dcl.Import(bg, open.ID, stream); err != nil {
		t.Fatalf("first import: %v", err)
	}
	_, err = dcl.Import(bg, open.ID, stream)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
		t.Fatalf("duplicate import: %v, want 409", err)
	}
}

// TestMigrateTornStreamChaos arms the migrate-stream faultpoint so the
// outbound stream tears one byte short mid-ship: the target must
// reject the whole stream, and the source must stay authoritative and
// mutable — the all-or-nothing property under real fault injection.
func TestMigrateTornStreamChaos(t *testing.T) {
	disarm := faultpoint.Arm(faultpoint.MigrateStream, faultpoint.Fault{Err: errors.New("injected tear")})
	defer disarm()

	p := newMigratePair(t, true)
	cl := NewClient(p.src.URL)
	open, err := cl.Open(bg, OpenRequest{Workload: "direct"})
	if err != nil {
		t.Fatal(err)
	}
	id := open.ID
	if _, err := cl.Cmd(bg, id, "loop 1"); err != nil {
		t.Fatal(err)
	}
	want, err := cl.Cmd(bg, id, "save")
	if err != nil {
		t.Fatal(err)
	}

	if _, err := cl.Migrate(bg, id, p.dst.URL); err == nil {
		t.Fatal("migration of a torn stream succeeded; target accepted partial state")
	}
	if faultpoint.Fired(faultpoint.MigrateStream) == 0 {
		t.Fatal("fault never fired; the chaos test tested nothing")
	}

	// Target adopted nothing.
	if p.dstMgr.Get(id) != nil {
		t.Error("target registered a session from a torn stream")
	}
	// Source is authoritative: same bytes, still mutable, no tombstone.
	got, err := cl.Cmd(bg, id, "save")
	if err != nil {
		t.Fatalf("source unusable after failed migration: %v", err)
	}
	if got.Output != want.Output {
		t.Errorf("source mutated by failed migration:\nwant %s\ngot  %s", want.Output, got.Output)
	}
	if _, moved := p.srcMgr.MovedTo(id); moved {
		t.Error("failed migration left a tombstone")
	}
	if _, err := cl.Cmd(bg, id, "apply parallelize 1"); err != nil {
		t.Errorf("source not mutable after failed migration: %v", err)
	}
	if got := p.srcMgr.Metrics().MigrationsFailed.Value(); got == 0 {
		t.Error("MigrationsFailed not incremented")
	}

	// Disarmed, the same migration succeeds.
	disarm()
	if _, err := cl.Migrate(bg, id, p.dst.URL); err != nil {
		t.Fatalf("migration after disarm: %v", err)
	}
}

// TestTombstoneSurvivesRestart: a durable tombstone must keep
// answering 421 after the source node restarts, and a stale journal
// shadowed by a tombstone must be removed, not resurrected as a fork.
func TestTombstoneSurvivesRestart(t *testing.T) {
	p := newMigratePair(t, true)
	cl := NewClient(p.src.URL)
	open, err := cl.Open(bg, OpenRequest{Workload: "direct"})
	if err != nil {
		t.Fatal(err)
	}
	id := open.ID
	if _, err := cl.Cmd(bg, id, "loop 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Migrate(bg, id, p.dst.URL); err != nil {
		t.Fatal(err)
	}

	// Plant a stale wal under the tombstoned ID, as if a crash had
	// raced the migration's journal removal.
	stale := filepath.Join(p.srcDir, id+".wal")
	if err := os.WriteFile(stale, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh manager over the same datadir.
	m2 := NewManager(Config{CacheSize: 8, DataDir: p.srcDir, Fsync: FsyncAlways})
	t.Cleanup(m2.Shutdown)
	st, err := m2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if st.Moved != 1 {
		t.Errorf("recovery stats: %+v, want Moved 1", st)
	}
	target, ok := m2.MovedTo(id)
	if !ok || target != p.dst.URL {
		t.Errorf("tombstone lost across restart: %q %v", target, ok)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale wal behind tombstone not removed: %v", err)
	}

	// DELETE clears the tombstone; the ID is then simply unknown.
	if !m2.Close(id) {
		t.Fatal("Close on a tombstoned ID returned false")
	}
	if _, ok := m2.MovedTo(id); ok {
		t.Error("tombstone survived DELETE")
	}
}

// TestOpenWithExplicitID: the gateway mints IDs and passes them via
// OpenRequest.ID; the daemon must honor them, 409 duplicates, and
// refuse filesystem-hostile IDs.
func TestOpenWithExplicitID(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8})
	ts := httptest.NewServer(New(m))
	defer ts.Close()
	cl := NewClient(ts.URL)

	open, err := cl.Open(bg, OpenRequest{Workload: "direct", ID: "gw-minted-1"})
	if err != nil {
		t.Fatal(err)
	}
	if open.ID != "gw-minted-1" {
		t.Fatalf("explicit ID not honored: %q", open.ID)
	}

	_, err = cl.Open(bg, OpenRequest{Workload: "direct", ID: "gw-minted-1"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
		t.Fatalf("duplicate explicit ID: %v, want 409", err)
	}

	for _, bad := range []string{"../evil", "a b", "x/y", strings.Repeat("z", 65)} {
		if _, err := cl.Open(bg, OpenRequest{Workload: "direct", ID: bad}); err == nil {
			t.Errorf("hostile ID %q accepted", bad)
		}
	}
}

// TestClientRedirectLoopAndHopBound: stale tombstones pointing at each
// other must yield a clear loop error; a chain longer than the hop
// bound must give up with a clear error; and the request ID must stay
// constant across hops so the journey correlates in every node's log.
func TestClientRedirectLoopAndHopBound(t *testing.T) {
	var mu sync.Mutex
	reqIDs := map[string]bool{}
	mkRedirect := func(loc *string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			reqIDs[r.Header.Get("X-Request-ID")] = true
			mu.Unlock()
			w.Header().Set("Location", *loc+r.URL.RequestURI())
			w.WriteHeader(http.StatusMisdirectedRequest)
		}))
	}

	// Two nodes 421-ing at each other: loop error.
	var locA, locB string
	a := mkRedirect(&locB)
	b := mkRedirect(&locA)
	defer a.Close()
	defer b.Close()
	locA, locB = a.URL, b.URL

	cl := NewClient(a.URL)
	_, err := cl.Status(bg, "looped")
	if err == nil || !strings.Contains(err.Error(), "loop") {
		t.Fatalf("redirect loop: %v, want loop error", err)
	}
	mu.Lock()
	if len(reqIDs) != 1 {
		t.Errorf("request ID changed across hops: %d distinct IDs", len(reqIDs))
	}
	reqIDs = map[string]bool{}
	mu.Unlock()

	// A chain of distinct nodes longer than the hop budget: give up.
	next := ""
	var chain []*httptest.Server
	for i := 0; i < maxRedirectHops+2; i++ {
		loc := next
		s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Location", loc+r.URL.RequestURI())
			w.WriteHeader(http.StatusMisdirectedRequest)
		}))
		defer s.Close()
		chain = append(chain, s)
		next = s.URL
	}
	cl = NewClient(chain[len(chain)-1].URL)
	_, err = cl.Status(bg, "deep")
	if err == nil || !strings.Contains(err.Error(), "gave up") {
		t.Fatalf("redirect chain: %v, want gave-up error", err)
	}
}

// TestClientFollows307: a 307 + Location (proxy handoff) is followed
// like a 421, preserving method and body.
func TestClientFollows307(t *testing.T) {
	var gotBody string
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		gotBody = string(b)
		httpedge.WriteJSON(w, http.StatusOK, CmdResponse{Output: "ok"})
	}))
	defer backend.Close()
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Location", backend.URL+r.URL.RequestURI())
		w.WriteHeader(http.StatusTemporaryRedirect)
	}))
	defer front.Close()

	cl := NewClient(front.URL)
	resp, err := cl.Cmd(bg, "s1", "loops")
	if err != nil {
		t.Fatalf("307 follow: %v", err)
	}
	if resp.Output != "ok" {
		t.Fatalf("307 follow response: %+v", resp)
	}
	if !strings.Contains(gotBody, "loops") {
		t.Errorf("method/body not preserved across 307: %q", gotBody)
	}
}

// TestCleanJournalStream: the gateway's failover pre-clean truncates a
// torn tail (unacknowledged work) but refuses corruption outright. The
// session mutates first: a wal exists only from the first mutation on,
// and the torn stream must still hold a complete record before the tear
// (an unmutated session exports as one snapshot record).
func TestCleanJournalStream(t *testing.T) {
	p := newMigratePair(t, true)
	cl := NewClient(p.src.URL)
	open, err := cl.Open(bg, OpenRequest{Workload: "direct"})
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"loop 1", "apply parallelize 1"} {
		if _, err := cl.Cmd(bg, open.ID, line); err != nil {
			t.Fatal(err)
		}
	}
	stream, err := cl.ExportJournal(bg, open.ID)
	if err != nil {
		t.Fatal(err)
	}

	clean, err := CleanJournalStream(stream)
	if err != nil || len(clean) != len(stream) {
		t.Fatalf("clean stream mangled: %d -> %d, %v", len(stream), len(clean), err)
	}
	torn, err := CleanJournalStream(stream[:len(stream)-1])
	if err != nil {
		t.Fatalf("torn tail not truncated: %v", err)
	}
	if len(torn) >= len(stream) {
		t.Fatalf("torn clean did not shrink: %d", len(torn))
	}
	// The cleaned torn stream is importable.
	dcl := NewClient(p.dst.URL)
	if _, err := dcl.Import(bg, "cleaned", torn); err != nil {
		t.Fatalf("cleaned stream rejected: %v", err)
	}

	corrupt := append([]byte(nil), stream...)
	corrupt[6] ^= 0x40
	if _, err := CleanJournalStream(corrupt); err == nil {
		t.Fatal("mid-stream corruption not refused")
	}
	if _, err := CleanJournalStream(nil); err == nil {
		t.Fatal("empty stream not refused")
	}
}
