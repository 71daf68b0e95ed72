package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// bg is the no-deadline context used by tests that exercise the
// session API directly.
var bg = context.Background()

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m := NewManager(cfg)
	t.Cleanup(m.Shutdown)
	return m
}

func mustOpen(t *testing.T, m *Manager, workload string) (*Session, OpenResponse) {
	t.Helper()
	ss, resp, err := m.Open(bg, OpenRequest{Workload: workload})
	if err != nil {
		t.Fatalf("open %s: %v", workload, err)
	}
	return ss, resp
}

func mustCmd(t *testing.T, ss *Session, line string) string {
	t.Helper()
	resp, err := ss.Cmd(bg, line)
	if err != nil {
		t.Fatalf("cmd %q: %v", line, err)
	}
	if resp.Err != "" {
		t.Fatalf("cmd %q failed: %s", line, resp.Err)
	}
	return resp.Output
}

func TestOpenAndCacheHit(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8})
	_, r1 := mustOpen(t, m, "arc3d")
	if r1.Cached {
		t.Fatal("first open should be a cache miss")
	}
	_, r2 := mustOpen(t, m, "arc3d")
	if !r2.Cached {
		t.Fatal("second open of identical source should hit the cache")
	}
	if !reflect.DeepEqual(r1.Units, r2.Units) {
		t.Fatalf("unit lists differ: %v vs %v", r1.Units, r2.Units)
	}
	st := m.CacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
}

// TestCacheHitByteIdentical is the cache-correctness check: every
// read-only command served from hash-hit artifacts must produce
// byte-identical output to a cold (freshly analyzed) session.
func TestCacheHitByteIdentical(t *testing.T) {
	script := []string{
		"units", "loops", "loop 1", "deps", "vars", "loop 2", "deps",
		"vars", "perf", "save", "help", "legend",
	}
	for _, workload := range []string{"arc3d", "spec77", "direct"} {
		cold := newTestManager(t, Config{}) // cache disabled: always cold
		warmMgr := newTestManager(t, Config{CacheSize: 8})
		_, prime := mustOpen(t, warmMgr, workload)
		coldSess, _ := mustOpen(t, cold, workload)
		warmSess, warmResp := mustOpen(t, warmMgr, workload)
		if !warmResp.Cached {
			t.Fatalf("%s: second open should be cached", workload)
		}
		if warmSess.Info(bg).Live {
			t.Fatalf("%s: cache-hit session should be artifact-backed", workload)
		}
		for _, line := range script {
			coldOut := mustCmd(t, coldSess, line)
			warmOut := mustCmd(t, warmSess, line)
			if coldOut != warmOut {
				t.Fatalf("%s: %q differs between cold and hash-hit session:\ncold:\n%s\nwarm:\n%s",
					workload, line, coldOut, warmOut)
			}
		}
		// Typed dependence listings must agree too, per filter.
		for _, q := range []DepQuery{
			{}, {Carried: true}, {HidePrivate: true},
			{Classes: []string{"true", "anti"}}, {Carried: true, HidePrivate: true},
		} {
			cd, err := coldSess.Deps(bg, q)
			if err != nil {
				t.Fatal(err)
			}
			wd, err := warmSess.Deps(bg, q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cd, wd) {
				t.Fatalf("%s: deps %+v differ:\ncold: %+v\nwarm: %+v", workload, q, cd, wd)
			}
		}
		// Every loop's summary and the pane under every filter `deps`
		// takes come from the same rows, so they match without the
		// warm session materializing.
		loops := strings.Count(mustCmd(t, coldSess, "loops"), "\n")
		for n := 1; n <= loops; n++ {
			lines := []string{fmt.Sprintf("loop %d", n), "deps carried", "deps hideprivate",
				"deps hiderejected carried", "deps true anti"}
			for i, line := range lines {
				coldOut := mustCmd(t, coldSess, line)
				warmOut := mustCmd(t, warmSess, line)
				if coldOut != warmOut {
					t.Fatalf("%s: %q differs between cold and hash-hit session:\ncold:\n%s\nwarm:\n%s",
						workload, line, coldOut, warmOut)
				}
				if i == 0 {
					all, err := coldSess.Deps(bg, DepQuery{})
					if err != nil {
						t.Fatal(err)
					}
					sym := "i"
					if len(all.Deps) > 0 {
						sym = strings.ToUpper(all.Deps[len(all.Deps)-1].Sym)
					}
					lines = append(lines, "deps on "+sym)
				}
			}
		}
		if warmSess.Info(bg).Live {
			t.Fatalf("%s: a read materialized the hash-hit session", workload)
		}
		_ = prime
	}
}

const tinySrc = `
      program tiny
      integer i, n
      parameter (n = 10)
      real a(10)
      do i = 1, n
         a(i) = a(i) + 1.0
      enddo
      end
`

// TestMaterializeOnMutation checks the artifact→live promotion: a
// cache-hit session answers reads from artifacts, then transparently
// builds a real core.Session at the first read the artifacts do not
// hold, keeping the selection it had; a mutation then marks it mutated.
func TestMaterializeOnMutation(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8})
	if _, _, err := m.Open(bg, OpenRequest{Path: "tiny.f", Source: tinySrc}); err != nil {
		t.Fatal(err)
	}
	ss, resp, err := m.Open(bg, OpenRequest{Path: "tiny.f", Source: tinySrc})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Fatal("expected cache hit")
	}
	mustCmd(t, ss, "loop 1")
	warmDeps := mustCmd(t, ss, "deps")
	if ss.Info(bg).Live {
		t.Fatal("reads must not materialize")
	}
	// The source pane is a read the artifacts do not hold.
	mustCmd(t, ss, "source")
	if !ss.Info(bg).Live {
		t.Fatal("source should have materialized")
	}
	// Selection survived, and the default pane still matches.
	liveDeps := mustCmd(t, ss, "deps")
	if liveDeps != warmDeps {
		t.Fatalf("deps changed across materialization:\nwarm:\n%s\nlive:\n%s", warmDeps, liveDeps)
	}
	if ss.Info(bg).Mutated {
		t.Fatal("no mutation applied yet")
	}
	out, err := ss.Cmd(bg, "classify a private")
	if err != nil || out.Err != "" {
		t.Fatalf("classify: %v %s", err, out.Err)
	}
	if !ss.Info(bg).Mutated {
		t.Fatal("classify should mark the session mutated")
	}
}

func TestUndoOnFreshSessionFailsLikeCold(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8})
	mustOpen(t, m, "onedim")
	ss, resp := mustOpen(t, m, "onedim")
	if !resp.Cached {
		t.Fatal("expected cache hit")
	}
	if err := ss.Undo(bg); err == nil || !strings.Contains(err.Error(), "nothing to undo") {
		t.Fatalf("undo on fresh session: got %v, want nothing-to-undo", err)
	}
}

func TestSelectAndDepsTyped(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8})
	ss, _ := mustOpen(t, m, "arc3d")
	sel, err := ss.Select(bg, SelectRequest{Loop: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Loop != 1 || sel.Summary == "" {
		t.Fatalf("select = %+v", sel)
	}
	deps, err := ss.Deps(bg, DepQuery{})
	if err != nil {
		t.Fatal(err)
	}
	all := len(deps.Deps)
	carried, err := ss.Deps(bg, DepQuery{Carried: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(carried.Deps) > all {
		t.Fatalf("carried filter grew the list: %d > %d", len(carried.Deps), all)
	}
	if _, err := ss.Select(bg, SelectRequest{Loop: 99}); err == nil {
		t.Fatal("out-of-range loop should fail")
	}
	if _, err := ss.Select(bg, SelectRequest{Unit: "nosuch"}); err == nil {
		t.Fatal("unknown unit should fail")
	}
}

func TestTransformAndEditFlow(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8})
	mustOpen(t, m, "onedim")
	ss, resp := mustOpen(t, m, "onedim")
	if !resp.Cached {
		t.Fatal("expected cache hit")
	}
	check, err := ss.Transform(bg, TransformRequest{Name: "parallelize", Args: []string{"1"}, CheckOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if check.Err != "" {
		t.Fatalf("check: %s", check.Err)
	}
	if !strings.Contains(check.Output, "parallelize") {
		t.Fatalf("check output %q", check.Output)
	}
	before := mustCmd(t, ss, "save")
	out, err := ss.Cmd(bg, "auto")
	if err != nil || out.Err != "" {
		t.Fatalf("auto: %v %s", err, out.Err)
	}
	after := mustCmd(t, ss, "save")
	if before == after && !strings.Contains(out.Output, "parallelized 0") {
		t.Fatal("auto reported parallelization but source unchanged")
	}
	if err := ss.Undo(bg); err != nil {
		t.Fatalf("undo: %v", err)
	}
}

func TestTTLEviction(t *testing.T) {
	m := newTestManager(t, Config{TTL: 30 * time.Millisecond, SweepEvery: time.Hour, CacheSize: 8})
	ss, resp := mustOpen(t, m, "onedim")
	if n := m.Sweep(); n != 0 {
		t.Fatalf("fresh session swept: %d", n)
	}
	time.Sleep(60 * time.Millisecond)
	if n := m.Sweep(); n != 1 {
		t.Fatalf("sweep evicted %d sessions, want 1", n)
	}
	if m.Get(resp.ID) != nil {
		t.Fatal("evicted session still resolvable")
	}
	if _, err := ss.Cmd(bg, "loops"); err != ErrSessionClosed {
		t.Fatalf("cmd on evicted session: %v, want ErrSessionClosed", err)
	}
}

func TestHTTPRoundTrip(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8})
	ts := httptest.NewServer(New(m))
	defer ts.Close()
	c := NewClient(ts.URL)

	open, err := c.Open(bg, OpenRequest{Workload: "arc3d"})
	if err != nil {
		t.Fatal(err)
	}
	if len(open.Units) != 2 {
		t.Fatalf("units = %v", open.Units)
	}
	if _, err := c.Open(bg, OpenRequest{Workload: "nosuch"}); err == nil {
		t.Fatal("unknown workload should fail")
	}

	sel, err := c.Select(bg, open.ID, SelectRequest{Loop: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Loop != 2 {
		t.Fatalf("select = %+v", sel)
	}
	deps, err := c.Deps(bg, open.ID, DepQuery{Carried: true})
	if err != nil {
		t.Fatal(err)
	}
	if deps.Loop != 2 {
		t.Fatalf("deps loop = %d", deps.Loop)
	}
	resp, err := c.Cmd(bg, open.ID, "vars")
	if err != nil || resp.Err != "" {
		t.Fatalf("vars: %v %s", err, resp.Err)
	}
	if !strings.Contains(resp.Output, "variables") {
		t.Fatalf("vars output %q", resp.Output)
	}
	if err := c.Classify(bg, open.ID, ClassifyRequest{Var: "nosuchvar", Class: "private"}); err == nil {
		t.Fatal("classify of unknown variable should fail")
	}
	tr, err := c.Transform(bg, open.ID, TransformRequest{Name: "parallelize", Args: []string{"2"}, CheckOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Output == "" && tr.Err == "" {
		t.Fatal("transform produced nothing")
	}
	if err := c.Edit(bg, open.ID, EditRequest{Stmt: 999999, Text: "x = 1"}); err == nil {
		t.Fatal("edit of unknown statement should fail")
	}

	list, err := c.List(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != open.ID {
		t.Fatalf("list = %+v", list)
	}
	st, err := c.CacheStats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 1 {
		t.Fatalf("cache stats = %+v", st)
	}
	if err := c.CloseSession(bg, open.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseSession(bg, open.ID); err == nil {
		t.Fatal("double close should 404")
	}
	if _, err := c.Cmd(bg, open.ID, "loops"); err == nil {
		t.Fatal("cmd on closed session should fail")
	}
}

func TestOpenRawSource(t *testing.T) {
	m := newTestManager(t, Config{CacheSize: 8})
	ss, resp, err := m.Open(bg, OpenRequest{Path: "tiny.f", Source: tinySrc})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("first open cached?")
	}
	out := mustCmd(t, ss, "loops")
	if !strings.Contains(out, "do ") {
		t.Fatalf("loops = %q", out)
	}
	if _, _, err := m.Open(bg, OpenRequest{Path: "bad.f", Source: "this is not fortran"}); err == nil {
		t.Fatal("parse error should fail the open")
	}
	if _, _, err := m.Open(bg, OpenRequest{}); err == nil {
		t.Fatal("empty open should fail")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(2, NewMetrics())
	for _, k := range []string{"a", "b", "c"} {
		c.Put(&Artifacts{Key: k})
	}
	if c.Get("a") != nil {
		t.Fatal("oldest entry should have been evicted")
	}
	if c.Get("b") == nil || c.Get("c") == nil {
		t.Fatal("recent entries missing")
	}
	// c is now most recent; inserting d evicts b.
	c.Put(&Artifacts{Key: "d"})
	if c.Get("b") != nil {
		t.Fatal("LRU order not respected")
	}
	if c.Get("c") == nil || c.Get("d") == nil {
		t.Fatal("recent entries missing after eviction")
	}
}
