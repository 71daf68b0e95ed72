package server

import (
	"fmt"
	"os"
	"testing"
)

// TestMarkRecordReplaysByKey: a mark line is journaled as a mark record
// naming its edge by key, and replay finds the edge by that key whatever
// number the edge has when the graph is rebuilt. A cmd record holding a
// mark line, as journals written before mark records existed have,
// still replays by number.
func TestMarkRecordReplaysByKey(t *testing.T) {
	// recovered returns the pane of arc3d's loop 2 in the session dir recovers.
	recovered := func(t *testing.T, dir, id string) []DepInfo {
		t.Helper()
		m := newTestManager(t, durableConfig(dir))
		st, err := m.Recover()
		if err != nil || st.Recovered != 1 || st.Quarantined != 0 {
			t.Fatalf("recover: %+v, %v", st, err)
		}
		rs := m.Get(id)
		if rs == nil {
			t.Fatalf("session %s not recovered", id)
		}
		resp, err := rs.Deps(bg, DepQuery{})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Unit != "arc3d" || resp.Loop != 2 {
			t.Fatalf("recovered cursor %s loop %d, want arc3d loop 2", resp.Unit, resp.Loop)
		}
		return resp.Deps
	}
	rejected := func(rows []DepInfo) []DepInfo {
		var out []DepInfo
		for _, r := range rows {
			if r.Mark == "rejected" {
				out = append(out, r)
			}
		}
		return out
	}
	// handWritten makes a journal of arc3d opened, loop 2 selected and
	// then rec, the way a daemon would have written it.
	handWritten := func(t *testing.T, rec *record) (dir, id string) {
		t.Helper()
		dir = t.TempDir()
		m := newTestManager(t, durableConfig(dir))
		ss, resp := mustOpen(t, m, "arc3d")
		browse(t, ss, "arc3d", 2)
		mustCmd(t, ss, "set ranges on") // the first mutation gives the session its journal
		m.Shutdown()
		res, err := readJournal(walPath(dir, resp.ID))
		if err != nil || len(res.records) != 3 || res.records[0].Op != recOpen || res.records[1].Op != recSelect {
			t.Fatalf("birth journal: %d records, %v", len(res.records), err)
		}
		if err := os.Remove(walPath(dir, resp.ID)); err != nil {
			t.Fatal(err)
		}
		j, err := createJournal(dir, resp.ID, FsyncNever, NewMetrics())
		if err != nil {
			t.Fatal(err)
		}
		open, sel := res.records[0], res.records[1]
		open.Seq, sel.Seq = 0, 0
		if err := j.append(&open, &sel, rec); err != nil {
			t.Fatal(err)
		}
		if err := j.close(); err != nil {
			t.Fatal(err)
		}
		return dir, resp.ID
	}

	t.Run("live mark journals its key", func(t *testing.T) {
		dir := t.TempDir()
		m := NewManager(durableConfig(dir))
		ss, resp := mustOpen(t, m, "arc3d")
		browse(t, ss, "arc3d", 2)
		pane, err := ss.Deps(bg, DepQuery{})
		if err != nil || len(pane.Deps) < 2 {
			t.Fatalf("pane of loop 2: %d rows, %v", len(pane.Deps), err)
		}
		row := pane.Deps[1]
		mustCmd(t, ss, fmt.Sprintf("mark %d reject", row.ID))
		want, err := ss.Deps(bg, DepQuery{})
		if err != nil {
			t.Fatal(err)
		}
		m.Shutdown()
		res, err := readJournal(walPath(dir, resp.ID))
		if err != nil {
			t.Fatal(err)
		}
		last := res.records[len(res.records)-1]
		if last.Op != recMark || last.Unit != "arc3d" || last.Class != row.Class || last.Sym != row.Sym ||
			last.Level != row.Level || last.Src != row.SrcStmt || last.Dst != row.DstStmt || last.Mark != "rejected" {
			t.Fatalf("journaled %+v for a mark of %+v", last, row)
		}
		got := recovered(t, dir, resp.ID)
		if fmt.Sprint(got) != fmt.Sprint(want.Deps) {
			t.Errorf("recovered pane differs:\nwant %+v\ngot  %+v", want.Deps, got)
		}
	})

	t.Run("twin edges keep their places", func(t *testing.T) {
		// Two true dependences on a from s2 to s2 at level 1, distances
		// 1 and 2: one key, told apart by their order.
		dir := t.TempDir()
		m := NewManager(durableConfig(dir))
		ss, resp, err := m.Open(bg, OpenRequest{Path: "tw.f", Source: `      program tw
      integer i
      real a(100)
      do i = 3, 100
         a(i) = a(i-1) + a(i-2)
      enddo
      print *, a(100)
      end
`})
		if err != nil {
			t.Fatal(err)
		}
		mustCmd(t, ss, "loop 1")
		mustCmd(t, ss, "mark 2 accept")
		m.Shutdown()
		m2 := newTestManager(t, durableConfig(dir))
		if _, err := m2.Recover(); err != nil {
			t.Fatal(err)
		}
		pane, err := m2.Get(resp.ID).Deps(bg, DepQuery{})
		if err != nil {
			t.Fatal(err)
		}
		if len(pane.Deps) != 2 || pane.Deps[0].Mark != "proven" || pane.Deps[1].Mark != "accepted" {
			t.Errorf("recovered pane %+v, want row 1 proven and row 2 accepted", pane.Deps)
		}
	})

	t.Run("mark record lands on its edge under a new number", func(t *testing.T) {
		// Written when arc3d's graph also held the edges between
		// statements with no common loop, and this edge was number 30.
		dir, id := handWritten(t, &record{Op: recMark, Unit: "arc3d", Class: "anti", Sym: "q",
			Level: 1, Src: 5, Dst: 5, Mark: "rejected"})
		got := rejected(recovered(t, dir, id))
		if len(got) != 1 {
			t.Fatalf("%d rows rejected after replay, want 1: %+v", len(got), got)
		}
		r := got[0]
		if r.Class != "anti" || r.Sym != "q" || r.Level != 1 || r.SrcStmt != 5 || r.DstStmt != 5 {
			t.Errorf("replay rejected %+v, want the anti dependence on q from s5 to s5 at level 1", r)
		}
		if r.ID == 30 {
			t.Errorf("the edge is still number 30; the record proves nothing about keys")
		}
	})

	t.Run("cmd mark replays by number", func(t *testing.T) {
		dir, id := handWritten(t, &record{Op: recCmd, Line: "mark 1 reject"})
		got := rejected(recovered(t, dir, id))
		if len(got) != 1 || got[0].ID != 1 {
			t.Errorf("rows rejected after replaying mark 1: %+v, want exactly row 1", got)
		}
	})
}
