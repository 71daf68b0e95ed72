package server

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
)

// This file is the read side of the durability layer: at startup the
// manager scans its datadir for session journals and rebuilds each
// session by replaying its records through the exact code paths a live
// client would exercise. Recovery classifies damage per journal —
//
//   - a torn tail (partial or checksum-failed *final* record) is the
//     expected aftermath of kill -9: truncate it and recover the rest;
//   - a checksum failure with intact records after it is real
//     corruption: that session is registered as a quarantined husk
//     (status visible, every op rejected) and no other session is
//     affected;
//   - a replay that cannot proceed (injected fault, divergence between
//     the rebuilt source and the hash the journal recorded) leaves the
//     session read-only at the recovered prefix — reads serve, writes
//     503 — because appending past a prefix mismatch would corrupt the
//     log's meaning.
//
// One broken journal never blocks the others and never kills the
// daemon: recovery is per-session fail-soft, like everything else here.

// RecoveryStats summarizes one datadir scan.
type RecoveryStats struct {
	// Recovered sessions are fully rebuilt and writable.
	Recovered int
	// Truncated counts journals whose torn tail was cut (the session
	// itself still recovers; a subset of Recovered unless the journal
	// was left empty).
	Truncated int
	// Quarantined sessions had corrupt or unusable journals and are
	// registered failed: status is queryable, every op is rejected.
	Quarantined int
	// ReadOnly sessions recovered a prefix but could not finish replay.
	ReadOnly int
	// Removed journals held no durable record at all (the session's
	// first mutation never reached the disk, so it was never
	// acknowledged) — deleted, nothing to rebuild.
	Removed int
	// Moved counts tombstones loaded: sessions that migrated away and
	// keep answering 421 + Location after this restart.
	Moved int
}

func (st RecoveryStats) String() string {
	return fmt.Sprintf("recovered %d (truncated %d, read-only %d), quarantined %d, removed %d, moved %d",
		st.Recovered, st.Truncated, st.ReadOnly, st.Quarantined, st.Removed, st.Moved)
}

// Recover scans the manager's datadir and rebuilds every journaled
// session. Call it after NewManager and before serving traffic; with
// no datadir it is a no-op. The returned error covers only the scan
// itself (unreadable datadir) — per-session failures are absorbed into
// the stats and the sessions' own status.
func (m *Manager) Recover() (RecoveryStats, error) {
	var st RecoveryStats
	if m.cfg.DataDir == "" {
		return st, nil
	}
	entries, err := os.ReadDir(m.cfg.DataDir)
	if err != nil {
		return st, fmt.Errorf("recovery scan: %w", err)
	}
	var wals []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch name := e.Name(); {
		case strings.HasSuffix(name, ".moved"):
			id := strings.TrimSuffix(name, ".moved")
			target, rerr := os.ReadFile(movedPath(m.cfg.DataDir, id))
			if rerr != nil || len(strings.TrimSpace(string(target))) == 0 {
				continue
			}
			m.mu.Lock()
			m.moved[id] = strings.TrimSpace(string(target))
			m.mu.Unlock()
			st.Moved++
		case strings.HasSuffix(name, ".wal"):
			wals = append(wals, name)
		}
	}
	sort.Strings(wals)
	for _, name := range wals {
		id := strings.TrimSuffix(name, ".wal")
		if _, moved := m.MovedTo(id); moved {
			// The migration tombstoned this session but crashed before
			// deleting its wal. The shipped copy is authoritative —
			// replaying the leftover here would fork the session.
			os.Remove(walPath(m.cfg.DataDir, id))
			continue
		}
		m.recoverOne(id, &st)
	}
	return st, nil
}

// recoverOne rebuilds a single session from its journal, updating st.
func (m *Manager) recoverOne(id string, st *RecoveryStats) {
	dir := m.cfg.DataDir
	path := walPath(dir, id)
	res, err := readJournal(path)
	if err != nil {
		m.registerHusk(id, "", fmt.Sprintf("recovery: journal unreadable: %v", err), st)
		return
	}
	if res.tornAt >= 0 {
		// Expected kill -9 aftermath, not an error: cut the tail so
		// the journal is clean before any new append lands after it.
		if err := os.Truncate(path, res.size); err != nil {
			m.registerHusk(id, "", fmt.Sprintf("recovery: truncating torn tail: %v", err), st)
			return
		}
		st.Truncated++
		m.metrics.RecoveriesTruncated.Inc()
	}
	if res.corrupt != nil {
		m.registerHusk(id, "", fmt.Sprintf("recovery: journal corrupt: %v", res.corrupt), st)
		return
	}
	if len(res.records) == 0 {
		// The birth never became durable, so the first mutation was never
		// acknowledged — the client was never promised this session
		// survives. Nothing to rebuild.
		os.Remove(path)
		st.Removed++
		return
	}
	base := &res.records[0]
	if base.Op != recOpen && base.Op != recSnapshot {
		m.registerHusk(id, base.Path, fmt.Sprintf("recovery: journal begins with %q, want open or snapshot", base.Op), st)
		return
	}

	art, live, err := m.analyze(context.Background(), base.Path, base.Source, func() {})
	if err != nil {
		m.registerHusk(id, base.Path, fmt.Sprintf("recovery: reanalyzing source: %v", err), st)
		return
	}

	jr, err := openJournalAppend(dir, id, m.cfg.Fsync, res.size, res.lastSeq, m.metrics)
	if err != nil {
		m.registerHusk(id, base.Path, fmt.Sprintf("recovery: reopening journal: %v", err), st)
		return
	}
	ss := m.newSession(id, base.Path, base.Source, art, live, jr)
	postErr, replayErr := replayJournal(ss, base, res.records[1:])

	_ = m.register(ss, m.admit.Force(), true) // one wal per ID, one pass: nothing to collide with
	switch {
	case postErr != nil:
		// The replay panicked: the session quarantined itself through
		// the normal actor boundary and is already a registered husk
		// in all but name.
		st.Quarantined++
		m.metrics.RecoveriesQuarantined.Inc()
	case replayErr != nil:
		ss.degradeReadOnly(fmt.Sprintf("recovery: %v", replayErr))
		st.ReadOnly++
		st.Recovered++
		m.metrics.RecoveriesTotal.Inc()
	default:
		st.Recovered++
		m.metrics.RecoveriesTotal.Inc()
	}
}

// replayJournal replays a scanned journal (base + the rest) on a fresh
// session's actor, through the same code paths a live client would
// exercise. postErr reports a replay panic (the session quarantined
// itself at the actor boundary); replayErr reports a replay that could
// not proceed (divergence, injected fault, broken record). Recovery
// keeps what it salvaged on failure; import tears down instead.
func replayJournal(ss *Session, base *record, rest []record) (postErr, replayErr error) {
	postErr = ss.post(context.Background(), func() {
		if base.Op == recSnapshot {
			if replayErr = ss.applySnapshot(base); replayErr != nil {
				return
			}
		}
		for i := range rest {
			if replayErr = ss.applyRecord(&rest[i]); replayErr != nil {
				return
			}
		}
	}, false)
	return postErr, replayErr
}

// applySnapshot restores the folded state a snapshot record carries:
// the undo stack (which forces materialization — artifacts cannot
// hold it) and the selection. Runs on the actor goroutine.
func (ss *Session) applySnapshot(rec *record) error {
	if len(rec.Undo) > 0 {
		if err := ss.materialize(); err != nil {
			return err
		}
		ss.live.SetUndoStack(rec.Undo)
	}
	if rec.Unit != "" || rec.Loop > 0 {
		if _, err := ss.doSelect(SelectRequest{Unit: rec.Unit, Loop: rec.Loop}); err != nil {
			return fmt.Errorf("restoring snapshot selection: %v", err)
		}
	}
	return nil
}

// registerHusk registers a quarantined placeholder for a session whose
// journal could not be recovered: its ID and failure are visible via
// the sessions API (so an operator can see *why* and DELETE it, which
// removes the journal), but every operation is rejected. The corrupt
// journal stays on disk for forensics until then.
func (m *Manager) registerHusk(id, path, reason string, st *RecoveryStats) {
	ss := m.newSession(id, path, "", nil, nil, nil)
	ss.fail(reason, reason) // same observable state as a panic quarantine, without a stack
	ss.walOrphan = walPath(m.cfg.DataDir, id)
	_ = m.register(ss, m.admit.Force(), true)
	st.Quarantined++
	m.metrics.RecoveriesQuarantined.Inc()
}
