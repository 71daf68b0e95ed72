package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"parascope/internal/faultpoint"
)

// This file is the session-mobility half of the cluster layer: a
// session moves between pedd nodes by shipping its journal stream —
// the same bytes crash recovery replays — to the target's import
// endpoint and replaying it there through the same code paths.
//
// The protocol is source-driven and all-or-nothing:
//
//	freeze  the session stops accepting mutations (503 + Retry-After);
//	drain   the export posts through the actor's FIFO queue, so every
//	        mutation acknowledged before the freeze is in the stream;
//	ship    POST the raw stream to the target's /v1/sessions/import;
//	commit  only on the target's 201: tombstone (421 + Location),
//	        unregister, delete the local wal. Any earlier failure
//	        thaws the session — the source stays authoritative, which
//	        is what makes a torn stream safe: the target rejects
//	        damage whole instead of adopting a prefix.
//
// The gateway drives Migrate on ring changes (rebalance) and calls
// Import directly with a dead node's journal (failover over shared
// storage); see internal/cluster.

// validateSessionID vets an externally supplied session ID before it
// is used as a filename stem (wal, tombstone) and a map key. Locally
// minted IDs ("s" + hex) pass trivially.
func validateSessionID(id string) error {
	if id == "" || len(id) > 64 {
		return fmt.Errorf("invalid session ID %q: need 1-64 characters", id)
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return fmt.Errorf("invalid session ID %q: letters, digits, '-', '_' only", id)
		}
	}
	return nil
}

// movedPath names the tombstone file for a migrated-away session.
func movedPath(dir, id string) string { return filepath.Join(dir, id+".moved") }

// MovedTo reports where a migrated-away session now lives: the target
// node's base URL and true, or "" and false for an ID with no
// tombstone here.
func (m *Manager) MovedTo(id string) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	target, ok := m.moved[id]
	return target, ok
}

// tombstone records that id now lives at target, durably when a
// datadir is configured: a restarted source node must keep answering
// 421, not 404, or clients lose the forwarding pointer.
func (m *Manager) tombstone(id, target string) {
	m.mu.Lock()
	m.moved[id] = target
	m.mu.Unlock()
	if m.cfg.DataDir != "" {
		// Best effort: an unwritable tombstone degrades restart answers
		// from 421 to 404 but never blocks the migration itself.
		if err := os.WriteFile(movedPath(m.cfg.DataDir, id), []byte(target+"\n"), 0o644); err == nil {
			syncDir(m.cfg.DataDir)
		}
	}
}

// clearTombstone forgets a tombstone — a session moving (back) onto
// this node supersedes any record of it having left.
func (m *Manager) clearTombstone(id string) {
	m.mu.Lock()
	delete(m.moved, id)
	m.mu.Unlock()
	if m.cfg.DataDir != "" {
		os.Remove(movedPath(m.cfg.DataDir, id))
	}
}

// Import adopts a session from a journal stream exported by another
// node (or read off a dead node's disk by the gateway). The stream is
// validated whole before anything is registered, and — unlike startup
// recovery, which salvages what it can because the journal is all
// that's left — any damage or replay failure rejects the import
// entirely: the source is alive and authoritative, so adopting a
// prefix would silently drop acknowledged mutations.
func (m *Manager) Import(ctx context.Context, id string, stream []byte) (ImportResponse, error) {
	var resp ImportResponse
	reject := func(err error) (ImportResponse, error) {
		m.metrics.ImportsRejected.Inc()
		return resp, err
	}
	if err := validateSessionID(id); err != nil {
		return reject(err)
	}
	if len(stream) == 0 {
		return reject(fmt.Errorf("import %s: empty journal stream", id))
	}
	res := scanJournal(stream)
	if res.tornAt >= 0 {
		return reject(fmt.Errorf("import %s: journal stream torn at byte %d of %d (refusing partial adoption)",
			id, res.tornAt, len(stream)))
	}
	if res.corrupt != nil {
		return reject(fmt.Errorf("import %s: journal stream corrupt: %v", id, res.corrupt))
	}
	if len(res.records) == 0 {
		return reject(fmt.Errorf("import %s: journal stream holds no records", id))
	}
	base := &res.records[0]
	if base.Op != recOpen && base.Op != recSnapshot {
		return reject(fmt.Errorf("import %s: journal stream begins with %q, want open or snapshot", id, base.Op))
	}

	if m.Get(id) != nil {
		return reject(fmt.Errorf("%w: %s", ErrSessionExists, id))
	}
	leave, err := m.admit.Enter()
	if err != nil {
		return resp, err
	}

	// Land the stream on this node's disk before replaying, so the
	// adopted session is durable from its first acknowledged moment.
	// O_EXCL makes any on-disk ID collision (live wal, half-cleaned
	// state) a refusal instead of an overwrite.
	var jr *journal
	if m.cfg.DataDir != "" {
		path := walPath(m.cfg.DataDir, id)
		if err := writeSynced(path, os.O_EXCL, stream); err != nil {
			leave()
			if errors.Is(err, os.ErrExist) {
				return reject(fmt.Errorf("%w: %s (journal already on disk)", ErrSessionExists, id))
			}
			return reject(fmt.Errorf("import %s: landing journal: %w", id, err))
		}
		syncDir(m.cfg.DataDir)
		if jr, err = openJournalAppend(m.cfg.DataDir, id, m.cfg.Fsync, int64(len(stream)), res.lastSeq, m.metrics); err != nil {
			os.Remove(path)
			leave()
			return reject(fmt.Errorf("import %s: reopening journal: %w", id, err))
		}
	}
	unland := func() {
		if jr != nil {
			jr.remove()
		}
	}

	art, live, err := m.analyze(ctx, base.Path, base.Source, leave)
	if err != nil {
		unland()
		return reject(fmt.Errorf("import %s: reanalyzing source: %w", id, err))
	}
	ss := m.newSession(id, base.Path, base.Source, art, live, jr)
	postErr, replayErr := replayJournal(ss, base, res.records[1:])
	if postErr != nil {
		replayErr = postErr
	}
	if replayErr != nil {
		err = fmt.Errorf("import %s: replay failed: %v", id, replayErr)
	} else {
		// A refusal here is a race lost to a concurrent import of the same
		// ID (only possible without a datadir — O_EXCL arbitrates otherwise).
		err = m.register(ss, leave, true)
	}
	if err != nil {
		ss.close()
		unland()
		leave()
		return reject(err)
	}
	m.clearTombstone(id)
	m.metrics.SessionsImported.Inc()
	resp = ImportResponse{ID: id, Path: base.Path, Records: len(res.records)}
	return resp, nil
}

// Migrate moves ss to the node at target (a base URL). On success the
// session answers 421 + Location here and lives there under the same
// ID; on any failure it thaws here, untouched — the target rejects
// damaged or half-shipped streams whole, so there is no state in which
// both nodes (or neither) own the session.
func (m *Manager) Migrate(ctx context.Context, ss *Session, target string) (MigrateResponse, error) {
	var resp MigrateResponse
	target = strings.TrimRight(target, "/")
	if target == "" {
		return resp, errors.New("migrate: empty target")
	}
	if c := ss.condition(); c.failure != nil {
		return resp, c.refusal(false)
	}
	if !ss.freeze() {
		return resp, fmt.Errorf("%w: another migration of %s is already in flight", ErrSessionMigrating, ss.ID)
	}
	fail := func(err error) (MigrateResponse, error) {
		ss.unfreeze()
		m.metrics.MigrationsFailed.Inc()
		return resp, err
	}
	// Export runs on the actor: posted after the freeze flipped, it
	// drains every already-queued mutation into the stream first.
	data, err := ss.Export(ctx)
	if err != nil {
		return fail(fmt.Errorf("migrate %s: export: %w", ss.ID, err))
	}
	ship := data
	if err := faultpoint.Hit(faultpoint.MigrateStream, ss.ID); err != nil && len(ship) > 0 {
		// Chaos: tear the stream one byte short of a complete record.
		// The target must reject it whole and this node must stay
		// authoritative — the cluster harness asserts both.
		ship = data[:len(data)-1]
	}
	imp, err := migrateClient(target).Import(ctx, ss.ID, ship)
	if err != nil {
		return fail(fmt.Errorf("migrate %s to %s: %w", ss.ID, target, err))
	}
	// The target acknowledged full adoption (201): from here its copy
	// is the session. Tombstone before unregistering so a reader racing
	// the handoff sees 421-with-forwarding, never a transient 404; then
	// scrap the local wal — the shipped state must not resurrect here
	// at the next restart.
	m.tombstone(ss.ID, target)
	m.unregister(ss)
	ss.discard()
	ss.unfreeze()
	m.metrics.MigrationsOut.Inc()
	m.metrics.MigrationsOutBytes.Add(uint64(len(data)))
	resp = MigrateResponse{
		ID:       imp.ID,
		Location: target + "/v1/sessions/" + imp.ID,
		Bytes:    int64(len(data)),
	}
	return resp, nil
}

// migrateClient builds the transport migrations ship through: no
// transport-level retries (a duplicate import would 409 against the
// first copy and misreport an otherwise successful move).
func migrateClient(target string) *Client {
	return &Client{Base: strings.TrimRight(target, "/"), MaxRetries: -1}
}
