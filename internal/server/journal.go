package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"parascope/internal/faultpoint"
)

// This file is the durability substrate of pedd: a per-session
// write-ahead journal of the mutating commands, plus periodic
// snapshots that bound replay length. Wire format, one record:
//
//	[4-byte big-endian payload length][payload][4-byte big-endian CRC32(payload)]
//
// The payload is the JSON encoding of record. Records are appended
// from inside the session's actor goroutine, so journal order is
// exactly the actor's execution order. A partial final record (the
// expected aftermath of kill -9 or power loss) is a torn tail —
// detected and truncated at recovery, never an error. A checksum
// failure before the tail is corruption and quarantines the session.

// Record ops. Reads are never journaled.
const (
	recOpen     = "open"     // session birth: path + source
	recSnapshot = "snapshot" // folded state: source + selection + undo stack
	recSelect   = "select"   // unit/loop selection
	recCmd      = "cmd"      // a mutating REPL line
	recMark     = "mark"     // a mark line, its edge named by key
	recClassify = "classify" // typed classify endpoint
	recEdit     = "edit"     // typed edit/delete endpoint
	recUndo     = "undo"     // typed undo endpoint
)

// record is one journal entry. Fields are op-specific; PreHash is the
// SHA-256 of the printed source *before* the mutation, giving replay a
// per-record integrity check (a mismatch means the journal and the
// rebuilt state have diverged).
type record struct {
	Seq  uint64 `json:"seq"`
	Op   string `json:"op"`
	Time int64  `json:"time,omitempty"` // unix nanos, informational

	// open / snapshot
	Path   string   `json:"path,omitempty"`
	Source string   `json:"source,omitempty"`
	Undo   []string `json:"undo,omitempty"` // snapshot: printed undo stack, oldest first

	// select / snapshot selection
	Unit string `json:"unit,omitempty"`
	Loop int    `json:"loop,omitempty"`

	// cmd
	Line string `json:"line,omitempty"`

	// classify: Var and its Class. mark: the edge by key — in Unit, its
	// Class, Sym and Level, its source and sink statement numbers, and
	// which of the edges sharing those it is (Nth, 0-based, graph order)
	// — and the judgement, Mark (dep.Mark's name).
	Var   string `json:"var,omitempty"`
	Class string `json:"class,omitempty"`
	Sym   string `json:"sym,omitempty"`
	Level int    `json:"level,omitempty"`
	Src   int    `json:"src,omitempty"`
	Dst   int    `json:"dst,omitempty"`
	Nth   int    `json:"nth,omitempty"`
	Mark  string `json:"mark,omitempty"`

	// edit
	Stmt   int    `json:"stmt,omitempty"`
	Text   string `json:"text,omitempty"`
	Delete bool   `json:"delete,omitempty"`

	PreHash string `json:"pre_hash,omitempty"`
}

// FsyncPolicy says when journal appends reach stable storage.
type FsyncPolicy int

// Fsync policies (zero value = interval, the production default).
const (
	// FsyncInterval batches fsyncs on the manager's flush ticker:
	// bounded data loss (one flush interval) at near-zero latency cost.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways fsyncs every append before acknowledging: no
	// acknowledged mutation is ever lost, at the price of a disk
	// round-trip per mutation.
	FsyncAlways
	// FsyncNever leaves flushing to the OS page cache (and to Close on
	// clean shutdown): fastest, loses up to the whole cache on a crash.
	FsyncNever
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "interval"
	}
}

// ParseFsyncPolicy parses the -fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("unknown fsync policy %q (want always, interval, or never)", s)
}

// maxRecordBytes bounds a single record's payload; a decoded length
// past it means the length field itself is garbage.
const maxRecordBytes = 64 << 20

// journal is one session's append-only command log. All appends come
// from the session's actor goroutine; sync may additionally be called
// by the manager's flush ticker, so the file handle is mutex-guarded.
type journal struct {
	id     string
	path   string
	policy FsyncPolicy

	mu     sync.Mutex
	f      *os.File
	size   int64 // logical size = end of the last complete record
	seq    uint64
	dirty  bool
	closed bool
	// synced flips at the first successful fsync of the file; named
	// once the data directory has been fsynced after it, which is what
	// makes a newborn journal's *name* survive power loss (unlock).
	synced, named bool

	metrics *Metrics
}

// walPath names the journal file for a session ID.
func walPath(dir, id string) string { return filepath.Join(dir, id+".wal") }

// createJournal makes the journal of a session's first mutation (the
// caller appends the birth records). O_EXCL makes an ID collision with
// any existing file an error instead of silently appending to foreign
// state.
func createJournal(dir, id string, policy FsyncPolicy, metrics *Metrics) (*journal, error) {
	f, err := os.OpenFile(walPath(dir, id), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &journal{id: id, path: walPath(dir, id), policy: policy, f: f, metrics: metrics}, nil
}

// openJournalAppend reopens an existing journal (after recovery) for
// appending. size and seq come from the recovery scan.
func openJournalAppend(dir, id string, policy FsyncPolicy, size int64, seq uint64, metrics *Metrics) (*journal, error) {
	f, err := os.OpenFile(walPath(dir, id), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &journal{id: id, path: walPath(dir, id), policy: policy, f: f, size: size, seq: seq, named: true, metrics: metrics}, nil
}

// encodeRecord renders one record in the wire format.
func encodeRecord(rec *record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 4+len(payload)+4)
	binary.BigEndian.PutUint32(buf[:4], uint32(len(payload)))
	copy(buf[4:], payload)
	binary.BigEndian.PutUint32(buf[4+len(payload):], crc32.ChecksumIEEE(payload))
	return buf, nil
}

// unlock releases j.mu and, right after the journal's first successful
// fsync, fsyncs the data directory so the file's name is as durable as
// its contents — outside the lock, so appends never wait on it.
func (j *journal) unlock() {
	due := j.synced && !j.named
	if due {
		j.named = true
	}
	j.mu.Unlock()
	if due {
		syncDir(filepath.Dir(j.path))
	}
}

// append stamps the next sequence numbers on recs and writes them in
// one write, then fsyncs once if the policy is FsyncAlways. On any
// error the file is truncated back to the last complete record (best
// effort) so a failed append can never leave a half-record for a later
// append to bury mid-stream, and the error is returned for the session
// to degrade on.
func (j *journal) append(recs ...*record) error {
	j.mu.Lock()
	defer j.unlock()
	if j.closed {
		return errors.New("journal closed")
	}
	var buf []byte
	now := time.Now()
	for i, rec := range recs {
		if err := faultpoint.Hit(faultpoint.JournalAppend, j.id+":"+rec.Op); err != nil {
			return err
		}
		rec.Seq = j.seq + uint64(i) + 1
		rec.Time = now.UnixNano()
		b, err := encodeRecord(rec)
		if err != nil {
			return err
		}
		if i == 0 {
			buf = b // the common single-record append writes b as is
		} else {
			buf = append(buf, b...)
		}
	}
	start := time.Now()
	n, err := j.f.Write(buf)
	if err != nil || n != len(buf) {
		_ = j.f.Truncate(j.size)
		if err == nil {
			err = fmt.Errorf("short journal write: %d of %d bytes", n, len(buf))
		}
		return err
	}
	j.size += int64(len(buf))
	j.seq += uint64(len(recs))
	j.dirty = true
	j.metrics.JournalAppend.Observe(time.Since(start).Seconds())
	j.metrics.JournalBytes.Add(uint64(len(buf)))
	if j.policy == FsyncAlways {
		if err := j.syncLocked(); err != nil {
			// The records reached the file but not stable storage; roll
			// them back (best effort) so state the client is told failed
			// cannot resurface after a crash.
			j.size -= int64(len(buf))
			j.seq -= uint64(len(recs))
			_ = j.f.Truncate(j.size)
			return err
		}
	}
	return nil
}

// sync flushes pending appends to stable storage (no-op when clean or
// when the policy is FsyncNever).
func (j *journal) sync() error {
	j.mu.Lock()
	defer j.unlock()
	if j.policy == FsyncNever {
		return nil
	}
	return j.syncLocked()
}

func (j *journal) syncLocked() error {
	if !j.dirty || j.closed {
		return nil
	}
	if err := faultpoint.Hit(faultpoint.JournalSync, j.id); err != nil {
		return err
	}
	start := time.Now()
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.metrics.JournalFsync.Observe(time.Since(start).Seconds())
	j.dirty, j.synced = false, true
	return nil
}

// rewrite atomically replaces the journal with a single snapshot
// record — compaction. The snapshot is written to a temp file, fsynced,
// and renamed over the journal; any failure leaves the old journal
// intact and the old handle serving.
func (j *journal) rewrite(snap *record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal closed")
	}
	if err := faultpoint.Hit(faultpoint.JournalSnapshot, j.id); err != nil {
		return err
	}
	snap.Seq = j.seq + 1
	snap.Time = time.Now().UnixNano()
	buf, err := encodeRecord(snap)
	if err != nil {
		return err
	}
	tmpPath := j.path + ".tmp"
	if err := writeSynced(tmpPath, os.O_TRUNC, buf); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, j.path); err != nil {
		os.Remove(tmpPath)
		return err
	}
	// The old handle now points at the unlinked inode; swap it for the
	// new file before any further append.
	nf, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_ = j.f.Close()
	j.f = nf
	j.size = int64(len(buf))
	j.seq = snap.Seq
	j.dirty, j.named = false, true
	syncDir(filepath.Dir(j.path))
	j.metrics.JournalSnapshots.Inc()
	return nil
}

// close fsyncs (regardless of policy — clean shutdown is the one
// moment durability is free) and closes the handle. Idempotent.
func (j *journal) close() error { return j.shut(true) }

// remove deletes the journal file (explicit close / TTL eviction: the
// session is gone on purpose, so its state must not resurrect). The
// file is about to be unlinked, so it is not fsynced first.
func (j *journal) remove() {
	_ = j.shut(false)
	os.Remove(j.path)
}

func (j *journal) shut(flush bool) error {
	j.mu.Lock()
	defer j.unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	var err error
	if flush && j.dirty {
		if err = j.f.Sync(); err == nil {
			j.synced = true
		}
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeSynced creates path (how says O_TRUNC or O_EXCL), writes data and
// fsyncs it. A file it created but could not finish is removed; one
// that O_EXCL refused is left alone.
func writeSynced(path string, how int, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|how, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// syncDir fsyncs a directory so a rename survives a crash (best
// effort; some filesystems reject directory fsync).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// scanResult is what readJournal learned about one journal file.
type scanResult struct {
	records []record
	// tornAt >= 0 is the byte offset of a partial or checksum-failed
	// final record — the expected kill -9 aftermath; truncating the
	// file there makes it clean. -1 means no torn tail.
	tornAt int64
	// corruptAt is the index of the first mid-stream record whose
	// checksum failed with further intact data after it — real
	// corruption, not a crash artifact. -1 means none.
	corruptAt int
	corrupt   error
	// size is the clean logical size (end of the last good record).
	size int64
	// lastSeq is the highest sequence number of a good record.
	lastSeq uint64
}

// readJournal decodes a journal file, classifying damage: a damaged
// *final* record is a torn tail (truncate and carry on), damage with
// intact records after it is corruption (quarantine).
func readJournal(path string) (scanResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return scanResult{tornAt: -1, corruptAt: -1}, err
	}
	return scanJournal(data), nil
}

// scanJournal decodes a journal image already in memory — the shared
// scanner behind file recovery (readJournal) and migration-stream
// adoption (Manager.Import), so both classify damage identically.
func scanJournal(data []byte) scanResult {
	res := scanResult{tornAt: -1, corruptAt: -1}
	off := int64(0)
	n := int64(len(data))
	for off < n {
		// A record needs at least the 4-byte length, the payload, and
		// the 4-byte CRC; anything that runs past EOF is a torn tail.
		if off+4 > n {
			res.tornAt = off
			break
		}
		plen := int64(binary.BigEndian.Uint32(data[off : off+4]))
		end := off + 4 + plen + 4
		if plen > maxRecordBytes || end > n {
			res.tornAt = off
			break
		}
		payload := data[off+4 : off+4+plen]
		crc := binary.BigEndian.Uint32(data[off+4+plen : end])
		var rec record
		if crc32.ChecksumIEEE(payload) != crc {
			if end == n {
				res.tornAt = off // damaged final record: torn tail
			} else {
				res.corruptAt = len(res.records)
				res.corrupt = fmt.Errorf("checksum mismatch in record %d at offset %d", len(res.records)+1, off)
			}
			break
		}
		if err := json.Unmarshal(payload, &rec); err != nil {
			if end == n {
				res.tornAt = off
			} else {
				res.corruptAt = len(res.records)
				res.corrupt = fmt.Errorf("undecodable record %d at offset %d: %v", len(res.records)+1, off, err)
			}
			break
		}
		res.records = append(res.records, rec)
		res.lastSeq = rec.Seq
		res.size = end
		off = end
	}
	return res
}

// CleanJournalStream prepares a journal image read off a *dead* node's
// disk for import: a torn tail (the expected kill -9 aftermath — that
// record was never acknowledged) is truncated away, exactly as startup
// recovery would; mid-stream corruption is an error. This is the
// gateway's failover path. Live migration streams never need it —
// Export only ships complete records — which is why Import itself
// stays strict and rejects torn streams whole.
func CleanJournalStream(data []byte) ([]byte, error) {
	res := scanJournal(data)
	if res.corrupt != nil {
		return nil, res.corrupt
	}
	if len(res.records) == 0 {
		return nil, errors.New("journal stream holds no complete records")
	}
	return data[:res.size], nil
}

// contents reads the journal's clean byte image — everything up to the
// end of the last complete record — for export to another node. Called
// from the session actor after a drain, so no append can be in flight;
// the mutex only fences the manager's concurrent flush ticker.
func (j *journal) contents() ([]byte, error) {
	j.mu.Lock()
	defer j.unlock()
	if j.closed {
		return nil, errors.New("journal closed")
	}
	if err := j.syncLocked(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(j.path)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) < j.size {
		return nil, fmt.Errorf("journal file shorter than logical size: %d < %d", len(data), j.size)
	}
	return data[:j.size], nil
}
