package server

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeTestJournal creates a journal with n cmd records and returns
// the wal path plus each record's [start, end) byte range in the file.
func writeTestJournal(t *testing.T, dir string, n int) (string, [][2]int64) {
	t.Helper()
	j, err := createJournal(dir, "sTEST", FsyncNever, NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	var frames [][2]int64
	off := int64(0)
	for i := 0; i < n; i++ {
		rec := &record{Op: recCmd, Line: "loops", PreHash: srcHash("src")}
		if err := j.append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		frames = append(frames, [2]int64{off, j.size})
		off = j.size
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	return j.path, frames
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := createJournal(dir, "sRT", FsyncAlways, NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	recs := []record{
		{Op: recOpen, Path: "p.f", Source: "      program p\n      end\n"},
		{Op: recSelect, Unit: "main", Loop: 2},
		{Op: recCmd, Line: "apply parallelize 1", PreHash: srcHash("a")},
		{Op: recEdit, Stmt: 7, Text: "x = 1", PreHash: srcHash("b")},
		{Op: recEdit, Stmt: 8, Delete: true},
		{Op: recUndo},
		{Op: recClassify, Var: "t", Class: "private"},
	}
	for i := range recs {
		rc := recs[i]
		if err := j.append(&rc); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	res, err := readJournal(j.path)
	if err != nil {
		t.Fatal(err)
	}
	if res.tornAt != -1 || res.corruptAt != -1 {
		t.Fatalf("clean journal read as damaged: %+v", res)
	}
	if len(res.records) != len(recs) {
		t.Fatalf("read %d records, wrote %d", len(res.records), len(recs))
	}
	for i, got := range res.records {
		if got.Seq != uint64(i+1) {
			t.Errorf("record %d: seq %d, want %d", i, got.Seq, i+1)
		}
		want := recs[i]
		want.Seq, want.Time = got.Seq, got.Time // stamped by append
		if !reflect.DeepEqual(got, want) {
			t.Errorf("record %d round-trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if res.lastSeq != uint64(len(recs)) {
		t.Errorf("lastSeq %d, want %d", res.lastSeq, len(recs))
	}
	fi, _ := os.Stat(j.path)
	if res.size != fi.Size() {
		t.Errorf("clean size %d != file size %d", res.size, fi.Size())
	}
}

// TestJournalDamageClassification is the truncate-vs-quarantine table:
// for each way of damaging the file, assert whether readJournal calls
// it a torn tail (recoverable: the damage is at or past the last
// record) or mid-stream corruption (quarantine: intact data follows
// the damage, so this is no crash artifact).
func TestJournalDamageClassification(t *testing.T) {
	const n = 3
	cases := []struct {
		name string
		// damage mutates the file bytes; frames are the record ranges.
		damage      func(data []byte, frames [][2]int64) []byte
		wantRecords int
		wantTorn    bool
		wantCorrupt bool
	}{
		{
			name:        "pristine",
			damage:      func(d []byte, _ [][2]int64) []byte { return d },
			wantRecords: n,
		},
		{
			name: "truncated mid final record",
			damage: func(d []byte, f [][2]int64) []byte {
				return d[:f[n-1][0]+5]
			},
			wantRecords: n - 1,
			wantTorn:    true,
		},
		{
			name: "truncated inside final length header",
			damage: func(d []byte, f [][2]int64) []byte {
				return d[:f[n-1][0]+2]
			},
			wantRecords: n - 1,
			wantTorn:    true,
		},
		{
			name: "bit flip in final record payload",
			damage: func(d []byte, f [][2]int64) []byte {
				d[f[n-1][0]+6] ^= 0x40
				return d
			},
			wantRecords: n - 1,
			wantTorn:    true,
		},
		{
			name: "bit flip in final record CRC",
			damage: func(d []byte, f [][2]int64) []byte {
				d[f[n-1][1]-1] ^= 0x01
				return d
			},
			wantRecords: n - 1,
			wantTorn:    true,
		},
		{
			name: "bit flip in middle record payload",
			damage: func(d []byte, f [][2]int64) []byte {
				d[f[1][0]+6] ^= 0x40
				return d
			},
			wantRecords: 1,
			wantCorrupt: true,
		},
		{
			name: "bit flip in middle record CRC",
			damage: func(d []byte, f [][2]int64) []byte {
				d[f[1][1]-2] ^= 0x10
				return d
			},
			wantRecords: 1,
			wantCorrupt: true,
		},
		{
			name: "bit flip in first record payload",
			damage: func(d []byte, f [][2]int64) []byte {
				d[f[0][0]+4] ^= 0x02
				return d
			},
			wantRecords: 0,
			wantCorrupt: true,
		},
		{
			// A trashed length field cannot be framed past, so the
			// scanner cannot prove intact data follows: it reads as a
			// torn tail at that record.
			name: "garbage length field in middle record",
			damage: func(d []byte, f [][2]int64) []byte {
				binary.BigEndian.PutUint32(d[f[1][0]:], 0xFFFFFFF0)
				return d
			},
			wantRecords: 1,
			wantTorn:    true,
		},
		{
			name:        "empty file",
			damage:      func(d []byte, _ [][2]int64) []byte { return nil },
			wantRecords: 0,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			path, frames := writeTestJournal(t, dir, n)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			damaged := c.damage(append([]byte(nil), data...), frames)
			dpath := filepath.Join(dir, "damaged.wal")
			if err := os.WriteFile(dpath, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			res, err := readJournal(dpath)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.records) != c.wantRecords {
				t.Errorf("records %d, want %d", len(res.records), c.wantRecords)
			}
			if torn := res.tornAt >= 0; torn != c.wantTorn {
				t.Errorf("tornAt %d, want torn=%v", res.tornAt, c.wantTorn)
			}
			if corrupt := res.corruptAt >= 0; corrupt != c.wantCorrupt {
				t.Errorf("corruptAt %d (%v), want corrupt=%v", res.corruptAt, res.corrupt, c.wantCorrupt)
			}
			if c.wantTorn {
				// Truncating at tornAt must leave a clean journal — the
				// recovery contract.
				if err := os.WriteFile(dpath, damaged[:res.tornAt], 0o644); err != nil {
					t.Fatal(err)
				}
				res2, err := readJournal(dpath)
				if err != nil {
					t.Fatal(err)
				}
				if res2.tornAt != -1 || res2.corruptAt != -1 || len(res2.records) != c.wantRecords {
					t.Errorf("after truncation at tornAt: %+v, want clean with %d records", res2, c.wantRecords)
				}
			}
		})
	}
}

// TestJournalRewriteCompacts: rewrite must atomically replace the log
// with the single snapshot record and keep accepting appends after.
func TestJournalRewriteCompacts(t *testing.T) {
	dir := t.TempDir()
	j, err := createJournal(dir, "sSNAP", FsyncAlways, NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.append(&record{Op: recCmd, Line: "loop 1"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.rewrite(&record{Op: recSnapshot, Path: "p.f", Source: "      end\n", Unit: "main", Loop: 1}); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if err := j.append(&record{Op: recCmd, Line: "undo"}); err != nil {
		t.Fatalf("append after rewrite: %v", err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	res, err := readJournal(j.path)
	if err != nil {
		t.Fatal(err)
	}
	if res.tornAt != -1 || res.corruptAt != -1 {
		t.Fatalf("rewritten journal damaged: %+v", res)
	}
	if len(res.records) != 2 || res.records[0].Op != recSnapshot || res.records[1].Op != recCmd {
		t.Fatalf("rewritten journal = %+v, want [snapshot, cmd]", res.records)
	}
	if res.records[1].Seq <= res.records[0].Seq {
		t.Errorf("seq not monotone across rewrite: %d then %d", res.records[0].Seq, res.records[1].Seq)
	}
	if _, err := os.Stat(j.path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("rewrite left its temp file behind: %v", err)
	}
}

func TestJournalCloseIdempotentAndRemove(t *testing.T) {
	dir := t.TempDir()
	j, err := createJournal(dir, "sCLOSE", FsyncInterval, NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(&record{Op: recOpen, Path: "p.f"}); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := j.close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := j.append(&record{Op: recCmd, Line: "x"}); err == nil {
		t.Fatal("append after close succeeded")
	}
	j.remove()
	if _, err := os.Stat(j.path); !os.IsNotExist(err) {
		t.Fatalf("remove left the wal: %v", err)
	}
	j.remove() // idempotent
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"always": FsyncAlways, "ALWAYS": FsyncAlways,
		"interval": FsyncInterval, "never": FsyncNever,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
		if got.String() == "" {
			t.Errorf("FsyncPolicy(%v).String() empty", got)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("ParseFsyncPolicy accepted garbage")
	}
}
