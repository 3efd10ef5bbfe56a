package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

type logPayload struct {
	ID string `json:"id"`
	N  int    `json:"n"`
}

func replayAll(t *testing.T, path string) (recs []logRecord, corrupt int) {
	t.Helper()
	n, c, err := ReplayLog(path, func(typ string, data json.RawMessage) {
		recs = append(recs, logRecord{T: typ, D: data})
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(recs) {
		t.Fatalf("ReplayLog reported %d records, delivered %d", n, len(recs))
	}
	return recs, c
}

func TestLogAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctl.jsonl")
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append("submit", logPayload{ID: "c1", N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append("terminal", logPayload{ID: "c1", N: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append("ping", nil); err != nil {
		t.Fatal(err)
	}
	l.Close()

	recs, corrupt := replayAll(t, path)
	if corrupt != 0 {
		t.Fatalf("corrupt = %d, want 0", corrupt)
	}
	if len(recs) != 3 || recs[0].T != "submit" || recs[1].T != "terminal" || recs[2].T != "ping" {
		t.Fatalf("records = %+v", recs)
	}
	var p logPayload
	if err := json.Unmarshal(recs[1].D, &p); err != nil || p.ID != "c1" || p.N != 2 {
		t.Fatalf("payload = %+v (err %v)", p, err)
	}
}

func TestLogMissingFileIsEmpty(t *testing.T) {
	n, corrupt, err := ReplayLog(filepath.Join(t.TempDir(), "absent.jsonl"), func(string, json.RawMessage) {
		t.Fatal("callback on empty log")
	})
	if err != nil || n != 0 || corrupt != 0 {
		t.Fatalf("n=%d corrupt=%d err=%v, want all zero", n, corrupt, err)
	}
}

// TestLogTornTailTolerated simulates a SIGKILL mid-append: the final
// record is truncated, the reopened log isolates it, and replay skips
// exactly one corrupt line while keeping everything before and after.
func TestLogTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctl.jsonl")
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append("submit", logPayload{ID: "c1"})
	l.Append("submit", logPayload{ID: "c2"})
	l.Close()

	// Tear the tail mid-record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	// A restarted process appends more records after the torn line.
	l2, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append("terminal", logPayload{ID: "c1"}); err != nil {
		t.Fatal(err)
	}
	l2.Close()

	recs, corrupt := replayAll(t, path)
	if corrupt != 1 {
		t.Fatalf("corrupt = %d, want exactly the torn record", corrupt)
	}
	if len(recs) != 2 || recs[0].T != "submit" || recs[1].T != "terminal" {
		t.Fatalf("records = %+v", recs)
	}
}

// TestLogBitFlipQuarantined flips one byte inside a record's payload and
// asserts the checksum catches it.
func TestLogBitFlipQuarantined(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctl.jsonl")
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append("submit", logPayload{ID: "c1", N: 7})
	l.Append("submit", logPayload{ID: "c2", N: 8})
	l.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a digit inside the first record's payload ("7" -> "9"): still
	// valid JSON, so only the checksum can reject it.
	flipped := false
	for i := range data {
		if data[i] == '7' {
			data[i] = '9'
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("payload byte to flip not found")
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, corrupt := replayAll(t, path)
	if corrupt != 1 || len(recs) != 1 {
		t.Fatalf("corrupt=%d records=%d, want 1 and 1", corrupt, len(recs))
	}
	var p logPayload
	if err := json.Unmarshal(recs[0].D, &p); err != nil || p.ID != "c2" {
		t.Fatalf("surviving record = %+v (err %v)", p, err)
	}
}

// TestOverlongLineSkipped appends 17 MiB of NUL bytes (what a crash can
// leave on some filesystems) between two records of a control log and of
// a run journal: replay counts that line corrupt and still reaches the
// record written after it.
func TestOverlongLineSkipped(t *testing.T) {
	dir := t.TempDir()
	garbage := func(path string) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(make([]byte, 17<<20)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	ctl := filepath.Join(dir, "ctl.jsonl")
	l, err := OpenLog(ctl)
	if err != nil {
		t.Fatal(err)
	}
	l.Append("submit", logPayload{ID: "c1"})
	l.Close()
	garbage(ctl)
	if l, err = OpenLog(ctl); err != nil {
		t.Fatal(err)
	}
	l.Append("terminal", logPayload{ID: "c1"})
	l.Close()
	recs, corrupt := replayAll(t, ctl)
	if len(recs) != 2 || corrupt != 1 || recs[1].T != "terminal" {
		t.Errorf("control log: records=%+v corrupt=%d, want submit and terminal with 1 corrupt", recs, corrupt)
	}

	run := filepath.Join(dir, "run.jsonl")
	info := RunInfo{ID: "t1"}
	j, err := CreateJournal(run, info)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	garbage(run)
	if j, err = OpenJournalAppend(run, info); err != nil {
		t.Fatal(err)
	}
	j.Close()
	rep, err := ReplayJournal(run)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 2 || rep.Corrupt != 1 || rep.Resumes != 1 {
		t.Errorf("journal: records=%d corrupt=%d resumes=%d, want 2/1/1", rep.Records, rep.Corrupt, rep.Resumes)
	}
}

func TestNilLogIsNoOp(t *testing.T) {
	var l *Log
	if err := l.Append("x", nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Path() != "" {
		t.Fatal("nil log has a path")
	}
}
