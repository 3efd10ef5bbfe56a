package store_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"secmgpu/internal/store"
)

// nonBlankLines counts the lines of data that hold more than white
// space: each is replayed either as a record or as a corrupt line.
func nonBlankLines(data []byte) int {
	n := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) > 0 {
			n++
		}
	}
	return n
}

// journalSeed builds a small valid journal for seeding the fuzzer.
func journalSeed(t testing.TB) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seed.jsonl")
	j, err := store.CreateJournal(path, store.RunInfo{ID: "t1", SimDigest: "s", GPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	j.Append(store.Record{T: store.RecStart, Cell: "aa", Label: "mm", Attempt: 1})
	j.Append(store.Record{T: store.RecDone, Cell: "aa", Label: "mm", Millis: 3})
	j.Append(store.Record{T: store.RecFailed, Cell: "bb", Attempt: 1, Err: "boom"})
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzReplayJournal pins the journal decoder's robustness contract:
// truncated, bit-flipped, duplicated, or arbitrary bytes must replay
// without panicking — damaged records are quarantined (counted corrupt,
// skipped), and nothing unverified is ever trusted.
func FuzzReplayJournal(f *testing.F) {
	seed := journalSeed(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])         // torn tail
	f.Add(append(seed, seed...))      // duplicated records
	f.Add([]byte("{"))                // bare torn record
	f.Add([]byte("\n\n\n"))           // blank lines
	f.Add([]byte(`{"t":"run"}`))      // header without run info
	f.Add([]byte{0xff, 0xfe, 0x00})   // binary garbage
	flip := append([]byte{}, seed...) // single flipped bit mid-file
	flip[len(flip)/2] ^= 0x20
	f.Add(flip)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		rep, err := store.ReplayJournal(path)
		if err != nil {
			return // unreadable or headerless is a reported error, fine
		}
		if n := nonBlankLines(data); rep.Records+rep.Corrupt != n {
			t.Fatalf("records=%d + corrupt=%d, want %d non-blank lines", rep.Records, rep.Corrupt, n)
		}
		// Any record the replay trusted must have carried a valid
		// checksum; spot-check internal consistency instead.
		if rep.Records < 1 {
			t.Fatal("replay succeeded with no verified records")
		}
		for cell := range rep.Failed {
			if _, ok := rep.Done[cell]; ok {
				t.Fatalf("cell %q both done and failed", cell)
			}
		}
	})
}

// controlLogSeed builds a small valid control log (the campaign
// coordinator's journal format) for seeding the fuzzer.
func controlLogSeed(t testing.TB) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ctl.jsonl")
	l, err := store.OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append("submit", map[string]any{"id": "c1-1", "created": "2026-01-01T00:00:00Z"})
	l.Append("terminal", map[string]any{"id": "c1-1", "state": "done"})
	l.Append("quarantine", map[string]any{"worker": "evil", "reason": "diverged"})
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzControlLogReplay pins the control-log replay contract on which the
// coordinator's crash recovery rests: arbitrary bytes — torn tails,
// flipped bits, duplicated or interleaved records, binary garbage — must
// replay without panicking, every record handed to the callback must
// have carried a valid self-checksum, and damaged lines are counted
// corrupt rather than half-trusted.
func FuzzControlLogReplay(f *testing.F) {
	seed := controlLogSeed(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])                                             // torn tail
	f.Add(append(seed, seed...))                                          // duplicated history
	f.Add([]byte("{"))                                                    // bare torn record
	f.Add([]byte("\n\n"))                                                 // blank lines only
	f.Add([]byte(`{"t":"submit","d":{"id":"x"},"c":"0000000000000000"}`)) // bad checksum
	f.Add([]byte{0xff, 0xfe, 0x00})                                       // binary garbage
	flip := append([]byte{}, seed...)
	flip[len(flip)/2] ^= 0x40
	f.Add(flip)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz-ctl.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		delivered := 0
		records, corrupt, err := store.ReplayLog(path, func(typ string, d json.RawMessage) {
			delivered++
			if typ == "" {
				t.Fatal("replay delivered a record with no type")
			}
			// The payload the callback sees must be valid JSON (or absent):
			// it was checksummed as part of the record.
			if len(d) > 0 && !json.Valid(d) {
				t.Fatalf("replay delivered invalid JSON payload: %q", d)
			}
		})
		if err != nil {
			t.Fatalf("replay of an existing file errored: %v", err)
		}
		if records != delivered {
			t.Fatalf("records = %d but callback ran %d times", records, delivered)
		}
		if corrupt < 0 || records < 0 {
			t.Fatalf("negative counts: records=%d corrupt=%d", records, corrupt)
		}
		if n := nonBlankLines(data); records+corrupt != n {
			t.Fatalf("records=%d + corrupt=%d, want %d non-blank lines", records, corrupt, n)
		}
	})
}

// entrySeed builds one valid store entry file for seeding the fuzzer.
func entrySeed(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SimDigest: "s"})
	if err != nil {
		t.Fatal(err)
	}
	dig := "abfeed01"
	if err := st.Put(dig, "mm", nil); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("glob: %v (%d)", err, len(matches))
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzEntryDecode pins the result-store decoder: arbitrary bytes in an
// entry's slot must either verify completely or quarantine — never
// panic, and never serve a result whose checksum does not match.
func FuzzEntryDecode(f *testing.F) {
	seed := entrySeed(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // truncated file
	f.Add([]byte("{}"))       // empty object
	f.Add([]byte("null"))     // JSON null
	f.Add([]byte{0x00, 0x01}) // binary garbage
	flip := append([]byte{}, seed...)
	flip[len(flip)/3] ^= 0x01
	f.Add(flip)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		st, err := store.Open(dir, store.Options{SimDigest: "s"})
		if err != nil {
			t.Skip()
		}
		const dig = "abfeed01"
		path := filepath.Join(dir, "objects", dig[:2], dig+".json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Skip()
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		res, ok := st.Get(dig)
		if ok {
			// A served entry must round-trip as valid JSON (it passed
			// format, digest, and checksum verification).
			if _, err := json.Marshal(res); err != nil {
				t.Fatalf("served result does not re-encode: %v", err)
			}
		} else if _, statErr := os.Stat(path); statErr == nil {
			t.Fatal("failed entry neither served nor quarantined")
		}
	})
}
