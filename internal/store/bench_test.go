package store_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"secmgpu/internal/machine"
	"secmgpu/internal/store"
)

var (
	benchResult *machine.Result
	benchReplay *store.Replay
)

// BenchmarkPutGet persists one real simulation result and reads it back
// through full verification (format, simulator digest, key digest,
// payload checksum) per op.
func BenchmarkPutGet(b *testing.B) {
	res, dig := simResult(b)
	st := openStore(b, b.TempDir(), "sim1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Put(dig, "mm", res); err != nil {
			b.Fatal(err)
		}
		got, ok := st.Get(dig)
		if !ok {
			b.Fatal("stored result not served")
		}
		benchResult = got
	}
}

// BenchmarkReplayJournal replays a 1,000-record run journal: a header
// and a start/done pair for each of 500 cells, the last done missing.
func BenchmarkReplayJournal(b *testing.B) {
	path := filepath.Join(b.TempDir(), "run.jsonl")
	j, err := store.CreateJournal(path, testInfo())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 999; i++ {
		rec := store.Record{T: store.RecStart, Cell: fmt.Sprintf("%064x", i/2), Label: "mm", Attempt: 1}
		if i%2 == 1 {
			rec = store.Record{T: store.RecDone, Cell: rec.Cell, Label: "mm", Millis: 12}
		}
		if err := j.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := store.ReplayJournal(path)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Records != 1000 || rep.Corrupt != 0 {
			b.Fatalf("records=%d corrupt=%d, want 1000/0", rep.Records, rep.Corrupt)
		}
		benchReplay = rep
	}
}
