package store_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"secmgpu/internal/store"
)

// fixtureInfo is the run header of testdata/run.jsonl: HTML-escaped
// text, a fractional scale and a negative seed.
func fixtureInfo() store.RunInfo {
	return store.RunInfo{
		ID: "fixture", SimDigest: "sim<&>", Exps: []string{"fig9", "fig21"},
		GPUs: 16, Scale: 0.125, Seed: -7, Workloads: []string{"mm", "syr2k"},
	}
}

// writeRunFixture writes the fixed record sequence behind
// testdata/run.jsonl: a campaign, then a resumed invocation of it.
func writeRunFixture(t *testing.T, path string) {
	t.Helper()
	j, err := store.CreateJournal(path, fixtureInfo())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []store.Record{
		{T: store.RecStart, Cell: "aa", Label: "mm", Attempt: 1},
		{T: store.RecFailed, Cell: "aa", Label: "mm", Attempt: 1, Err: "cell <mm> failed: a && b"},
		{T: store.RecStart, Cell: "aa", Label: "mm", Attempt: 2},
		{T: store.RecDone, Cell: "aa", Label: "mm", Millis: 12},
		{T: store.RecStart, Cell: "bb", Label: "syr2k", Attempt: 1},
	} {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, err = store.OpenJournalAppend(path, fixtureInfo())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []store.Record{
		{T: store.RecRestored, Cell: "aa", Label: "mm"},
		{T: store.RecDone, Cell: "bb", Label: "syr2k", Millis: 3400},
		{T: store.RecFailed, Cell: "cc", Label: "pr", Attempt: 1, Err: "timeout > 5m"},
	} {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeControlFixture writes the fixed record sequence behind
// testdata/coordinator.jsonl: map, struct and nil payloads, then a
// reopened log.
func writeControlFixture(t *testing.T, path string) {
	t.Helper()
	l, err := store.OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	add := func(l *store.Log, typ string, v any) {
		if err := l.Append(typ, v); err != nil {
			t.Fatal(err)
		}
	}
	add(l, "submit", map[string]any{
		"id":   "c1-1",
		"spec": map[string]any{"experiments": []string{"fig9"}, "note": "<b>&amp;</b>"},
	})
	add(l, "ping", nil)
	add(l, "terminal", struct {
		ID    string  `json:"id"`
		State string  `json:"state"`
		Scale float64 `json:"scale"`
		Seed  int64   `json:"seed"`
	}{"c1-1", "done", 0.5, -3})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = store.OpenLog(path); err != nil {
		t.Fatal(err)
	}
	add(l, "drain", map[string]bool{"clean": true})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOnDiskFormatFixtures pins the journal and control-log line format:
// each committed fixture (written by an earlier build) replays to its
// exact state, and writing the same records today reproduces its bytes.
func TestOnDiskFormatFixtures(t *testing.T) {
	run := filepath.Join("testdata", "run.jsonl")
	rep, err := store.ReplayJournal(run)
	if err != nil {
		t.Fatal(err)
	}
	want := &store.Replay{
		Info: fixtureInfo(),
		Done: map[string]store.CellMark{
			"aa": {Label: "mm"},
			"bb": {Label: "syr2k"},
		},
		Restored: map[string]store.CellMark{"aa": {Label: "mm"}},
		Failed: map[string]store.CellMark{
			"cc": {Label: "pr", Attempt: 1, Err: "timeout > 5m"},
		},
		Started: map[string]store.CellMark{
			"aa": {Label: "mm", Attempt: 2},
			"bb": {Label: "syr2k", Attempt: 1},
		},
		Resumes: 1,
		Records: 10,
	}
	if !reflect.DeepEqual(rep, want) {
		t.Errorf("replayed %s:\n got %+v\nwant %+v", run, rep, want)
	}

	ctl := filepath.Join("testdata", "coordinator.jsonl")
	type rec struct{ T, D string }
	var got []rec
	n, corrupt, err := store.ReplayLog(ctl, func(typ string, d json.RawMessage) {
		got = append(got, rec{typ, string(d)})
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCtl := []rec{
		{"submit", `{"id":"c1-1","spec":{"experiments":["fig9"],"note":"\u003cb\u003e\u0026amp;\u003c/b\u003e"}}`},
		{"ping", ""},
		{"terminal", `{"id":"c1-1","state":"done","scale":0.5,"seed":-3}`},
		{"drain", `{"clean":true}`},
	}
	if n != len(wantCtl) || corrupt != 0 || !reflect.DeepEqual(got, wantCtl) {
		t.Errorf("replayed %s: records=%d corrupt=%d\n got %q\nwant %q", ctl, n, corrupt, got, wantCtl)
	}

	dir := t.TempDir()
	for _, c := range []struct {
		fixture string
		write   func(*testing.T, string)
	}{{run, writeRunFixture}, {ctl, writeControlFixture}} {
		path := filepath.Join(dir, filepath.Base(c.fixture))
		c.write(t, path)
		written, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pinned, err := os.ReadFile(c.fixture)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(written, pinned) {
			t.Errorf("%s: written bytes differ from the fixture:\n got %s\nwant %s", c.fixture, written, pinned)
		}
	}
}
