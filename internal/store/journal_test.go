package store_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"secmgpu/internal/store"
)

func testInfo() store.RunInfo {
	return store.RunInfo{
		ID: "t1", SimDigest: "sim1", Exps: []string{"fig21"},
		GPUs: 4, Scale: 0.02, Seed: 1, Workloads: []string{"mm"},
	}
}

func TestJournalCreateAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs", "t1.jsonl")
	j, err := store.CreateJournal(path, testInfo())
	if err != nil {
		t.Fatal(err)
	}
	recs := []store.Record{
		{T: store.RecStart, Cell: "aa", Label: "mm", Attempt: 1},
		{T: store.RecDone, Cell: "aa", Label: "mm", Millis: 12},
		{T: store.RecStart, Cell: "bb", Label: "syr2k", Attempt: 1},
		{T: store.RecFailed, Cell: "bb", Label: "syr2k", Attempt: 1, Err: "boom"},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := store.ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Info.ID != "t1" || rep.Info.SimDigest != "sim1" {
		t.Errorf("replayed info=%+v", rep.Info)
	}
	if rep.Corrupt != 0 || rep.Records != len(recs)+1 {
		t.Errorf("records=%d corrupt=%d, want %d/0", rep.Records, rep.Corrupt, len(recs)+1)
	}
	if _, ok := rep.Done["aa"]; !ok {
		t.Error("done cell missing")
	}
	if m, ok := rep.Failed["bb"]; !ok || m.Err != "boom" {
		t.Errorf("failed cell=%+v ok=%v", m, ok)
	}
	if len(rep.Started) != 2 {
		t.Errorf("started=%d, want 2", len(rep.Started))
	}
}

func TestDoneClearsEarlierFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t1.jsonl")
	j, err := store.CreateJournal(path, testInfo())
	if err != nil {
		t.Fatal(err)
	}
	j.Append(store.Record{T: store.RecFailed, Cell: "aa", Attempt: 1, Err: "transient"})
	j.Append(store.Record{T: store.RecDone, Cell: "aa"})
	j.Close()
	rep, err := store.ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 0 {
		t.Errorf("failed=%v after a later success", rep.Failed)
	}
	if _, ok := rep.Done["aa"]; !ok {
		t.Error("done cell missing")
	}
}

func TestTornFinalRecordToleratedAndResumable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t1.jsonl")
	j, err := store.CreateJournal(path, testInfo())
	if err != nil {
		t.Fatal(err)
	}
	j.Append(store.Record{T: store.RecDone, Cell: "aa", Label: "mm"})
	j.Close()

	// SIGKILL mid-append: a partial record with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(`{"t":"done","cell":"bb","c":"tr`)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rep, err := store.ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 {
		t.Errorf("corrupt=%d, want 1 (the torn record)", rep.Corrupt)
	}
	if _, ok := rep.Done["aa"]; !ok {
		t.Error("intact record lost")
	}
	if _, ok := rep.Done["bb"]; ok {
		t.Error("torn record trusted")
	}

	// Resume appends cleanly past the torn bytes.
	j2, err := store.OpenJournalAppend(path, testInfo())
	if err != nil {
		t.Fatal(err)
	}
	j2.Append(store.Record{T: store.RecDone, Cell: "cc", Label: "pr"})
	j2.Close()
	rep, err = store.ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumes != 1 || rep.Corrupt != 1 {
		t.Errorf("resumes=%d corrupt=%d, want 1/1", rep.Resumes, rep.Corrupt)
	}
	if _, ok := rep.Done["cc"]; !ok {
		t.Error("post-resume record lost")
	}
}

func TestBitFlippedRecordSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t1.jsonl")
	j, err := store.CreateJournal(path, testInfo())
	if err != nil {
		t.Fatal(err)
	}
	j.Append(store.Record{T: store.RecDone, Cell: "aa"})
	j.Append(store.Record{T: store.RecDone, Cell: "bb"})
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the middle line's cell digest while keeping valid JSON:
	// the checksum must catch it.
	mut := strings.Replace(string(data), `"cell":"aa"`, `"cell":"xx"`, 1)
	if mut == string(data) {
		t.Fatal("mutation did not apply")
	}
	if err := os.WriteFile(path, []byte(mut), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := store.ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 {
		t.Errorf("corrupt=%d, want 1", rep.Corrupt)
	}
	if _, ok := rep.Done["xx"]; ok {
		t.Error("bit-flipped record trusted")
	}
	if _, ok := rep.Done["bb"]; !ok {
		t.Error("record after the corrupt line lost")
	}
}

func TestDuplicatedRecordsAreIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t1.jsonl")
	j, err := store.CreateJournal(path, testInfo())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		j.Append(store.Record{T: store.RecDone, Cell: "aa", Label: "mm"})
	}
	j.Close()
	rep, err := store.ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Done) != 1 || rep.Corrupt != 0 {
		t.Errorf("done=%d corrupt=%d, want 1/0", len(rep.Done), rep.Corrupt)
	}
}

func TestCreateRefusesExistingJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t1.jsonl")
	j, err := store.CreateJournal(path, testInfo())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := store.CreateJournal(path, testInfo()); err == nil {
		t.Fatal("overwrote an existing run journal")
	}
}

func TestRunInfoVerify(t *testing.T) {
	a := testInfo()
	if err := a.Verify(a); err != nil {
		t.Errorf("identical params rejected: %v", err)
	}
	// A different simulator digest is NOT a params mismatch (it has its
	// own invalidation path in the store).
	b := a
	b.SimDigest = "other"
	if err := a.Verify(b); err != nil {
		t.Errorf("sim digest change rejected resume: %v", err)
	}
	c := a
	c.Scale = 0.5
	if err := a.Verify(c); err == nil {
		t.Error("scale change accepted")
	}
	d := a
	d.Exps = []string{"fig8"}
	if err := a.Verify(d); err == nil {
		t.Error("experiment-list change accepted")
	}
	e := a
	e.ID = "t2"
	if err := a.Verify(e); err == nil {
		t.Error("run-ID change accepted")
	}
}

// legacyJournal is a run journal exactly as a build with a selectable
// simulation kernel wrote it for `-sim-workers 2`: the header carries
// "simworkers" and every record's checksum covers it.
const legacyJournal = `{"t":"run","run":{"id":"old","sim":"sim1","exps":["fig21"],"gpus":16,"scale":0.02,"seed":1,"workloads":["mm"],"simworkers":2},"c":"f2a9399c45fe9ac9"}
{"t":"start","cell":"aa","label":"mm","attempt":1,"c":"c09bfe2a175b22d7"}
{"t":"done","cell":"aa","label":"mm","ms":12,"c":"fdf9c0aef999d69d"}
`

// TestLegacySimWorkersJournalResumes checks an old journal whose header
// names a kernel worker count still replays (the header checksum covers
// the line's bytes; the decoder drops the unknown field) and resumes
// under a request that carries no such field.
func TestLegacySimWorkersJournalResumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.jsonl")
	if err := os.WriteFile(path, []byte(legacyJournal), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := store.ReplayJournal(path)
	if err != nil {
		t.Fatalf("legacy journal does not replay: %v", err)
	}
	if rep.Corrupt != 0 {
		t.Fatalf("corrupt=%d, want 0", rep.Corrupt)
	}
	if _, ok := rep.Done["aa"]; !ok {
		t.Fatal("done cell missing from legacy journal")
	}
	req := store.RunInfo{
		ID: "old", SimDigest: "sim1", Exps: []string{"fig21"},
		GPUs: 16, Scale: 0.02, Seed: 1, Workloads: []string{"mm"},
	}
	if err := rep.Info.Verify(req); err != nil {
		t.Fatalf("resume of legacy journal refused: %v", err)
	}
	j, err := store.OpenJournalAppend(path, req)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(store.Record{T: store.RecRestored, Cell: "aa", Label: "mm"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err = store.ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 0 || rep.Resumes != 1 {
		t.Errorf("after resume: corrupt=%d resumes=%d, want 0/1", rep.Corrupt, rep.Resumes)
	}
	if _, ok := rep.Restored["aa"]; !ok {
		t.Error("restored cell missing after resume")
	}
}

func TestNilJournalIsNoOp(t *testing.T) {
	var j *store.Journal
	if err := j.Append(store.Record{T: store.RecDone}); err != nil {
		t.Error(err)
	}
	if err := j.Err(); err != nil {
		t.Error(err)
	}
	if err := j.Close(); err != nil {
		t.Error(err)
	}
	if p := j.Path(); p != "" {
		t.Errorf("nil journal path %q", p)
	}
}
