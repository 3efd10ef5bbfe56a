package store_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"secmgpu/internal/config"
	"secmgpu/internal/machine"
	"secmgpu/internal/store"
	"secmgpu/internal/sweep"
	"secmgpu/internal/workload"
)

// simResult runs one tiny real simulation so round-trip tests cover the
// full Result shape (histograms, per-node stats, traffic accounting).
func simResult(t testing.TB) (*machine.Result, string) {
	t.Helper()
	spec, err := workload.ByAbbr("mm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default(4)
	cfg.Scale = 0.02
	cfg.Secure = true
	c := sweep.Cell{Spec: spec, Cfg: cfg}
	res, err := sweep.Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	return res, c.Key().Digest()
}

func openStore(t testing.TB, dir, simDigest string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{SimDigest: simDigest})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// resultJSON canonicalizes a result for comparison.
func resultJSON(t *testing.T, res *machine.Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestPutGetRoundTrip(t *testing.T) {
	res, dig := simResult(t)
	st := openStore(t, t.TempDir(), "sim1")
	if err := st.Put(dig, "mm", res); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get(dig)
	if !ok {
		t.Fatal("persisted entry not served")
	}
	if resultJSON(t, got) != resultJSON(t, res) {
		t.Error("round-tripped result differs from the original")
	}
	s := st.Stats()
	if s.Puts != 1 || s.Hits != 1 || s.Misses != 0 || s.Quarantined != 0 {
		t.Errorf("stats=%+v, want 1 put / 1 hit", s)
	}
}

func TestMissingEntryIsMiss(t *testing.T) {
	st := openStore(t, t.TempDir(), "sim1")
	if _, ok := st.Get("no-such-digest"); ok {
		t.Fatal("hit on an empty store")
	}
	if s := st.Stats(); s.Misses != 1 {
		t.Errorf("stats=%+v, want 1 miss", s)
	}
}

// entryPath finds the single object file of a one-entry store.
func entryPath(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("objects glob: %v (%d matches)", err, len(matches))
	}
	return matches[0]
}

func quarantineCount(t *testing.T, dir string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "quarantine", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

func TestTruncatedEntryQuarantines(t *testing.T) {
	res, dig := simResult(t)
	dir := t.TempDir()
	st := openStore(t, dir, "sim1")
	if err := st.Put(dig, "mm", res); err != nil {
		t.Fatal(err)
	}
	path := entryPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(dig); ok {
		t.Fatal("truncated entry served")
	}
	if n := quarantineCount(t, dir); n != 1 {
		t.Errorf("quarantined files=%d, want 1", n)
	}
	// The slot is clear: a second Get is a clean miss and a re-Put works.
	if _, ok := st.Get(dig); ok {
		t.Fatal("quarantined entry re-served")
	}
	if err := st.Put(dig, "mm", res); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(dig); !ok {
		t.Fatal("re-persisted entry not served")
	}
}

func TestBitFlippedPayloadQuarantines(t *testing.T) {
	res, dig := simResult(t)
	dir := t.TempDir()
	st := openStore(t, dir, "sim1")
	if err := st.Put(dig, "mm", res); err != nil {
		t.Fatal(err)
	}
	path := entryPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one digit inside the result payload without breaking JSON.
	flipped := false
	for i := len(data) / 2; i < len(data); i++ {
		if data[i] >= '1' && data[i] <= '8' {
			data[i]++
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("no digit found to flip")
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(dig); ok {
		t.Fatal("bit-flipped entry served")
	}
	if n := quarantineCount(t, dir); n != 1 {
		t.Errorf("quarantined files=%d, want 1", n)
	}
}

func TestSimDigestMismatchInvalidates(t *testing.T) {
	res, dig := simResult(t)
	dir := t.TempDir()
	st1 := openStore(t, dir, "old-binary")
	if err := st1.Put(dig, "mm", res); err != nil {
		t.Fatal(err)
	}
	// The "rebuilt binary" opens the same directory: the old entry must
	// re-simulate, never silently serve.
	st2 := openStore(t, dir, "new-binary")
	if _, ok := st2.Get(dig); ok {
		t.Fatal("entry from a different simulator served")
	}
	if n := quarantineCount(t, dir); n != 1 {
		t.Errorf("quarantined files=%d, want 1", n)
	}
}

func TestWriteFileAtomicLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "table.txt")
	if err := store.WriteFileAtomic(path, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("%d directory entries after atomic write, want 1", len(entries))
	}
	// Overwrite is atomic too.
	if err := store.WriteFileAtomic(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v2" {
		t.Errorf("overwrite read back %q", got)
	}
}

func TestAtomicFileAbortLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.bin")
	a, err := store.CreateAtomic(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write([]byte("partial")); err != nil {
		t.Fatal(err)
	}
	a.Abort()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("%d directory entries after abort, want 0", len(entries))
	}
}
