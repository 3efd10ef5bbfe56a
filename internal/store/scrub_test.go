package store_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"secmgpu/internal/store"
)

// objectFile locates the on-disk entry for a digest.
func objectFile(t *testing.T, dir, digest string) string {
	t.Helper()
	return filepath.Join(dir, "objects", digest[:2], digest+".json")
}

func TestScrubQuarantinesCorruptionInPlace(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SimDigest: "sim-a"})
	if err != nil {
		t.Fatal(err)
	}
	digests := []string{"aa11", "bb22", "cc33"}
	for _, d := range digests {
		if err := st.Put(d, "mm", nil); err != nil {
			t.Fatal(err)
		}
	}

	// Flip a byte in one entry's payload: intrinsic corruption at rest.
	victim := objectFile(t, dir, "bb22")
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := st.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 3 || rep.Healthy != 2 || rep.Quarantined != 1 || rep.Stale != 0 {
		t.Fatalf("scrub report = %+v, want 3 scanned / 2 healthy / 1 quarantined", rep)
	}
	if len(rep.Bad) != 1 || rep.Bad[0].Digest != "bb22" || rep.Bad[0].Reason == "" {
		t.Fatalf("Bad = %+v, want the corrupted digest with a reason", rep.Bad)
	}
	if _, err := os.Stat(victim); !os.IsNotExist(err) {
		t.Fatal("corrupted object still in objects/ after scrub")
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", "bb22.json")); err != nil {
		t.Fatalf("corrupted object not moved to quarantine/: %v", err)
	}

	// A second pass over the healed tree finds nothing new.
	rep2, err := st.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Scanned != 2 || rep2.Quarantined != 0 {
		t.Fatalf("second scrub = %+v, want 2 scanned / 0 quarantined", rep2)
	}
}

// A different simulator binary's entries are wrong for this reader but
// not damaged: the scrubber counts them stale and leaves them on disk
// (Get invalidates them lazily when a run actually wants the slot).
func TestScrubLeavesOtherSimulatorEntriesInPlace(t *testing.T) {
	dir := t.TempDir()
	stA, err := store.Open(dir, store.Options{SimDigest: "sim-a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := stA.Put("dd44", "mm", nil); err != nil {
		t.Fatal(err)
	}

	stB, err := store.Open(dir, store.Options{SimDigest: "sim-b"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := stB.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 1 || rep.Stale != 1 || rep.Quarantined != 0 {
		t.Fatalf("scrub report = %+v, want 1 scanned / 1 stale / 0 quarantined", rep)
	}
	if _, err := os.Stat(objectFile(t, dir, "dd44")); err != nil {
		t.Fatalf("stale entry was removed from objects/: %v", err)
	}

	// The producing binary still verifies it completely.
	if repA, err := stA.Scrub(); err != nil || repA.Healthy != 1 {
		t.Fatalf("producer scrub = %+v (err %v), want 1 healthy", repA, err)
	}
}

func TestQuarantineObjectEvictsAdmittedEntry(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SimDigest: "sim-a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("ee55", "mm", nil); err != nil {
		t.Fatal(err)
	}
	if !st.QuarantineObject("ee55") {
		t.Fatal("QuarantineObject found nothing to move")
	}
	if _, ok := st.Get("ee55"); ok {
		t.Fatal("quarantined object still served")
	}
	if st.QuarantineObject("ee55") {
		t.Fatal("second QuarantineObject reported an object")
	}
	ents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(ents) != 1 || !strings.HasPrefix(ents[0].Name(), "ee55") {
		t.Fatalf("quarantine/ = %v (err %v), want the evicted entry", ents, err)
	}
}

// A fresh store holds only its root: subdirectories appear with the first
// write that needs them, and reads, scrubs and journals work before that.
func TestOpenCreatesOnlyTheRoot(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "st")
	st, err := store.Open(dir, store.Options{SimDigest: "sim-a"})
	if err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("fresh store holds %v (err %v), want an empty root", ents, err)
	}
	if _, ok := st.Get("aa11"); ok {
		t.Fatal("Get on a fresh store hit")
	}
	if rep, err := st.Scrub(); err != nil || rep.Scanned != 0 {
		t.Fatalf("Scrub on a fresh store = %+v, %v; want nothing scanned", rep, err)
	}
	j, err := store.CreateJournal(st.JournalPath("r1"), store.RunInfo{})
	if err != nil {
		t.Fatalf("journal on a fresh store: %v", err)
	}
	j.Close()
}
