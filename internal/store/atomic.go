// Package store is the durability layer under the sweep engine: an
// on-disk, content-addressed result store plus one append-only log
// (Log), of which the per-run cell Journal is a typed client, so a long
// deterministic campaign survives process death. A crash, OOM kill, or
// SIGKILL at cell 190/200 of `secbench -exp all` loses only the
// in-flight cells; a restarted run rehydrates every persisted result
// from disk and simulates the rest.
//
// Three invariants shape the package:
//
//   - nothing is ever visible half-written: results, journals, and any
//     artifact routed through this package reach their final name only
//     via temp-file + rename (AtomicFile);
//   - nothing corrupt is ever reused: entries carry a format version, a
//     simulator digest, and a payload checksum, and any mismatch
//     quarantines the file and reports a miss instead of serving it;
//   - the journal is evidence, not authority: replaying it tells a
//     resumed run what the previous attempts did (and tolerates a torn
//     final record), but the store's verified entries are what decide
//     whether a cell re-simulates.
package store

import (
	"fmt"
	"os"
	"path/filepath"
)

// AtomicFile is an io.Writer whose contents appear at their final path
// only on Commit, via rename of a same-directory temp file. An
// interrupted write (crash, SIGKILL, full disk) leaves the destination
// untouched — either absent or holding its previous complete contents.
type AtomicFile struct {
	f     *os.File
	path  string
	done  bool
	wrErr error
}

// CreateAtomic starts an atomic write to path, creating parent
// directories as needed.
func CreateAtomic(path string) (*AtomicFile, error) {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	return &AtomicFile{f: f, path: path}, nil
}

// Write appends to the pending temp file.
func (a *AtomicFile) Write(p []byte) (int, error) {
	n, err := a.f.Write(p)
	if err != nil && a.wrErr == nil {
		a.wrErr = err
	}
	return n, err
}

// Commit syncs the temp file and renames it over the destination. After
// Commit the file is durable under its final name or Commit errored and
// the destination is untouched.
func (a *AtomicFile) Commit() error {
	if a.done {
		return fmt.Errorf("store: atomic file for %s already finished", a.path)
	}
	a.done = true
	tmp := a.f.Name()
	if a.wrErr != nil {
		a.f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: write %s: %w", a.path, a.wrErr)
	}
	if err := a.f.Sync(); err != nil {
		a.f.Close()
		os.Remove(tmp)
		return err
	}
	if err := a.f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, a.path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Abort discards the pending write, leaving the destination untouched.
// Abort after Commit is a no-op.
func (a *AtomicFile) Abort() {
	if a.done {
		return
	}
	a.done = true
	tmp := a.f.Name()
	a.f.Close()
	os.Remove(tmp)
}

// WriteFileAtomic writes data to path atomically (temp file + fsync +
// rename). Concurrent writers race safely: one complete version wins.
func WriteFileAtomic(path string, data []byte) error {
	a, err := CreateAtomic(path)
	if err != nil {
		return err
	}
	if _, err := a.Write(data); err != nil {
		a.Abort()
		return err
	}
	return a.Commit()
}
