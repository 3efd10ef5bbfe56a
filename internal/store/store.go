package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"secmgpu/internal/machine"
)

// FormatVersion is the on-disk entry schema version. Bumping it
// invalidates every existing entry (they quarantine on first read)
// instead of letting an old layout decode into garbage.
const FormatVersion = 1

// Options configures a Store.
type Options struct {
	// SimDigest identifies the simulator that produced the results
	// (normally BinaryDigest()). Entries written under a different
	// digest are invalidated on read: a changed binary re-simulates
	// rather than silently reusing stale results.
	SimDigest string
}

// Stats counts store activity since Open.
type Stats struct {
	// Hits is the number of Gets served by a verified entry.
	Hits int
	// Misses is the number of Gets with no entry on disk.
	Misses int
	// Puts is the number of entries persisted.
	Puts int
	// Quarantined counts entries moved aside instead of served:
	// truncated or bit-flipped files, format or digest mismatches.
	Quarantined int
}

// Store is an on-disk, content-addressed result store. Entries live
// under objects/<2-char shard>/<digest>.json, are written atomically,
// and are verified (format, simulator digest, key digest, payload
// checksum) before being served; anything that fails verification is
// moved to quarantine/ and reported as a miss. It is safe for
// concurrent use, including by multiple processes sharing a directory
// (atomic renames make racing writers converge on one complete entry).
type Store struct {
	dir       string
	simDigest string

	mu    sync.Mutex
	stats Stats
}

// entryFile is the on-disk layout of one persisted result.
type entryFile struct {
	Format    int             `json:"format"`
	SimDigest string          `json:"sim"`
	KeyDigest string          `json:"key"`
	Label     string          `json:"label,omitempty"`
	Checksum  string          `json:"checksum"`
	Result    json.RawMessage `json:"result"`
}

// Open creates (if needed) and returns the store rooted at dir. The
// objects/, quarantine/ and runs/ subdirectories are created by the first
// write that needs each, so opening a fresh store costs one directory.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &Store{dir: dir, simDigest: opts.SimDigest}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the activity counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// JournalPath returns the canonical journal path for a run ID.
func (s *Store) JournalPath(runID string) string {
	return filepath.Join(s.dir, "runs", runID+".jsonl")
}

// ControlLogPath returns the canonical path of the campaign
// coordinator's control journal under this store root.
func (s *Store) ControlLogPath() string {
	return filepath.Join(s.dir, "coordinator.jsonl")
}

// objectPath shards entries by the digest's first two hex chars so no
// single directory grows unboundedly.
func (s *Store) objectPath(keyDigest string) string {
	shard := "xx"
	if len(keyDigest) >= 2 {
		shard = keyDigest[:2]
	}
	return filepath.Join(s.dir, "objects", shard, keyDigest+".json")
}

// Put persists one result under its key digest. The write is atomic: a
// crash mid-Put leaves either no entry or the previous complete one.
func (s *Store) Put(keyDigest, label string, res *machine.Result) error {
	payload, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("store: encode result %s: %w", keyDigest, err)
	}
	sum := sha256.Sum256(payload)
	ent := entryFile{
		Format:    FormatVersion,
		SimDigest: s.simDigest,
		KeyDigest: keyDigest,
		Label:     label,
		Checksum:  hex.EncodeToString(sum[:]),
		Result:    payload,
	}
	data, err := json.Marshal(ent)
	if err != nil {
		return fmt.Errorf("store: encode entry %s: %w", keyDigest, err)
	}
	if err := WriteFileAtomic(s.objectPath(keyDigest), data); err != nil {
		return fmt.Errorf("store: persist %s: %w", keyDigest, err)
	}
	s.mu.Lock()
	s.stats.Puts++
	s.mu.Unlock()
	return nil
}

// Get loads and verifies the entry for keyDigest. It returns (result,
// true) on a verified hit, (nil, false) when no entry exists, and
// (nil, false) after quarantining an entry that exists but fails
// verification — a truncated file, a flipped bit, a different
// simulator, or an older format never reaches the caller.
func (s *Store) Get(keyDigest string) (*machine.Result, bool) {
	path := s.objectPath(keyDigest)
	data, err := os.ReadFile(path)
	if err != nil {
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false
	}
	res, reason := s.decode(keyDigest, data)
	if reason != "" {
		s.quarantine(path, keyDigest)
		return nil, false
	}
	s.count(func(st *Stats) { st.Hits++ })
	return res, true
}

// decode verifies and decodes one entry, returning a non-empty reason
// on any failure. It never panics on arbitrary input (fuzzed).
func (s *Store) decode(keyDigest string, data []byte) (*machine.Result, string) {
	res, reason, stale := s.verifyEntry(keyDigest, data)
	if reason != "" {
		return nil, reason
	}
	if stale {
		return nil, "simulator digest mismatch"
	}
	return res, ""
}

// verifyEntry runs the full verification pass over one entry's bytes:
// format version, key digest, payload checksum, and result decode.
// reason is non-empty for intrinsic corruption; stale flags an entry
// that is internally sound but produced by a different simulator binary
// — wrong for this reader, not damaged (Get treats it as a failure so a
// rebuilt binary re-simulates; Scrub leaves it in place).
func (s *Store) verifyEntry(keyDigest string, data []byte) (res *machine.Result, reason string, stale bool) {
	var ent entryFile
	if err := json.Unmarshal(data, &ent); err != nil {
		return nil, "undecodable entry: " + err.Error(), false
	}
	if ent.Format != FormatVersion {
		return nil, fmt.Sprintf("format %d, want %d", ent.Format, FormatVersion), false
	}
	if ent.KeyDigest != keyDigest {
		return nil, "key digest mismatch", false
	}
	sum := sha256.Sum256(ent.Result)
	if hex.EncodeToString(sum[:]) != ent.Checksum {
		return nil, "payload checksum mismatch", false
	}
	var r machine.Result
	if err := json.Unmarshal(ent.Result, &r); err != nil {
		return nil, "undecodable result: " + err.Error(), false
	}
	return &r, "", ent.SimDigest != s.simDigest
}

// ScrubFinding is one object a scrub pass quarantined.
type ScrubFinding struct {
	Digest string `json:"digest"`
	Reason string `json:"reason"`
}

// ScrubReport summarizes one walk of the object tree.
type ScrubReport struct {
	// Scanned counts objects examined; Healthy verified completely.
	Scanned int `json:"scanned"`
	Healthy int `json:"healthy"`
	// Stale objects are internally sound but written by a different
	// simulator binary; they are left in place (staleness is relative to
	// the reader — Get invalidates them lazily when a run cares).
	Stale int `json:"stale"`
	// Quarantined objects failed intrinsic verification (truncation,
	// flipped bits, checksum or key mismatch) and were moved aside.
	Quarantined int `json:"quarantined"`
	// Bad lists the quarantined objects with their failure reasons.
	Bad []ScrubFinding `json:"bad,omitempty"`
}

// Scrub walks every object in the store and re-runs the same
// verification Get applies, quarantining intrinsic corruption — bit rot
// is found proactively, at rest, instead of on first use. Entries from a
// different simulator binary are counted stale but left alone. Safe to
// run concurrently with readers and writers: verification works on a
// read snapshot of each file and quarantine is an atomic rename.
func (s *Store) Scrub() (ScrubReport, error) {
	var rep ScrubReport
	root := filepath.Join(s.dir, "objects")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return nil
		}
		digest := strings.TrimSuffix(filepath.Base(path), ".json")
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil // vanished mid-walk (concurrent quarantine/rewrite)
		}
		rep.Scanned++
		_, reason, stale := s.verifyEntry(digest, data)
		switch {
		case reason != "":
			s.quarantine(path, digest)
			rep.Quarantined++
			rep.Bad = append(rep.Bad, ScrubFinding{Digest: digest, Reason: reason})
		case stale:
			rep.Stale++
		default:
			rep.Healthy++
		}
		return nil
	})
	return rep, err
}

// QuarantineObject moves the entry for keyDigest (if present) into
// quarantine/, reporting whether an object was there to move. Used when
// an authority above the store — a verification quorum — establishes
// that a stored value, though internally consistent, is wrong.
func (s *Store) QuarantineObject(keyDigest string) bool {
	path := s.objectPath(keyDigest)
	if _, err := os.Stat(path); err != nil {
		return false
	}
	s.quarantine(path, keyDigest)
	return true
}

// quarantine moves a failed entry aside so the next Put can rewrite the
// slot and the bad bytes remain inspectable.
func (s *Store) quarantine(path, keyDigest string) {
	dst := filepath.Join(s.dir, "quarantine", keyDigest+".json")
	_ = os.Mkdir(filepath.Dir(dst), 0o755) // exists after the first quarantine
	if err := os.Rename(path, dst); err != nil {
		// Rename across a damaged FS can fail; removing still unblocks
		// re-simulation, and failing that the entry re-quarantines on
		// the next Get.
		os.Remove(path)
	}
	s.count(func(st *Stats) { st.Quarantined++; st.Misses++ })
}

func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}
