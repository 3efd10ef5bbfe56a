package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
)

// logRecord is one line of a control Log as replay decodes it: a record
// type and an opaque JSON payload.
type logRecord struct {
	T string          `json:"t"`
	D json.RawMessage `json:"d,omitempty"`
}

// Log is the package's append-only JSONL write-ahead log. Each line is a
// compact JSON object ending in its own checksum field "c": the hex of
// the first 8 bytes of SHA-256 over the line's bytes without that field,
// so a bit-flipped line is detected on replay instead of trusted. Every
// append is fsynced, so after a SIGKILL at most the final record is
// torn, which replay tolerates. The campaign coordinator's control log
// is a Log; a run Journal is a typed client of one. A nil *Log is a
// valid no-op sink, so callers journal unconditionally.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	path string
	err  error
}

// OpenLog opens (creating if needed) the log at path for appending; a
// control log accretes across restarts of the same service.
func OpenLog(path string) (*Log, error) {
	return openLog(path, os.O_CREATE)
}

// openLog opens path for appending with the extra open flags, creating
// its directory if needed. A newline isolates a torn final record left by
// a crash, so this process's records start on a fresh line.
func openLog(path string, flag int) (*Log, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|flag, 0o644)
	if err != nil {
		return nil, err
	}
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		if _, err := f.Write([]byte("\n")); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &Log{f: f, path: path}, nil
}

// Path returns the log's file path ("" for a nil log).
func (l *Log) Path() string {
	if l == nil {
		return ""
	}
	return l.path
}

// Append encodes v as the payload of one typ record (no payload when v
// is nil) and writes it with an fsync. Errors are sticky (also from
// Err); journaling failures must never fail the service itself, so
// callers may ignore them and surface Err once.
func (l *Log) Append(typ string, v any) error {
	// The payload encodes exactly as logRecord.D replays it.
	return l.write(struct {
		T string `json:"t"`
		D any    `json:"d,omitempty"`
	}{typ, v})
}

// write encodes rec as one checksummed line and appends it with an
// fsync; the first failure sticks.
func (l *Log) write(rec any) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	obj, err := json.Marshal(rec)
	if err == nil {
		_, err = l.f.Write(seal(obj))
	}
	if err == nil {
		err = l.f.Sync()
	}
	l.err = err
	return err
}

// Err returns the first append failure, if any.
func (l *Log) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close closes the log file.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// checksumField opens the field that ends every log line.
const checksumField = `,"c":"`

// checksum returns the hex of the first 8 bytes of obj's SHA-256.
func checksum(obj []byte) [16]byte {
	sum := sha256.Sum256(obj)
	var h [16]byte
	hex.Encode(h[:], sum[:8])
	return h
}

// seal turns obj, a compact JSON object, into one log line: obj with its
// checksum field spliced in before the closing brace, and a newline.
func seal(obj []byte) []byte {
	h := checksum(obj)
	line := append(obj[:len(obj)-1], checksumField...)
	line = append(line, h[:]...)
	return append(line, "\"}\n"...)
}

// unseal verifies line's checksum field and returns the object it
// covers: the line without that field. It rewrites line in place.
func unseal(line []byte) ([]byte, bool) {
	n := len(line) - len(checksumField) - 18 // 16 hex digits and `"}`
	if n < 1 || !bytes.HasPrefix(line[n:], []byte(checksumField)) || !bytes.HasSuffix(line, []byte(`"}`)) {
		return nil, false
	}
	obj := append(line[:n], '}')
	h := checksum(obj)
	return obj, bytes.Equal(h[:], line[n+len(checksumField):len(line)-2])
}

// maxLine bounds a replayed line; a longer one (such as a run of NUL
// bytes left by a crash) counts corrupt and replay moves on.
const maxLine = 16 << 20

// replayLines scans the log at path. Blank lines are skipped. A line
// whose checksum verifies is handed to fn as the object it covers (valid
// until fn returns) and counts in records when fn decodes it; every other
// line counts in corrupt. It never panics on arbitrary bytes, and a read
// error ends the scan like the end of the file.
func replayLines(path string, fn func(obj []byte) bool) (records, corrupt int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)
	var long []byte // a line longer than br's buffer, kept up to just past maxLine
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull || long != nil {
			if len(long) <= maxLine {
				long = append(long, line...)
			}
			if err == bufio.ErrBufferFull {
				continue
			}
			line, long = long, nil
		}
		if line = bytes.TrimSpace(line); len(line) > 0 {
			if obj, ok := unseal(line); ok && len(line) <= maxLine && fn(obj) {
				records++
			} else {
				corrupt++
			}
		}
		if err != nil {
			return records, corrupt, nil
		}
	}
}

// ReplayLog reads a control log, invoking fn for every verified record
// in order. It tolerates a torn, bit-flipped or over-long record
// anywhere in the file (counted in corrupt, skipped) and never panics on
// arbitrary bytes. A missing file is an empty log, not an error — the
// natural first boot of a durable service.
func ReplayLog(path string, fn func(typ string, data json.RawMessage)) (records, corrupt int, err error) {
	records, corrupt, err = replayLines(path, func(obj []byte) bool {
		var rec logRecord
		if json.Unmarshal(obj, &rec) != nil {
			return false
		}
		fn(rec.T, rec.D)
		return true
	})
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	return records, corrupt, err
}
