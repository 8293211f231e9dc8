package workload

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"commdb/internal/seqlog"
)

// JournalConfig tunes the flight recorder's durable half.
type JournalConfig struct {
	// Path is the journal file. Rotation renames it to Path + ".1"
	// (replacing any previous rotation) and starts a fresh file.
	Path string
	// MaxBytes bounds one journal file; a record that would push the
	// current file past the bound triggers rotation first. Default
	// 64 MiB.
	MaxBytes int64
	// now overrides the clock in tests; entries with UnixMS already set
	// (synthetic workloads) are never stamped.
	now func() time.Time
}

func (c JournalConfig) withDefaults() JournalConfig {
	if c.MaxBytes <= 0 {
		c.MaxBytes = 64 << 20
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// JournalStats is the journal's exported view, shown in /statsz.
type JournalStats struct {
	Path      string `json:"path"`
	Records   int64  `json:"records"`
	Rotations int64  `json:"rotations"`
	Bytes     int64  `json:"bytes"`
	LastSeq   int64  `json:"last_seq"`
	// WriteErrors counts appends that failed at the filesystem; the
	// journal keeps serving (recording is best-effort observability,
	// never on a query's critical correctness path).
	WriteErrors int64 `json:"write_errors,omitempty"`
}

// Journal is the durable workload log: an append-only NDJSON file of
// CRC-framed entries with single rotation, every offered entry
// recorded — the replay that reads it re-executes arrival order, cache
// hits included. Safe for concurrent use. Appends are single Write calls so a crash
// tears at most the final line; fsync happens on rotation and Close,
// not per record — the journal favors low overhead over zero loss,
// unlike the delta mutation log whose records are source-of-truth.
type Journal struct {
	cfg JournalConfig

	mu          sync.Mutex
	f           *os.File
	size        int64
	seq         int64
	records     int64
	rotations   int64
	writeErrors int64
	closed      bool
}

// OpenJournal opens (creating if absent) the journal at cfg.Path,
// truncates a torn final line and resumes the sequence from the
// existing tail.
func OpenJournal(cfg JournalConfig) (*Journal, error) {
	cfg = cfg.withDefaults()
	if cfg.Path == "" {
		return nil, errors.New("workload: journal path required")
	}
	f, err := os.OpenFile(cfg.Path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{cfg: cfg, f: f}
	if j.seq, j.size, err = seqlog.Resume(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("workload: resuming %s: %v", cfg.Path, err)
	}
	return j, nil
}

// Offer appends one entry to the journal under the next sequence
// number and a timestamp (when UnixMS is unset). Write failures are
// counted, not returned — the flight recorder never fails a query.
func (j *Journal) Offer(e Entry) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	e.Seq = j.seq + 1
	if e.UnixMS == 0 {
		e.UnixMS = j.cfg.now().UnixMilli()
	}
	line, err := EncodeEntry(e)
	if err != nil {
		j.writeErrors++
		return
	}
	line = append(line, '\n')
	if j.size > 0 && j.size+int64(len(line)) > j.cfg.MaxBytes {
		j.rotateLocked()
	}
	n, err := j.f.Write(line)
	j.size += int64(n)
	if err != nil {
		j.writeErrors++
		return
	}
	// A sequence number is spent only by a line that reached the file:
	// readers take a gap for a lost line.
	j.seq = e.Seq
	j.records++
}

// rotateLocked renames the current file to Path+".1" (replacing any
// previous rotation) and starts a fresh one. On failure the journal
// keeps appending to the current file.
func (j *Journal) rotateLocked() {
	_ = j.f.Sync()
	if err := os.Rename(j.cfg.Path, j.cfg.Path+".1"); err != nil {
		j.writeErrors++
		return
	}
	f, err := os.OpenFile(j.cfg.Path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		// The old handle still points at the renamed file; keep using it
		// rather than lose records.
		j.writeErrors++
		return
	}
	j.f.Close()
	j.f = f
	j.size = 0
	j.rotations++
}

// Sync flushes the journal to stable storage.
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	return j.f.Sync()
}

// Close syncs and closes the journal. Further Offers are dropped.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats snapshots the journal's counters.
func (j *Journal) Stats() JournalStats {
	if j == nil {
		return JournalStats{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{
		Path:        j.cfg.Path,
		Records:     j.records,
		Rotations:   j.rotations,
		Bytes:       j.size,
		LastSeq:     j.seq,
		WriteErrors: j.writeErrors,
	}
}

// ReadJournal reads every valid entry from r. A final line without a
// newline — the torn tail of a crashed writer — is silently ignored. A
// complete line that fails its CRC or decode, or whose sequence number
// does not follow its predecessor's, is an error naming the line: unlike
// a torn tail, it means corruption, not a crash. (Rotation means a file
// need not start at 1.)
func ReadJournal(r io.Reader) ([]Entry, error) {
	var out []Entry
	_, _, err := seqlog.Scan(r, 0, func(obj []byte, seq int64) error {
		e, err := entryOf(obj, seq)
		if err == nil {
			out = append(out, e)
		}
		return err
	})
	if err != nil {
		return out, fmt.Errorf("workload: %w", err)
	}
	return out, nil
}

// ReadJournalFile reads one journal file.
func ReadJournalFile(path string) ([]Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJournal(f)
}
