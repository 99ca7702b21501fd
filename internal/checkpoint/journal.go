// Package checkpoint is the durability layer under long-running campaigns
// (DESIGN.md §13): a write-ahead point journal that makes a killed run
// resumable, and a content-addressed result cache that makes finished
// points reusable across campaigns. Both key on the canonical scenario
// hash (experiment.ScenarioHash), so a journal or cache entry can never be
// replayed into a campaign it does not belong to.
//
// The package sits in the deterministic set for repolint purposes —
// everything it writes is a pure function of finished results — but its
// job is durability, and durability barriers (fsync) are inherently
// wall-clock I/O; those sites carry reasoned //repolint:allow annotations
// rather than a package-wide exemption.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/experiment"
)

// Record is one journaled point completion: the point's position in the
// expanded grid, the canonical hash of its (defaulted) scenario, and the
// full replicate vector. One JSONL line per record; the hash lets resume
// verify each record against the grid it is being replayed into.
type Record struct {
	Index   int                 `json:"index"`
	Hash    string              `json:"scenarioHash"`
	Results []experiment.Result `json:"results"`
}

// journalName is the journal file inside a checkpoint directory.
const journalName = "journal.jsonl"

// JournalPath returns the journal file path inside a checkpoint directory.
func JournalPath(dir string) string { return filepath.Join(dir, journalName) }

// Journal is an append-only write-ahead log of finished campaign points.
// Every Append is flushed and fsynced before it returns, so a record the
// caller has seen acknowledged survives a SIGKILL — the property that lets
// the campaign runner hand a point to its sinks only after the journal
// holds it.
type Journal struct {
	f *os.File
}

// OpenJournal opens the journal inside dir, creating the directory as
// needed. With resume false any previous journal is truncated — a fresh
// checkpointed run starts a fresh log; with resume true the records
// LoadJournal replays are preserved and new ones append after them (the
// caller replays the old records first via LoadJournal).
//
// On resume the file is first cut back to the records LoadJournal keeps:
// appending onto a crash-torn tail would fuse the next record with the
// fragment into one unreadable line. The cut needs no sync of its own —
// the next Append's sync makes the new length durable with its record, and
// a crash before then leaves a tail the next resume cuts again.
func OpenJournal(dir string, resume bool) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create dir: %w", err)
	}
	flags := os.O_CREATE | os.O_RDWR | os.O_APPEND
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(JournalPath(dir), flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: open journal: %w", err)
	}
	if resume {
		_, committed, err := scanJournal(f)
		if err == nil {
			if err = f.Truncate(committed); err != nil {
				err = fmt.Errorf("checkpoint: cut torn journal tail: %w", err)
			}
		}
		if err != nil {
			f.Close()
			return nil, err
		}
	}
	return &Journal{f: f}, nil
}

// Append durably records one finished point: the record is marshaled to a
// single JSONL line, written together with its newline in one call, and
// fsynced before Append returns. A crash before the sync returns can leave
// at most a torn final line — one the caller never saw acknowledged —
// which LoadJournal discards.
func (j *Journal) Append(rec Record) error {
	data, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("checkpoint: marshal record %d: %w", rec.Index, err)
	}
	if _, err := j.f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("checkpoint: append record %d: %w", rec.Index, err)
	}
	//repolint:allow detsource the write-ahead contract IS the durability barrier: a record must hit stable storage before sinks may observe its point
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: sync journal: %w", err)
	}
	return nil
}

// Close releases the journal file. Records are already durable (every
// Append syncs), so Close has nothing left to flush.
func (j *Journal) Close() error {
	return j.f.Close()
}

// LoadJournal replays the journal in dir and returns its records in append
// order. A line counts only once its newline is on disk: an unterminated
// final fragment is the residue of a crash mid-Append and is discarded even
// when it parses, as is an unparseable final line; garbage earlier in the
// file is real corruption and fails loudly. A missing journal (or missing
// directory) is an empty history, not an error, so "resume a campaign that
// never checkpointed" degrades to a fresh run.
func LoadJournal(dir string) ([]Record, error) {
	f, err := os.Open(JournalPath(dir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("checkpoint: open journal: %w", err)
	}
	defer f.Close()
	recs, _, err := scanJournal(f)
	return recs, err
}

// scanJournal parses journal lines from r under LoadJournal's rules and
// returns the records kept plus the byte length of the prefix holding
// them, which is where a resumed journal appends.
func scanJournal(r io.Reader) ([]Record, int64, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	var (
		recs       []Record
		off        int64
		committed  int64
		pendingErr error
	)
	for line := 1; ; line++ {
		raw, err := br.ReadBytes('\n')
		if err == io.EOF {
			return recs, committed, nil
		}
		if err != nil {
			return nil, 0, fmt.Errorf("checkpoint: read journal: %w", err)
		}
		if pendingErr != nil {
			// The bad line had successors, so it was not a crash-torn
			// tail: surface the corruption.
			return nil, 0, pendingErr
		}
		off += int64(len(raw))
		if raw = bytes.TrimSpace(raw); len(raw) > 0 {
			var rec Record
			if err := json.Unmarshal(raw, &rec); err != nil {
				pendingErr = fmt.Errorf("checkpoint: journal line %d corrupt: %w", line, err)
				continue
			}
			recs = append(recs, rec)
		}
		committed = off
	}
}

// WriteFileAtomic writes data to path via a temporary file in the same
// directory, fsyncs it, and renames it into place — readers never observe
// a partially-written file, and a crash leaves at most an orphaned
// temporary that later writes overwrite. The cache entries and the
// service daemon's job manifests both publish through it.
func WriteFileAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	//repolint:allow detsource atomic publication requires the bytes durable before the rename makes them visible
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
