package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// Journal is an append-only JSON-lines checkpoint of completed cells:
// one record per line, {"key": <cell key>, "value": <cell value>}. A suite
// killed mid-flight leaves at most one truncated trailing line, which
// loading tolerates; every fully recorded cell is skipped on resume.
type Journal struct {
	mu        sync.Mutex
	f         *os.File
	w         *bufio.Writer
	size      int64 // length of the file's whole lines: where the next line starts
	done      map[string]json.RawMessage
	path      string
	writeHook func(line []byte) ([]byte, error)
}

// journalRecord is the on-disk line format.
type journalRecord struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// OpenJournal loads the completed-cell records at path (if any) and opens
// the file for appending. Corrupt lines are skipped, and a truncated
// final line — the footprint of a process killed mid-write — is dropped
// and physically truncated away, so the next append starts on a fresh
// line instead of gluing itself onto the partial record. A journal
// written by an interrupted run is therefore always usable and never
// self-poisoning.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{done: make(map[string]json.RawMessage), path: path}
	keep := int64(-1) // file length to truncate to, when a partial tail exists
	if raw, err := os.ReadFile(path); err == nil {
		start := 0
		for i := 0; i <= len(raw); i++ {
			if i < len(raw) && raw[i] != '\n' {
				continue
			}
			line := raw[start:i]
			start = i + 1
			if len(line) == 0 {
				continue
			}
			var rec journalRecord
			if err := json.Unmarshal(line, &rec); err != nil || rec.Key == "" {
				continue // truncated tail or corrupt line: ignore
			}
			j.done[rec.Key] = rec.Value
		}
		if len(raw) > 0 && raw[len(raw)-1] != '\n' {
			// Partial trailing line: truncate back to the last newline
			// (or to empty when the file never completed a line).
			keep = int64(bytes.LastIndexByte(raw, '\n') + 1)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("harness: reading journal %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("harness: opening journal %s: %w", path, err)
	}
	if keep >= 0 {
		if err := f.Truncate(keep); err != nil {
			f.Close()
			return nil, fmt.Errorf("harness: repairing journal %s: %w", path, err)
		}
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("harness: opening journal %s: %w", path, err)
	}
	j.f = f
	j.w = bufio.NewWriter(f)
	j.size = size
	return j, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Len returns the number of completed cells currently recorded.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Lookup returns the journaled value for key, if present.
func (j *Journal) Lookup(key string) (json.RawMessage, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	raw, ok := j.done[key]
	return raw, ok
}

// Each calls fn for every recorded cell, in sorted key order (so
// consumers replaying the journal are deterministic). The journal lock is
// held for the duration; fn must not call back into the journal.
func (j *Journal) Each(fn func(key string, value json.RawMessage)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	keys := make([]string, 0, len(j.done))
	for k := range j.done {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fn(k, j.done[k])
	}
}

// SetWriteHook installs fn as the journal's write interceptor: every
// encoded record line (trailing newline included) passes through fn
// before hitting the file, and fn's error is surfaced by Record after
// whatever bytes fn returned have landed and been cut back off, as any
// failed write is. It exists for the chaos harness, whose journal-tear
// event returns a truncated line plus an error: a write torn mid-line.
// A nil fn removes the hook.
func (j *Journal) SetWriteHook(fn func(line []byte) ([]byte, error)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.writeHook = fn
}

// Record appends a completed cell and syncs it to disk (buffer flush plus
// file fsync on the record boundary), so a kill — or a whole-machine
// crash — after Record never loses the cell. Record is idempotent: a key
// already journaled with byte-identical value is skipped, so a resumed
// run that re-records cells it could not prove durable (crash between
// write and fsync) does not accumulate duplicate lines. A write that
// fails or tears is cut back off the file before Record returns its
// error, so the next record starts on a fresh line rather than fusing
// with the partial one into a line loading would skip.
//
//llbplint:sink -- journal bytes are replayed for exactly-once resume; they must be identical across runs
func (j *Journal) Record(key string, value any) error {
	raw, err := json.Marshal(value)
	if err != nil {
		return fmt.Errorf("harness: journaling %q: %w", key, err)
	}
	line, err := json.Marshal(journalRecord{Key: key, Value: raw})
	if err != nil {
		return fmt.Errorf("harness: journaling %q: %w", key, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("harness: journal %s is closed", j.path)
	}
	if prev, ok := j.done[key]; ok && bytes.Equal(prev, raw) {
		return nil // duplicate re-append after resume: already durable
	}
	buf := append(line, '\n')
	if j.writeHook != nil {
		buf, err = j.writeHook(buf)
	}
	if werr := j.writeLine(buf); err == nil {
		err = werr
	}
	if err != nil {
		if rerr := j.rewind(); rerr != nil {
			// The partial line stays; a later record would fuse onto
			// it, so the journal accepts no more.
			j.f.Close()
			j.f = nil
			err = fmt.Errorf("%w; cutting the partial line failed, journal closed: %v", err, rerr)
		}
		return fmt.Errorf("harness: journaling %q: %w", key, err)
	}
	j.size += int64(len(buf))
	j.done[key] = raw
	return nil
}

// writeLine writes, flushes and fsyncs buf. Caller holds j.mu.
func (j *Journal) writeLine(buf []byte) error {
	if _, err := j.w.Write(buf); err != nil {
		return err
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("syncing: %w", err)
	}
	return nil
}

// rewind cuts the file back to its whole lines and discards whatever
// the buffered writer still holds, clearing the error a failed flush
// leaves sticky in it. Caller holds j.mu.
func (j *Journal) rewind() error {
	j.w.Reset(j.f)
	if err := j.f.Truncate(j.size); err != nil {
		return err
	}
	_, err := j.f.Seek(j.size, io.SeekStart)
	return err
}

// Close flushes and closes the journal file. The in-memory index stays
// readable.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.w.Flush()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
