package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// countLines returns the journal file's complete-line count.
func countLines(t *testing.T, path string) int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(raw), "\n")
}

// TestJournalRecordIdempotent: re-recording a key with identical bytes
// (the crash-between-write-and-fsync resume footprint) appends nothing,
// while a changed value does append and last-write-wins on reload.
func TestJournalRecordIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	type val struct{ N int }
	if err := j.Record("cell-a", val{1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // duplicate re-appends after a resume
		if err := j.Record("cell-a", val{1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := countLines(t, path); got != 1 {
		t.Errorf("journal has %d lines after duplicate records, want 1", got)
	}
	// A genuinely changed value still appends; reload keeps the last.
	if err := j.Record("cell-a", val{2}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := countLines(t, path); got != 2 {
		t.Errorf("journal has %d lines after changed record, want 2", got)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 1 {
		t.Errorf("reloaded journal has %d keys, want 1", j2.Len())
	}
	raw, ok := j2.Lookup("cell-a")
	if !ok || string(raw) != `{"N":2}` {
		t.Errorf("reloaded value = %s, %v; want last write", raw, ok)
	}
}

// TestJournalDuplicateLinesOnDisk: a journal file that already contains
// duplicate complete lines for one key (written by a pre-fix binary or
// assembled by a torn-write/resume sequence) loads cleanly with the last
// value winning, and recording the same value again stays idempotent.
func TestJournalDuplicateLinesOnDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	lines := `{"key":"cell-a","value":{"N":1}}` + "\n" +
		`{"key":"cell-a","value":{"N":1}}` + "\n" +
		`{"key":"cell-a","value":{"N":7}}` + "\n"
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 1 {
		t.Errorf("Len = %d, want 1", j.Len())
	}
	raw, _ := j.Lookup("cell-a")
	if string(raw) != `{"N":7}` {
		t.Errorf("value = %s, want last line to win", raw)
	}
	type val struct{ N int }
	if err := j.Record("cell-a", val{7}); err != nil {
		t.Fatal(err)
	}
	if got := countLines(t, path); got != 3 {
		t.Errorf("journal grew to %d lines on duplicate record, want 3", got)
	}
}

// TestJournalWriteHookTear: the chaos write hook can tear a record
// mid-line; Record surfaces the injected error, the key is not treated
// as durable, and the torn bytes do not swallow the next record. The
// reopened journal holds both intact records, and a clean re-record of
// the torn key succeeds.
func TestJournalWriteHookTear(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	type val struct{ N int }
	if err := j.Record("cell-a", val{1}); err != nil {
		t.Fatal(err)
	}
	j.SetWriteHook(func(line []byte) ([]byte, error) {
		return line[:len(line)/2], fmt.Errorf("chaos: journal torn mid-write")
	})
	if err := j.Record("cell-b", val{2}); err == nil {
		t.Fatal("torn record reported no error")
	}
	if _, ok := j.Lookup("cell-b"); ok {
		t.Error("torn record is visible in the index")
	}
	// Record cut the torn bytes back off the file, so the next record
	// lands on a line of its own instead of fusing with them.
	j.SetWriteHook(nil)
	if err := j.Record("cell-c", val{3}); err != nil {
		t.Fatalf("record after a tear: %v", err)
	}
	j.Close()

	// Restart path: cell-a and cell-c survive, and cell-b records
	// cleanly.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 2 {
		t.Fatalf("reopened journal has %d keys, want 2 (cell-a, cell-c)", j2.Len())
	}
	if err := j2.Record("cell-b", val{2}); err != nil {
		t.Fatal(err)
	}
	if _, ok := j2.Lookup("cell-b"); !ok {
		t.Error("cell-b missing after clean re-record")
	}
	if got := countLines(t, path); got != 3 {
		t.Errorf("repaired journal has %d lines, want 3", got)
	}
}
