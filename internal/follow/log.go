// Package follow is llbpd's one sequenced output log and NDJSON
// follower, for job result events and session verdict frames alike. The
// owner embeds a Log under its own mutex and serves it with a Follower.
package follow

// Entry is a log entry type; WithSeq returns the entry numbered seq.
type Entry[T any] interface {
	WithSeq(seq uint64) T
}

// Log is a sequenced output log: persisted entries numbered from 1 and
// replayed to every reader, one ephemeral latest entry with its own
// sequence number for live followers, a terminal flag, and a pulse
// channel closed and replaced to wake waiting followers.
//
//llbplint:leased -- the log is its owner's lease-owned output: an append must be fenced like any other write to the owner
type Log[T Entry[T]] struct {
	entries   []T
	latest    T
	latestSeq uint64
	terminal  bool
	pulse     chan struct{}
}

// NewLog returns an empty log.
func NewLog[T Entry[T]]() Log[T] { return Log[T]{pulse: make(chan struct{})} }

// Append numbers v as the next entry, appends it, wakes followers and
// returns the numbered entry.
func (l *Log[T]) Append(v T) T {
	v = v.WithSeq(uint64(len(l.entries)) + 1)
	l.entries = append(l.entries, v)
	l.Wake()
	return v
}

// Finish appends v as the last entry and marks the log terminal.
func (l *Log[T]) Finish(v T) T {
	l.terminal = true
	return l.Append(v)
}

// SetLatest replaces the latest entry without waking followers; the next
// Append or Wake announces it.
func (l *Log[T]) SetLatest(v T) {
	l.latest = v
	l.latestSeq++
}

// Wake wakes every waiting follower.
func (l *Log[T]) Wake() {
	close(l.pulse)
	l.pulse = make(chan struct{})
}

// Entries returns the log's own slice of persisted entries: read-only.
func (l *Log[T]) Entries() []T { return l.entries }

// Read returns a copy of the persisted entries from position pos on, the
// latest entry and its sequence number, the terminal flag, and the pulse
// the next change closes: one follower iteration.
func (l *Log[T]) Read(pos int) (entries []T, latest T, latestSeq uint64, terminal bool, pulse <-chan struct{}) {
	if pos < len(l.entries) {
		entries = append(entries, l.entries[pos:]...)
	}
	return entries, l.latest, l.latestSeq, l.terminal, l.pulse
}
