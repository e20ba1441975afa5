package follow

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"llbp/internal/telemetry"
)

type line struct {
	Seq  uint64 `json:"seq,omitempty"`
	Text string `json:"text"`
}

func (l line) WithSeq(seq uint64) line {
	l.Seq = seq
	return l
}

func newLog() Log[line] { return NewLog[line]() }

// owner is a minimal log owner: a mutex-guarded log.
type owner struct {
	mu  sync.Mutex
	log Log[line]
}

func (o *owner) read(pos int) ([]line, line, uint64, bool, <-chan struct{}) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.log.Read(pos)
}

func (o *owner) do(f func(l *Log[line])) {
	o.mu.Lock()
	f(&o.log)
	o.mu.Unlock()
}

func closed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// TestLogSequencing: entries are numbered from 1, reads copy from the
// cursor on, only Append, Finish and Wake pulse, and Finish is terminal.
func TestLogSequencing(t *testing.T) {
	l := newLog()
	_, _, _, _, p0 := l.Read(0)
	if got := l.Append(line{Text: "a"}); got.Seq != 1 {
		t.Fatalf("first entry numbered %d", got.Seq)
	}
	if !closed(p0) {
		t.Error("Append did not pulse")
	}
	_, _, _, _, p1 := l.Read(0)
	l.SetLatest(line{Text: "live"})
	if closed(p1) {
		t.Error("SetLatest pulsed")
	}
	l.Wake()
	if !closed(p1) {
		t.Error("Wake did not pulse")
	}
	l.Finish(line{Text: "done"})
	entries, latest, latestSeq, terminal, _ := l.Read(1)
	if len(entries) != 1 || entries[0].Seq != 2 || entries[0].Text != "done" {
		t.Errorf("Read(1) = %+v, want the done entry numbered 2", entries)
	}
	if latest.Text != "live" || latestSeq != 1 || !terminal {
		t.Errorf("latest %+v seq %d terminal %v", latest, latestSeq, terminal)
	}
	entries[0].Text = "changed"
	if l.Entries()[1].Text != "done" {
		t.Error("Read returned the log's own backing array")
	}
	if e, _, _, _, _ := l.Read(5); len(e) != 0 {
		t.Errorf("Read past the end returned %d entries", len(e))
	}
}

// TestServe: a snapshot read, a resume with its gap, a bad cursor, and a
// follow that interleaves the latest entry only for readers that opt in
// and ends with the terminal entry.
func TestServe(t *testing.T) {
	reg := telemetry.NewRegistry()
	f := &Follower[line]{Unit: "line", LatestFlag: "live",
		Resumes: reg.Counter("test_stream_resumes"), ResumeGap: reg.Histogram("test_stream_resume_gap_lines", telemetry.ExponentialBuckets(1, 2, 8))}
	o := &owner{log: newLog()}
	o.do(func(l *Log[line]) {
		l.Append(line{Text: "a"})
		l.Append(line{Text: "b"})
		l.Append(line{Text: "c"})
	})
	get := func(query string) (int, string) {
		rec := httptest.NewRecorder()
		f.Serve(rec, httptest.NewRequest(http.MethodGet, "/x"+query, nil), "test", o.read)
		return rec.Code, rec.Body.String()
	}

	if _, body := get(""); strings.Count(body, "\n") != 3 {
		t.Fatalf("snapshot read:\n%s", body)
	}
	_, body := get("?from=1")
	if want := "{\"seq\":2,\"text\":\"b\"}\n{\"seq\":3,\"text\":\"c\"}\n"; body != want {
		t.Errorf("from=1 read = %q, want %q", body, want)
	}
	snap := reg.Snapshot()
	if snap.Counters["test_stream_resumes"] != 1 || snap.Histograms["test_stream_resume_gap_lines"].Sum != 2 {
		t.Errorf("resume counters: %d resumes, gap sum %v; want 1, 2",
			snap.Counters["test_stream_resumes"], snap.Histograms["test_stream_resume_gap_lines"].Sum)
	}
	code, body := get("?from=-1")
	var e errorBody
	if code != http.StatusBadRequest || json.Unmarshal([]byte(body), &e) != nil ||
		!strings.Contains(e.Error, "non-negative line sequence") {
		t.Errorf("bad cursor: %d %s", code, body)
	}

	// A follower that joins a live log at its end, whose next change is
	// the finish: the latest entry is interleaved only for the opted-in
	// reader, then the terminal entry ends both.
	for _, tc := range []struct{ query, want string }{
		{"?from=3&follow=1", "{\"seq\":4,\"text\":\"done\"}\n"},
		{"?from=3&follow=1&live=1", "{\"text\":\"tick\"}\n{\"seq\":4,\"text\":\"done\"}\n"},
	} {
		o := &owner{log: newLog()}
		o.do(func(l *Log[line]) {
			for range 3 {
				l.Append(line{Text: "old"})
			}
			l.SetLatest(line{Text: "tick"})
		})
		read := func(pos int) ([]line, line, uint64, bool, <-chan struct{}) {
			entries, latest, latestSeq, terminal, pulse := o.read(pos)
			if !terminal {
				o.do(func(l *Log[line]) { l.Finish(line{Text: "done"}) })
			}
			return entries, latest, latestSeq, terminal, pulse
		}
		rec := httptest.NewRecorder()
		f.Serve(rec, httptest.NewRequest(http.MethodGet, "/x"+tc.query, nil), "test", read)
		if got := rec.Body.String(); got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.query, got, tc.want)
		}
	}
}
