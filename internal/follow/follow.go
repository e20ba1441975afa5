package follow

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"llbp/internal/chaos"
	"llbp/internal/telemetry"
)

// ReadFunc is Log.Read under the log owner's lock.
type ReadFunc[T any] func(pos int) (entries []T, latest T, latestSeq uint64, terminal bool, pulse <-chan struct{})

// Follower serves logs of T to HTTP readers as NDJSON.
type Follower[T any] struct {
	Unit       string // one entry's name ("event", "frame") in cursor errors
	LatestFlag string // query flag opting a follower into the latest entry; "" sends it to all
	// WriteTimeout is each write's deadline; a reader that misses it is
	// dropped as a slow client. 0 sets none.
	WriteTimeout time.Duration
	Chaos        *chaos.Injector // arms the stream.drop site
	Logf         func(format string, args ...any)
	// Stream instruments (nil ones are no-ops); the gap is how many
	// entries a resuming reader was behind.
	Resumes, SlowClients, ChaosDrops *telemetry.Counter
	ResumeGap                        *telemetry.Histogram
}

// Serve streams one log to one reader; name ("job <id>") labels log
// lines. Without ?follow=1 it writes the persisted entries and returns;
// with it, it follows the log, new latest entries included if opted in,
// until the log is terminal and written out or the reader leaves.
// ?from=N resumes after persisted entry N.
func (f *Follower[T]) Serve(w http.ResponseWriter, r *http.Request, name string, read ReadFunc[T]) {
	q := r.URL.Query()
	follow := q.Get("follow") == "1"
	withLatest := follow && (f.LatestFlag == "" || q.Get(f.LatestFlag) == "1")
	pos := 0
	if from := q.Get("from"); from != "" {
		n, err := strconv.Atoi(from)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, "bad from=%q: want a non-negative %s sequence", from, f.Unit)
			return
		}
		pos = n // Seq is the 1-based position, so "after seq N" is index N
	}
	entries, latest, latestSeq, terminal, pulse := read(pos)
	if pos > 0 {
		f.Resumes.Inc()
		f.ResumeGap.Observe(float64(len(entries)))
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	write := func(v T) error {
		if f.Chaos.Fire(chaos.StreamDrop) {
			f.ChaosDrops.Inc()
			f.logf("%s: chaos severed the stream", name)
			//llbplint:allow nopanic -- chaos injection: http.ErrAbortHandler is the stdlib contract for aborting a response mid-stream
			panic(http.ErrAbortHandler)
		}
		if f.WriteTimeout > 0 {
			//llbplint:allow determinism -- socket write deadlines are absolute wall-clock times
			_ = rc.SetWriteDeadline(time.Now().Add(f.WriteTimeout))
		}
		err := encode(enc, v)
		if err != nil && f.WriteTimeout > 0 {
			f.SlowClients.Inc()
			f.logf("%s: dropping stream client: %v", name, err)
		}
		return err
	}

	var sentLatest uint64
	for {
		pos += len(entries)
		for _, v := range entries {
			if err := write(v); err != nil {
				return // reader gone or too slow
			}
		}
		if withLatest && !terminal && latestSeq != sentLatest {
			sentLatest = latestSeq
			if err := write(latest); err != nil {
				return
			}
		}
		_ = rc.Flush()
		if len(entries) == 0 && (terminal || !follow) {
			return // everything written, the terminal entry included
		}
		if follow && !terminal {
			select {
			case <-pulse:
			case <-r.Context().Done():
				return
			}
		} // else loop once more for entries appended meanwhile
		entries, latest, latestSeq, terminal, pulse = read(pos)
	}
}

func (f *Follower[T]) logf(format string, args ...any) {
	if f.Logf != nil {
		f.Logf(format, args...)
	}
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// WriteJSON writes v as a whole JSON response with status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = encode(json.NewEncoder(w), v) // too late to tell the client
}

// WriteError writes the JSON error envelope with status code.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// encode writes v as one JSON line: every JSON body and stream line of
// the job and session APIs.
//
//llbplint:sink -- llbpd's wire bytes are asserted byte-for-byte (served cells against local runs, resumed verdict streams against uninterrupted ones); they must not depend on iteration or arrival order
func encode(enc *json.Encoder, v any) error { return enc.Encode(v) }
