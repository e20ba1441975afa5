package session

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestFrameReaderWellFormed(t *testing.T) {
	in := `{"type":"hello","schema":"llbp-session/1"}
{"type":"branch-batch","seq":1,"branches":[{"pc":1024,"taken":true,"instr":7}]}

{"type":"checkpoint"}
{"type":"bye"}
`
	fr := NewFrameReader(strings.NewReader(in))
	types := []string{FrameHello, FrameBranchBatch, FrameCheckpoint, FrameBye}
	for _, want := range types {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("want %s frame: %v", want, err)
		}
		if f.Type != want {
			t.Fatalf("frame type %q, want %q", f.Type, want)
		}
		if want == FrameBranchBatch {
			if f.Seq != 1 || len(f.Branches) != 1 || !f.Branches[0].Taken {
				t.Fatalf("batch payload: %+v", f)
			}
			b := f.Branches[0].Branch()
			if b.PC != 1024 || b.Instructions != 7 || !b.Type.IsConditional() {
				t.Fatalf("converted branch: %+v", b)
			}
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v", err)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("error must be sticky: %v", err)
	}
}

func TestFrameReaderRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   string
	}{
		{"malformed json", "{nope\n"},
		{"form feed line", "\f\n"},
		{"truncated frame", `{"type":"branch-batch","seq":1,"branches":[{"pc"` + "\n"},
		{"unknown type", `{"type":"quux"}` + "\n"},
		{"hello wrong schema", `{"type":"hello","schema":"llbp-session/2"}` + "\n"},
		{"batch no seq", `{"type":"branch-batch","branches":[{"pc":4}]}` + "\n"},
		{"batch empty", `{"type":"branch-batch","seq":3}` + "\n"},
		{"bye with payload", `{"type":"bye","branches":[{"pc":4}]}` + "\n"},
		{"oversized line", `{"type":"hello","schema":"` + strings.Repeat("x", MaxFrameBytes) + `"}` + "\n"},
		{"kind overflows uint8", `{"type":"branch-batch","seq":1,"branches":[{"pc":4,"kind":256}]}` + "\n"},
		{"instr overflows uint32", `{"type":"branch-batch","seq":1,"branches":[{"pc":4,"instr":4294967296}]}` + "\n"},
		{"negative seq", `{"type":"branch-batch","seq":-1,"branches":[{"pc":4}]}` + "\n"},
		{"fractional pc", `{"type":"branch-batch","seq":1,"branches":[{"pc":1.5}]}` + "\n"},
		{"leading zero", `{"type":"branch-batch","seq":01,"branches":[{"pc":4}]}` + "\n"},
	} {
		fr := NewFrameReader(strings.NewReader(tc.in))
		_, err := fr.Next()
		if err == nil || err == io.EOF {
			t.Errorf("%s: accepted (err=%v)", tc.name, err)
			continue
		}
		// Lines encoding/json rejects report its error text verbatim.
		var ref Frame
		if jerr := json.Unmarshal([]byte(tc.in), &ref); jerr != nil {
			if want := "session: malformed frame: " + jerr.Error(); err.Error() != want {
				t.Errorf("%s: error %q, want %q", tc.name, err, want)
			}
		}
	}
}

// extremeFrame has every record field at its largest value, next to a
// record of zero values that encoding/json omits.
var extremeFrame = Frame{Type: FrameBranchBatch, Seq: math.MaxUint64, Branches: []BranchRec{
	{PC: math.MaxUint64, Target: math.MaxUint64, Kind: math.MaxUint8, Taken: true,
		Instructions: math.MaxUint32, TargetMiss: true},
	{},
}}

// TestFrameReaderOwnsBranches pins that each frame owns its Branches: a
// Session keeps applied frames in its tail for drain migration, so
// reading the next frame must not overwrite the previous one's records.
func TestFrameReaderOwnsBranches(t *testing.T) {
	first := Frame{Type: FrameBranchBatch, Seq: 1, Branches: []BranchRec{
		{PC: 0x400000, Target: 0x400100, Kind: 1, Taken: true, Instructions: 3},
		{PC: 0x400200, Kind: 2},
	}}
	second := Frame{Type: FrameBranchBatch, Seq: 2, Branches: []BranchRec{
		{PC: 0x500000, Kind: 1, Instructions: 9},
		{PC: 0x500100, Target: 0x500000, Kind: 3, TargetMiss: true},
	}}
	var in bytes.Buffer
	for _, f := range []Frame{first, second, extremeFrame} {
		line, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := new(FrameReader).decodeFast(line); !ok {
			t.Fatalf("fast path declines canonical frame %s", line)
		}
		in.Write(append(line, '\n'))
	}
	fr := NewFrameReader(&in)
	got1, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	kept := append([]BranchRec(nil), got1.Branches...)
	got2, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got1.Branches, kept) {
		t.Fatalf("frame 1 branches changed by reading frame 2: %+v, want %+v", got1.Branches, kept)
	}
	if !reflect.DeepEqual(got1, first) || !reflect.DeepEqual(got2, second) {
		t.Fatalf("decoded %+v, %+v; want %+v, %+v", got1, got2, first, second)
	}
	got3, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got3, extremeFrame) {
		t.Fatalf("extreme frame round-trip: %+v, want %+v", got3, extremeFrame)
	}
}

// TestFrameReaderFallbackParity feeds valid JSON outside the fast path's
// shape: the fast path must decline each line, and Next must return the
// frame json.Unmarshal decodes from it.
func TestFrameReaderFallbackParity(t *testing.T) {
	for _, tc := range []struct{ name, line string }{
		{"unknown key, nested value", `{"type":"branch-batch","seq":1,"meta":{"a":[1,{"b":null}],"c":"x"},"branches":[{"pc":4}]}`},
		{"null taken", `{"type":"branch-batch","seq":1,"branches":[{"pc":4,"taken":null}]}`},
		{"uppercase keys", `{"Type":"branch-batch","SEQ":2,"branches":[{"PC":4,"Taken":true,"Instr":3}]}`},
		{"escaped type", `{"type":"branch\u002dbatch","seq":1,"branches":[{"pc":4}]}`},
		{"escaped key", `{"type":"branch-batch","s\u0065q":1,"branches":[{"pc":4}]}`},
		{"duplicate seq", `{"type":"branch-batch","seq":1,"seq":2,"branches":[{"pc":4}]}`},
		{"duplicate pc", `{"type":"branch-batch","seq":1,"branches":[{"pc":4,"pc":8,"taken":true}]}`},
		{"duplicate branches", `{"type":"branch-batch","seq":1,"branches":[{"pc":1,"taken":true},{"pc":2}],"branches":[{"pc":3}]}`},
	} {
		if _, ok := new(FrameReader).decodeFast([]byte(tc.line)); ok {
			t.Errorf("%s: fast path accepted %s", tc.name, tc.line)
			continue
		}
		var want Frame
		if err := json.Unmarshal([]byte(tc.line), &want); err != nil {
			t.Fatalf("%s: reference rejects the line: %v", tc.name, err)
		}
		got, err := NewFrameReader(strings.NewReader(tc.line + "\n")).Next()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v, want %+v", tc.name, got, want)
		}
	}
}

// FuzzFrameReader is the llbp-session/1 parser fuzz target: whatever the
// bytes — truncated frames, interleaved sequence numbers, oversized
// batches, binary garbage — the reader must terminate, never panic, and
// only ever return frames that revalidate cleanly.
func FuzzFrameReader(f *testing.F) {
	f.Add([]byte(`{"type":"hello","schema":"llbp-session/1"}` + "\n" +
		`{"type":"branch-batch","seq":1,"branches":[{"pc":64,"taken":true}]}` + "\n"))
	f.Add([]byte(`{"type":"branch-batch","seq":18446744073709551615,"branches":[{"pc":1}]}` + "\n" +
		`{"type":"branch-batch","seq":2,"branches":[{"pc":2}]}` + "\n"))
	f.Add([]byte(`{"type":"branch-batch","seq":1,"branches":[{"pc"`)) // truncated mid-frame
	f.Add([]byte("\x00\xff\xfe{}[]"))
	f.Add([]byte(`{"type":"checkpoint"}` + "\r\n" + `{"type":"drain"}` + "\n\n" + `{"type":"bye"}`))
	f.Add([]byte(`{"type":"hello","schema":"llbp-session/1","seq":0}` + "\n" + `{"type":"bye","branches":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(strings.NewReader(string(data)))
		var frames int
		for {
			fr2, err := fr.Next()
			if err != nil {
				// Errors must be sticky.
				if _, err2 := fr.Next(); err2 != err {
					t.Fatalf("error not sticky: %v then %v", err, err2)
				}
				break
			}
			// Every accepted frame revalidates and survives a JSON
			// round-trip within the parser limits.
			if verr := ValidateFrame(fr2); verr != nil {
				t.Fatalf("reader returned invalid frame %+v: %v", fr2, verr)
			}
			if len(fr2.Branches) > MaxBatchBranches {
				t.Fatalf("reader returned oversized batch: %d", len(fr2.Branches))
			}
			if _, merr := json.Marshal(fr2); merr != nil {
				t.Fatalf("frame does not re-marshal: %v", merr)
			}
			frames++
			if frames > 1<<16 {
				t.Fatal("unbounded frame stream from bounded input")
			}
		}
	})
}

// FuzzFrameDecode holds the reflection-free fast path to encoding/json:
// whenever decodeFast accepts a line, json.Unmarshal must accept it too
// and produce a reflect.DeepEqual frame (which tells a nil Branches from
// an empty one). Lines the fast path declines go to json.Unmarshal in
// FrameReader.Next, so they need no check here.
func FuzzFrameDecode(f *testing.F) {
	canonical, err := json.Marshal(extremeFrame)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(canonical)
	f.Add([]byte(`{"type":"hello","schema":"llbp-session/1"}`))
	f.Add([]byte(`{"type":"branch-batch","seq":1,"branches":[]}`))
	f.Add([]byte(" \t{ \"branches\" : [ { \"taken\" : false , \"pc\" : 0 } ] ,\r\"seq\":7, \"type\":\"drain\" } "))
	f.Add([]byte(`{"type":"branch-batch","seq":1,"branches":[{"pc":4,"pc":8}]}`))
	f.Add([]byte(`{"type":"branch-batch","seq":1,"branches":[{"pc":1,"taken":true}],"branches":[{"pc":3}]}`))
	f.Add([]byte(`{"type":"branch-batch","seq":1,"branches":[{"PC":4}]}`))
	f.Add([]byte(`{"type":"branch\u002dbatch","seq":1,"branches":[{"pc":4}]}`))
	f.Add([]byte(`{"type":"branch-batch","seq":1,"branches":[{"pc":4,"kind":256}]}`))
	f.Add([]byte(`{"type":"branch-batch","seq":01,"branches":[{"pc":4}]}`))
	f.Add([]byte(`{"type":"branch-batch","seq":1,"branches":[{"pc":1e3}]}`))

	f.Fuzz(func(t *testing.T, line []byte) {
		got, ok := new(FrameReader).decodeFast(line)
		if !ok {
			return
		}
		var want Frame
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("fast path accepted %q, json.Unmarshal rejects it: %v", line, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("line %q: fast path %+v, json.Unmarshal %+v", line, got, want)
		}
	})
}

// BenchmarkFrameReader times FrameReader.Next over 512-branch
// branch-batch frames as json.Marshal writes them (Tomcat branches):
// the package-level view of the parse layer perfbench's session workload
// reports as session.parse_ns_per_branch. ns/op is per frame.
func BenchmarkFrameReader(b *testing.B) {
	const batchLen = 512
	var in bytes.Buffer
	frames := testStream(b, 0, 64, batchLen)
	for _, f := range frames {
		line, err := json.Marshal(f)
		if err != nil {
			b.Fatal(err)
		}
		in.Write(append(line, '\n'))
	}
	stream := in.Bytes()
	b.SetBytes(int64(len(stream) / len(frames)))
	b.ReportAllocs()
	b.ResetTimer()
	var fr *FrameReader
	for i := 0; i < b.N; i++ {
		if i%len(frames) == 0 {
			fr = NewFrameReader(bytes.NewReader(stream))
		}
		f, err := fr.Next()
		if err != nil || len(f.Branches) != batchLen {
			b.Fatalf("frame %d: %d branches, %v", i, len(f.Branches), err)
		}
	}
}
