package session

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
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
	var oversized bytes.Buffer
	if err := json.NewEncoder(&oversized).Encode(Frame{Type: FrameBranchBatch, Seq: 1,
		Branches: make([]BranchRec, MaxBatchBranches+1)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := decodeFast(bytes.TrimSuffix(oversized.Bytes(), []byte("\n"))); ok {
		t.Errorf("fast path accepted a batch of %d records", MaxBatchBranches+1)
	}
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
		{"oversized batch", oversized.String()},
		{"a million braces", `{"type":"branch-batch","seq":1,"branches":[` + strings.Repeat("{", 1_048_000) + "\n"},
	} {
		fr := NewFrameReader(strings.NewReader(tc.in))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := fr.Next()
		runtime.ReadMemStats(&after)
		if err == nil || err == io.EOF {
			t.Errorf("%s: accepted (err=%v)", tc.name, err)
			continue
		}
		// The scanner's buffer grows by about 2 MiB to hold a long line.
		// Records sized by an uncapped '{' count would take 33 MB on the
		// million-brace line.
		if n := after.TotalAlloc - before.TotalAlloc; n > 4<<20 {
			t.Errorf("%s: Next allocated %d bytes, want at most 4 MiB", tc.name, n)
		}
		// Lines encoding/json rejects report its error text verbatim;
		// lines it decodes within the size cap report ValidateFrame's.
		var ref Frame
		if jerr := json.Unmarshal([]byte(tc.in), &ref); jerr != nil {
			if want := "session: malformed frame: " + jerr.Error(); err.Error() != want {
				t.Errorf("%s: error %q, want %q", tc.name, err, want)
			}
		} else if verr := ValidateFrame(ref); len(tc.in) <= MaxFrameBytes && (verr == nil || err.Error() != verr.Error()) {
			t.Errorf("%s: error %q, want ValidateFrame's %v", tc.name, err, verr)
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

// recordCombos returns one record for each subset of BranchRec's
// fields: record m sets field i iff bit i of m is set. Record 0 is the
// zero record, and the 64 records hold every combination of the five
// omitempty fields, with and without a pc. A field added to BranchRec
// joins the combinations, or fails here if no test value suits its
// kind, so TestFrameReaderOwnsBranches fails until the fast path
// learns it.
func recordCombos(t testing.TB) []BranchRec {
	typ := reflect.TypeOf(BranchRec{})
	recs := make([]BranchRec, 1<<typ.NumField())
	for m := range recs {
		v := reflect.ValueOf(&recs[m]).Elem()
		for i := 0; i < typ.NumField(); i++ {
			if m>>i&1 == 0 {
				continue
			}
			switch f := v.Field(i); f.Kind() {
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Uint8, reflect.Uint32, reflect.Uint64:
				f.SetUint(uint64(m))
			default:
				t.Fatalf("BranchRec.%s: no test value for a %s", typ.Field(i).Name, f.Kind())
			}
		}
	}
	return recs
}

// TestFrameReaderOwnsBranches pins that the fast path accepts every
// client frame encoding/json writes, and that each frame owns its
// Branches, as a frame json.Unmarshal decodes does: a caller may keep a
// frame, so reading the next frame must not overwrite the previous one's
// records.
func TestFrameReaderOwnsBranches(t *testing.T) {
	first := Frame{Type: FrameBranchBatch, Seq: 1, Branches: []BranchRec{
		{PC: 0x400000, Target: 0x400100, Kind: 1, Taken: true, Instructions: 3},
		{PC: 0x400200, Kind: 2},
	}}
	second := Frame{Type: FrameBranchBatch, Seq: 2, Branches: []BranchRec{
		{PC: 0x500000, Kind: 1, Instructions: 9},
		{PC: 0x500100, Target: 0x500000, Kind: 3, TargetMiss: true},
	}}
	frames := []Frame{
		first, second,
		{Type: FrameHello, Schema: Schema},
		{Type: FrameBranchBatch, Seq: 3, Branches: recordCombos(t)},
		extremeFrame,
		{Type: FrameCheckpoint},
		{Type: FrameDrain},
		{Type: FrameBye},
	}
	// A field added to Frame must be set by some frame above.
	typ := reflect.TypeOf(Frame{})
	for i := 0; i < typ.NumField(); i++ {
		set := false
		for _, f := range frames {
			set = set || !reflect.ValueOf(f).Field(i).IsZero()
		}
		if !set {
			t.Errorf("no test frame sets Frame.%s", typ.Field(i).Name)
		}
	}
	var in bytes.Buffer
	for _, f := range frames {
		line, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := decodeFast(line); !ok {
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
	for i, got := range []Frame{got1, got2} {
		if !reflect.DeepEqual(got, frames[i]) {
			t.Fatalf("frame %d decoded as %+v, want %+v", i+1, got, frames[i])
		}
	}
	for i := 2; i < len(frames); i++ {
		got, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, frames[i]) {
			t.Fatalf("frame %d decoded as %+v, want %+v", i+1, got, frames[i])
		}
	}
}

// TestBranchRecSize pins a record at 24 bytes: its three one-byte
// fields sit together, so padding adds 1 byte to its 23 rather than 9.
// Every decoded frame allocates one record per branch.
func TestBranchRecSize(t *testing.T) {
	if got := unsafe.Sizeof(BranchRec{}); got != 24 {
		t.Fatalf("BranchRec is %d bytes, want 24", got)
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
		{"space after colon", `{"type": "branch-batch","seq": 1,"branches": [{"pc": 4,"taken": true}]}`},
		{"space after comma", `{"type":"branch-batch", "seq":1, "branches":[{"pc":4, "taken":true}, {"pc":8}]}`},
		{"record keys out of order", `{"type":"branch-batch","seq":1,"branches":[{"pc":4,"taken":true,"kind":2}]}`},
		{"pc after target", `{"type":"branch-batch","seq":1,"branches":[{"target":8,"pc":4}]}`},
		{"frame keys out of order", `{"seq":1,"type":"branch-batch","branches":[{"pc":4}]}`},
		{"explicit taken false", `{"type":"branch-batch","seq":1,"branches":[{"pc":4,"taken":false}]}`},
		{"explicit target_miss false", `{"type":"branch-batch","seq":1,"branches":[{"pc":4,"target_miss":false}]}`},
		{"instr before target_miss", `{"type":"branch-batch","seq":1,"branches":[{"pc":4,"taken":true,"instr":7,"target_miss":true}]}`},
	} {
		if _, ok := decodeFast([]byte(tc.line)); ok {
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
	// The scan's edges: the largest value of each field and one past it
	// (kind 256 and the empty array are above), and a '{' in the type
	// string, before the array whose '{' bytes size the records.
	f.Add([]byte(`{"type":"branch-batch","seq":1,"branches":[{"pc":18446744073709551615}]}`))
	f.Add([]byte(`{"type":"branch-batch","seq":1,"branches":[{"pc":18446744073709551616}]}`))
	f.Add([]byte(`{"type":"branch-batch","seq":1,"branches":[{"pc":4,"kind":255}]}`))
	f.Add([]byte(`{"type":"branch-batch","seq":1,"branches":[{"pc":4,"instr":4294967295}]}`))
	f.Add([]byte(`{"type":"branch-batch","seq":1,"branches":[{"pc":4,"instr":4294967296}]}`))
	f.Add([]byte(`{"type":"branch{batch","seq":1,"branches":[{"pc":4},{"pc":8}]}`))
	// A record in the key order written before target_miss moved next to
	// taken: declined, and decoded by json.Unmarshal.
	f.Add([]byte(`{"type":"branch-batch","seq":1,"branches":[{"pc":4,"taken":true,"instr":7,"target_miss":true}]}`))

	f.Fuzz(func(t *testing.T, line []byte) {
		got, ok := decodeFast(line)
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
// branch-batch frames of Tomcat branches: the package-level view of the
// parse layer perfbench's session workload reports as
// session.parse_ns_per_branch. ns/op is per frame.
//   - canonical: the lines as json.Marshal writes them, which decodeFast
//     accepts;
//   - fallback: the same lines with a space after every ':', which
//     decodeFast declines, so json.Unmarshal decodes them.
func BenchmarkFrameReader(b *testing.B) {
	const batchLen = 512
	frames := testStream(b, 0, 64, batchLen)
	for _, tc := range []struct {
		name  string
		shape func([]byte) []byte
	}{
		{"canonical", func(line []byte) []byte { return line }},
		{"fallback", func(line []byte) []byte { return bytes.ReplaceAll(line, []byte(":"), []byte(": ")) }},
	} {
		var in bytes.Buffer
		for _, f := range frames {
			line, err := json.Marshal(f)
			if err != nil {
				b.Fatal(err)
			}
			in.Write(append(tc.shape(line), '\n'))
		}
		stream := in.Bytes()
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(stream) / len(frames)))
			b.ReportAllocs()
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
		})
	}
}
