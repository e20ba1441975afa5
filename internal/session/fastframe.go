package session

import (
	"bytes"
	"math"
)

// decodeFast decodes one NDJSON line without reflection when it holds
// the bytes encoding/json writes for a Frame, and reports false for
// anything else. FrameReader.Next then runs json.Unmarshal on the line,
// which stays the only decoder for other shapes, the source of every
// error text, and the reference FuzzFrameDecode holds this one to:
// whenever decodeFast accepts a line, json.Unmarshal accepts it too and
// yields a reflect.DeepEqual frame.
//
// The line is read in one forward scan of encoding/json's layout: no
// whitespace; the keys of Frame and BranchRec in struct-field order,
// each omitempty one optional; strings of printable ASCII without
// escapes; unsigned integers as strconv writes them, each within its
// field; booleans only as true, since encoding/json omits false. Every
// in-repo producer writes that layout (json.Marshal or json.Encoder of a
// Frame). Declining is always safe, so anything else — whitespace, keys
// out of order, unknown or repeated keys, escapes, null, false,
// overflow — is declined rather than reimplemented.
//
// The records decode straight into the frame's own slice, sized by the
// '{' bytes after the array opens (one per record in an accepted line).
// A line with more of them than MaxBatchBranches declines before
// anything is allocated; json.Unmarshal then decodes it, and
// ValidateFrame rejects the batch.
func decodeFast(line []byte) (Frame, bool) {
	s := scan{b: line}
	var f Frame
	ok := s.lit(`{"type":"`) && s.text(&f.Type) &&
		(!s.lit(`,"schema":"`) || s.text(&f.Schema)) &&
		(!s.lit(`,"seq":`) || s.uint(&f.Seq, math.MaxUint64)) &&
		(!s.lit(`,"branches":[`) || s.records(&f.Branches)) &&
		s.lit(`}`) && s.i == len(line)
	return f, ok
}

// scan is a cursor over one line.
type scan struct {
	b []byte
	i int
}

// lit consumes l if the line continues with it.
func (s *scan) lit(l string) bool {
	if rest := s.b[s.i:]; len(rest) >= len(l) && string(rest[:len(l)]) == l {
		s.i += len(l)
		return true
	}
	return false
}

// records decodes the record array after its '[' into an exact-length
// slice. One literal closes a record and opens the next: at 8 bytes,
// `},{"pc":` compiles to a single word compare.
func (s *scan) records(dst *[]BranchRec) bool {
	n := bytes.Count(s.b[s.i:], []byte{'{'})
	if n == 0 || n > MaxBatchBranches {
		return false
	}
	recs := make([]BranchRec, n)
	ok := s.lit(`{"pc":`)
	for k := 0; ok && k < n; k++ {
		ok = (k == 0 || s.lit(`},{"pc":`)) && s.record(&recs[k])
	}
	*dst = recs
	return ok && s.lit(`}]`)
}

// record decodes one record's values from its pc on: each omitempty
// field that is present follows in struct order.
func (s *scan) record(r *BranchRec) bool {
	var kind, instr uint64
	ok := s.uint(&r.PC, math.MaxUint64) &&
		(!s.lit(`,"target":`) || s.uint(&r.Target, math.MaxUint64)) &&
		(!s.lit(`,"kind":`) || s.uint(&kind, math.MaxUint8))
	r.Taken = ok && s.lit(`,"taken":true`)
	r.TargetMiss = ok && s.lit(`,"target_miss":true`)
	ok = ok && (!s.lit(`,"instr":`) || s.uint(&instr, math.MaxUint32))
	r.Kind, r.Instructions = uint8(kind), uint32(instr)
	return ok
}

// text decodes the rest of a string after its opening quote, interned
// to the package constant when it is a known frame type or the schema.
func (s *scan) text(dst *string) bool {
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			*dst = intern(s.b[start:s.i])
			s.i++
			return true
		case c < ' ' || c > '~' || c == '\\':
			return false
		}
	}
	return false
}

func intern(b []byte) string {
	switch string(b) {
	case FrameBranchBatch:
		return FrameBranchBatch
	case FrameHello:
		return FrameHello
	case FrameCheckpoint:
		return FrameCheckpoint
	case FrameDrain:
		return FrameDrain
	case FrameBye:
		return FrameBye
	case Schema:
		return Schema
	}
	return string(b)
}

// uint decodes an unsigned integer without sign, leading zero, fraction
// or exponent that is no greater than max; a fraction or exponent fails
// the caller's next literal.
func (s *scan) uint(dst *uint64, max uint64) bool {
	b, start := s.b, s.i
	i := start
	var n uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		n = n*10 + uint64(b[i]-'0')
	}
	s.i = i
	// Below 20 digits n is exact; a 20-digit n wrapped iff its digits
	// sort after MaxUint64's.
	switch d := i - start; {
	case d == 0, d > 1 && b[start] == '0', d > 20:
		return false
	case d == 20 && string(b[start:i]) > "18446744073709551615":
		return false
	}
	*dst = n
	return n <= max
}
