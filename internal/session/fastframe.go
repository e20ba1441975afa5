package session

import "math"

// decodeFast decodes one NDJSON line without reflection when it has the
// shape every in-repo producer emits (encoding/json output of a Frame),
// and reports false for anything else. FrameReader.Next then runs
// json.Unmarshal on the line, which stays the only decoder for other
// shapes, the source of every error text, and the reference
// FuzzFrameDecode holds this one to: whenever decodeFast accepts a line,
// json.Unmarshal accepts it too and yields a reflect.DeepEqual frame.
//
// The accepted shape is a strict subset of JSON:
//   - JSON whitespace between tokens, and nothing else after the final '}';
//   - objects whose keys are the exact lowercase field names (type,
//     schema, seq, branches; per record pc, target, kind, taken, instr,
//     target_miss), each at most once, in any order;
//   - strings of printable ASCII without escapes;
//   - non-negative integers without sign, leading zero, fraction or
//     exponent that fit their field;
//   - true and false.
//
// Declining is always safe, so anything that would need encoding/json's
// finer rules — case-folded or unknown keys, duplicates (last one wins),
// escapes, null, overflow — is declined rather than reimplemented.
//
// The decoded branches are copied into one exact-length slice the frame
// owns: a Session keeps applied frames in its tail until the next
// checkpoint, so the scratch slice the records are parsed into is never
// handed out.
func (fr *FrameReader) decodeFast(line []byte) (Frame, bool) {
	d := lineDecoder{b: line, recs: fr.recs}
	var f Frame
	var seen uint8
	ok := d.object(func(key []byte) bool {
		var bit uint8
		var ok bool
		switch string(key) {
		case "type":
			bit = 1 << 0
			f.Type, ok = d.text()
		case "schema":
			bit = 1 << 1
			f.Schema, ok = d.text()
		case "seq":
			bit = 1 << 2
			f.Seq, ok = d.uint(math.MaxUint64)
		case "branches":
			bit = 1 << 3
			f.Branches, ok = d.branches()
		default:
			return false
		}
		return ok && once(&seen, bit)
	})
	fr.recs = d.recs
	d.ws()
	return f, ok && d.i == len(d.b)
}

// lineDecoder is a cursor over one line.
type lineDecoder struct {
	b    []byte
	i    int
	recs []BranchRec
}

// branches decodes a record array into an owned slice; an empty array
// yields an empty non-nil slice, as encoding/json does.
func (d *lineDecoder) branches() ([]BranchRec, bool) {
	if d.next() != '[' {
		return nil, false
	}
	d.recs = d.recs[:0]
	if !d.accept(']') {
		for {
			var r BranchRec
			if !d.record(&r) {
				return nil, false
			}
			d.recs = append(d.recs, r)
			if c := d.next(); c == ']' {
				break
			} else if c != ',' {
				return nil, false
			}
		}
	}
	out := make([]BranchRec, len(d.recs))
	copy(out, d.recs)
	return out, true
}

// record decodes one branch record object into r.
func (d *lineDecoder) record(r *BranchRec) bool {
	var seen uint8
	return d.object(func(key []byte) bool {
		var bit uint8
		var ok bool
		var v uint64
		switch string(key) {
		case "pc":
			bit = 1 << 0
			r.PC, ok = d.uint(math.MaxUint64)
		case "target":
			bit = 1 << 1
			r.Target, ok = d.uint(math.MaxUint64)
		case "kind":
			bit = 1 << 2
			v, ok = d.uint(math.MaxUint8)
			r.Kind = uint8(v)
		case "taken":
			bit = 1 << 3
			r.Taken, ok = d.bool()
		case "instr":
			bit = 1 << 4
			v, ok = d.uint(math.MaxUint32)
			r.Instructions = uint32(v)
		case "target_miss":
			bit = 1 << 5
			r.TargetMiss, ok = d.bool()
		default:
			return false
		}
		return ok && once(&seen, bit)
	})
}

// once sets bit in *seen and reports whether it was clear. A repeated
// key is declined: encoding/json lets the last value win, and decodes a
// repeated array over the first one's records.
func once(seen *uint8, bit uint8) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// object decodes one object, calling member with the cursor on each
// key's value; member decodes the value or returns false to decline.
func (d *lineDecoder) object(member func(key []byte) bool) bool {
	if d.next() != '{' {
		return false
	}
	if d.accept('}') {
		return true
	}
	for {
		key, ok := d.str()
		if !ok || d.next() != ':' || !member(key) {
			return false
		}
		switch d.next() {
		case ',':
		case '}':
			return true
		default:
			return false
		}
	}
}

// text decodes a string, interned to the package constant when it is a
// known frame type or the schema.
func (d *lineDecoder) text() (string, bool) {
	s, ok := d.str()
	if !ok {
		return "", false
	}
	switch string(s) {
	case FrameBranchBatch:
		return FrameBranchBatch, true
	case FrameHello:
		return FrameHello, true
	case FrameCheckpoint:
		return FrameCheckpoint, true
	case FrameDrain:
		return FrameDrain, true
	case FrameBye:
		return FrameBye, true
	case Schema:
		return Schema, true
	}
	return string(s), true
}

// str returns the bytes of a string of printable ASCII without escapes.
func (d *lineDecoder) str() ([]byte, bool) {
	if d.next() != '"' {
		return nil, false
	}
	for start := d.i; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], true
		case c < ' ' || c > '~' || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// uint decodes a non-negative integer no greater than max.
func (d *lineDecoder) uint(max uint64) (uint64, bool) {
	d.ws()
	start := d.i
	var n uint64
	for ; d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9'; d.i++ {
		c := uint64(d.b[d.i] - '0')
		if n > (max-c)/10 {
			return 0, false
		}
		n = n*10 + c
	}
	// JSON has no leading zeros; a fraction or exponent fails the
	// caller's delimiter check.
	if d.i == start || d.b[start] == '0' && d.i-start > 1 {
		return 0, false
	}
	return n, true
}

func (d *lineDecoder) bool() (bool, bool) {
	d.ws()
	switch rest := d.b[d.i:]; {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		d.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		d.i += 5
		return false, true
	}
	return false, false
}

// next skips whitespace and consumes the next byte, or returns 0 at the
// end of the line (0 is never a token, so callers need no bounds check).
func (d *lineDecoder) next() byte {
	d.ws()
	if d.i == len(d.b) {
		return 0
	}
	d.i++
	return d.b[d.i-1]
}

// accept skips whitespace and consumes c if it comes next.
func (d *lineDecoder) accept(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// ws skips JSON whitespace.
func (d *lineDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}
