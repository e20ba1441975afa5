package cache

import (
	"io"
	"sync/atomic"

	"llbp/internal/trace"
)

// Handle is a pinned view of a materialized stream prefix. It implements
// trace.Source and trace.BatchSource, so it drops into any replay loop;
// every Open replays the identical branches the underlying source would
// produce, decoded on the fly from the shared records and site table.
// Release the handle when replay is done so the entry becomes evictable;
// the records and sites a handle snapshot references stay valid even if
// the entry is later evicted or extended.
type Handle struct {
	c    *Cache
	e    *entry
	name string

	recs  []uint32
	sites []site // every site recs refers to; the entry may append more

	released atomic.Bool
}

var (
	_ trace.Source      = (*Handle)(nil)
	_ trace.BatchSource = (*Handle)(nil)
)

// Name implements trace.Source.
func (h *Handle) Name() string { return h.name }

// Len returns the number of branches the handle replays.
func (h *Handle) Len() int { return len(h.recs) }

// Release unpins the backing cache entry. Idempotent. Readers already
// opened keep working (they read the snapshot, not the entry).
func (h *Handle) Release() {
	if h == nil || h.released.Swap(true) {
		return
	}
	h.c.release(h.e)
}

// Open implements trace.Source.
func (h *Handle) Open() trace.Reader { return &handleReader{h: h} }

// OpenBatch implements trace.BatchSource.
func (h *Handle) OpenBatch() trace.BatchReader { return &handleReader{h: h} }

// Tail returns a trace.Source replaying branches [skip, Len()) of the
// handle's snapshot — the measure phase of a stream whose warmup prefix
// was already consumed by a warm-snapshot fork parent. The view shares
// the handle's pin: keep the handle unreleased while tail readers are in
// use, and Release the handle (not the view) afterwards. A skip beyond
// the snapshot yields an immediately-EOF stream, matching direct replay
// of a source shorter than the requested prefix.
func (h *Handle) Tail(skip uint64) trace.Source {
	if skip == 0 {
		return h
	}
	return &tailView{h: h, skip: int(min(skip, uint64(len(h.recs))))}
}

// tailView is a positioned view over a Handle's snapshot.
type tailView struct {
	h    *Handle
	skip int
}

var (
	_ trace.Source      = (*tailView)(nil)
	_ trace.BatchSource = (*tailView)(nil)
)

// Name implements trace.Source; the tail is the same workload.
func (v *tailView) Name() string { return v.h.name }

// Len returns the number of branches the view replays.
func (v *tailView) Len() int { return len(v.h.recs) - v.skip }

// Open implements trace.Source.
func (v *tailView) Open() trace.Reader { return &handleReader{h: v.h, pos: v.skip} }

// OpenBatch implements trace.BatchSource.
func (v *tailView) OpenBatch() trace.BatchReader { return &handleReader{h: v.h, pos: v.skip} }

// handleReader decodes branches out of the handle's snapshot.
type handleReader struct {
	h   *Handle
	pos int
}

// expand writes the branch rec stores into b: the only decode of a
// record, shared by Read and ReadBatch.
func expand(b *trace.Branch, rec uint32, sites []site) {
	s := &sites[rec&siteMask]
	b.PC = s.pc
	b.Target = s.target
	b.Type = s.typ
	b.Taken = rec&takenBit != 0
	b.MispredictedTarget = rec&missBit != 0
	b.Instructions = rec >> gapShift & 0xff
}

// Read implements trace.Reader.
func (r *handleReader) Read(b *trace.Branch) error {
	h, i := r.h, r.pos
	if i >= len(h.recs) {
		return io.EOF
	}
	expand(b, h.recs[i], h.sites)
	r.pos++
	return nil
}

// ReadBatch implements trace.BatchReader.
func (r *handleReader) ReadBatch(dst []trace.Branch) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	h, lo := r.h, r.pos
	rem := len(h.recs) - lo
	if rem <= 0 {
		return 0, io.EOF
	}
	out := dst
	if len(out) > rem {
		out = out[:rem]
	}
	// Records re-sliced to out's length let the compiler drop their
	// per-branch bounds check; the site lookup keeps one.
	n := len(out)
	recs, sites := h.recs[lo:lo+n], h.sites
	for i := range out {
		expand(&out[i], recs[i], sites)
	}
	r.pos += n
	if n < len(dst) {
		return n, io.EOF
	}
	return n, nil
}
