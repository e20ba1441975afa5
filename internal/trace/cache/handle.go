package cache

import (
	"io"
	"sync/atomic"

	"llbp/internal/trace"
)

// Handle is a pinned view of a materialized stream prefix. It implements
// trace.Source and trace.BatchSource, so it drops into any replay loop;
// every Open replays the identical branches the underlying source would
// produce, decoded on the fly from the shared columnar buffer. Release
// the handle when replay is done so the entry becomes evictable; the
// columns a handle snapshot references stay valid even if the entry is
// later evicted or extended.
type Handle struct {
	c    *Cache
	e    *entry
	name string

	pcs     []uint32
	targets []uint32
	instrs  []uint8
	meta    []uint8

	released atomic.Bool
}

var (
	_ trace.Source      = (*Handle)(nil)
	_ trace.BatchSource = (*Handle)(nil)
)

// Name implements trace.Source.
func (h *Handle) Name() string { return h.name }

// Len returns the number of branches the handle replays.
func (h *Handle) Len() int { return len(h.pcs) }

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
	s := len(h.pcs)
	if skip < uint64(s) {
		s = int(skip)
	}
	return &tailView{h: h, skip: s}
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
func (v *tailView) Len() int { return len(v.h.pcs) - v.skip }

// Open implements trace.Source.
func (v *tailView) Open() trace.Reader { return &handleReader{h: v.h, pos: v.skip} }

// OpenBatch implements trace.BatchSource.
func (v *tailView) OpenBatch() trace.BatchReader { return &handleReader{h: v.h, pos: v.skip} }

// handleReader decodes branches out of the columnar snapshot.
type handleReader struct {
	h   *Handle
	pos int
}

// expand writes one stored branch into b: the only decode of the
// columns, shared by Read and ReadBatch.
func expand(b *trace.Branch, pc, target uint32, instrs, meta uint8) {
	b.PC = uint64(pc)
	b.Target = uint64(target)
	b.Type = trace.BranchType(meta & 0x7)
	b.Taken = meta&(1<<3) != 0
	b.MispredictedTarget = meta&(1<<4) != 0
	b.Instructions = uint32(instrs)
}

// Read implements trace.Reader.
func (r *handleReader) Read(b *trace.Branch) error {
	h, i := r.h, r.pos
	if i >= len(h.pcs) {
		return io.EOF
	}
	expand(b, h.pcs[i], h.targets[i], h.instrs[i], h.meta[i])
	r.pos++
	return nil
}

// ReadBatch implements trace.BatchReader.
func (r *handleReader) ReadBatch(dst []trace.Branch) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	h, lo := r.h, r.pos
	rem := len(h.pcs) - lo
	if rem <= 0 {
		return 0, io.EOF
	}
	out := dst
	if len(out) > rem {
		out = out[:rem]
	}
	// Columns re-sliced to out's length let the compiler drop the
	// per-branch bounds checks.
	n := len(out)
	pcs := h.pcs[lo : lo+n]
	targets := h.targets[lo : lo+n]
	instrs := h.instrs[lo : lo+n]
	meta := h.meta[lo : lo+n]
	for i := range out {
		expand(&out[i], pcs[i], targets[i], instrs[i], meta[i])
	}
	r.pos += n
	if n < len(dst) {
		return n, io.EOF
	}
	return n, nil
}
