// Package core implements the Last-Level Branch Predictor (LLBP), the
// paper's contribution (§V): a large-capacity, context-organized pattern
// store backing an unmodified TAGE-SC-L predictor.
//
// The four hardware structures map to types in this package:
//
//   - RCR (rolling context register): hashes the PCs of recent
//     unconditional branches into the current context ID (CCID) and a
//     prefetch context ID computed D unconditional branches ahead.
//   - CD (context directory): a set-associative tag array mapping context
//     IDs to pattern sets, with confidence-based replacement.
//   - LLBP storage: the bulk pattern-set array (owned by the CD entries in
//     this model; the paper's direct-mapped layout is an implementation
//     detail of the physical array).
//   - PB (pattern buffer): a small, set-associative, LRU-managed cache of
//     pattern sets close to the core, fed by prefetches.
//
// Predictor composes all of the above with a tsl.Predictor and implements
// the longest-match arbitration between the two (§V-B).
package core

import (
	"fmt"

	"llbp/internal/trace"
)

// ContextType selects which branch types feed the rolling context register
// — the Figure 13 design-space axis.
type ContextType uint8

const (
	// CtxUncond hashes all unconditional branches (jumps, calls,
	// returns; the paper's choice).
	CtxUncond ContextType = iota
	// CtxCallRet hashes only calls and returns.
	CtxCallRet
	// CtxAll hashes every branch, conditional included.
	CtxAll
)

// String returns the Figure 13 label of the context type.
func (t ContextType) String() string {
	switch t {
	case CtxUncond:
		return "Uncond"
	case CtxCallRet:
		return "Call/Ret"
	case CtxAll:
		return "All"
	default:
		return fmt.Sprintf("ContextType(%d)", uint8(t))
	}
}

// Feeds reports whether a branch of type bt (with outcome taken)
// contributes to this context history.
func (t ContextType) Feeds(bt trace.BranchType, taken bool) bool {
	switch t {
	case CtxUncond:
		return bt.IsUnconditional()
	case CtxCallRet:
		return bt.IsCallOrReturn()
	case CtxAll:
		return bt.IsUnconditional() || taken
	default:
		return false
	}
}

// RCR is the rolling context register (§V-C, Figure 8): a shift register of
// the PCs of the last W+D context-feeding branches. The current context ID
// (CCID) hashes the W entries that exclude the D most recent; the prefetch
// CID hashes the most recent W. When D more context-feeding branches
// execute, the prefetch CID becomes the CCID — giving the prefetcher a
// D-branch head start.
type RCR struct {
	pcs   []uint64 // ring buffer, len W+D
	head  int      // index of most recent PC
	w     int
	d     int
	bits  int  // CID width in bits
	shift bool // position-dependent shifting (§V-E3); false = plain XOR ablation

	// Cached window hashes, refreshed on Push. The register contents
	// only change there, while CCID is read every prediction — caching
	// turns the per-branch read into a field load, as in hardware where
	// the CID registers are latched once per context-feeding branch.
	ccid uint64
	pcid uint64

	// Unfolded 64-bit window hashes (the XOR of position-shifted terms
	// before the CID-width fold), maintained incrementally on Push: one
	// element enters each window, one leaves, and every survivor's
	// position shift grows by exactly 2 — so the whole W-term hash rolls
	// with two XORs and a shift. Valid only while rolling is (see
	// NewRCR); otherwise Push recomputes from scratch.
	hc64, hp64 uint64
	rolling    bool
}

// NewRCR returns a rolling context register with hash window w, prefetch
// distance d, and cidBits-wide context IDs. shifted selects the paper's
// position-shifted XOR hash (§V-E3); passing false gives the plain-XOR
// ablation in which repeated PCs cancel.
func NewRCR(w, d, cidBits int, shifted bool) *RCR {
	if w <= 0 || w > 64 {
		panic(fmt.Sprintf("core: RCR window %d out of range [1,64]", w))
	}
	if d < 0 || d > 64 {
		panic(fmt.Sprintf("core: RCR distance %d out of range [0,64]", d))
	}
	if cidBits < 4 || cidBits > 63 {
		panic(fmt.Sprintf("core: cidBits %d out of range [4,63]", cidBits))
	}
	r := &RCR{
		pcs:   make([]uint64, w+d),
		w:     w,
		d:     d,
		bits:  cidBits,
		shift: shifted,
		// The O(1) roll needs every survivor's shift to grow by exactly
		// 2 per push, which the %48 shift wrap breaks once a window
		// position reaches 24; plain-XOR hashing has no shifts at all,
		// so it always rolls.
		rolling: !shifted || 2*(w-1) < 48,
	}
	r.refresh()
	return r
}

// Push records a new context-feeding branch PC.
func (r *RCR) Push(pc uint64) {
	next := r.head + 1
	if next >= len(r.pcs) {
		next = 0
	}
	if !r.rolling {
		r.head = next
		r.pcs[next] = pc
		r.refresh()
		return
	}
	// The slot being overwritten holds the oldest element — the one
	// leaving the CCID window; the element leaving the prefetch window
	// (old position W-1) is read before any overwrite so the d==0 case
	// (where the two coincide) stays correct.
	exitC := r.pcs[next]
	exitP := r.at(r.head, r.w-1)
	r.head = next
	r.pcs[next] = pc
	enterC := r.at(next, r.d) // the PC pushed D branches ago; pc itself when d==0
	if r.shift {
		last := uint(2 * (r.w - 1))
		r.hp64 = (pc >> 1) ^ ((r.hp64 ^ ((exitP >> 1) << last)) << 2)
		r.hc64 = (enterC >> 1) ^ ((r.hc64 ^ ((exitC >> 1) << last)) << 2)
	} else {
		r.hp64 ^= (pc >> 1) ^ (exitP >> 1)
		r.hc64 ^= (enterC >> 1) ^ (exitC >> 1)
	}
	r.ccid = r.fold(r.hc64)
	r.pcid = r.fold(r.hp64)
}

// at returns the PC `back` positions behind ring index head.
func (r *RCR) at(head, back int) uint64 {
	pos := head - back
	for pos < 0 {
		pos += len(r.pcs)
	}
	return r.pcs[pos]
}

// fold compresses a 64-bit window mix down to the CID width.
func (r *RCR) fold(h uint64) uint64 {
	h ^= h >> uint(r.bits)
	h ^= h >> uint(2*r.bits)
	return h & (uint64(1)<<uint(r.bits) - 1)
}

// refresh recomputes the unfolded window hashes from the ring buffer and
// re-latches the cached CID registers (construction and the non-rolling
// wide-window fallback).
func (r *RCR) refresh() {
	r.hc64 = r.windowXor(r.d)
	r.hp64 = r.windowXor(0)
	r.ccid = r.fold(r.hc64)
	r.pcid = r.fold(r.hp64)
}

// windowXor computes the unfolded hash of the W PCs starting `offset`
// branches before the most recent one — the from-scratch reference the
// rolling update maintains incrementally.
func (r *RCR) windowXor(offset int) uint64 {
	var h uint64
	for i := 0; i < r.w; i++ {
		pc := r.at(r.head, offset+i) >> 1
		if r.shift {
			pc <<= uint(2*i) % 48
		}
		h ^= pc
	}
	return h
}

// hashWindow hashes the W PCs starting at `offset` branches before the most
// recent one. Position i (0 = newest in the window) is shifted by 2*i so
// repeated addresses in tight loops do not cancel (§V-E3).
func (r *RCR) hashWindow(offset int) uint64 {
	return r.fold(r.windowXor(offset))
}

// CCID returns the current context ID (excluding the D most recent
// context-feeding branches).
func (r *RCR) CCID() uint64 { return r.ccid }

// PrefetchCID returns the context ID that will become current after D more
// context-feeding branches.
func (r *RCR) PrefetchCID() uint64 { return r.pcid }

// Window returns (W, D).
func (r *RCR) Window() (w, d int) { return r.w, r.d }
