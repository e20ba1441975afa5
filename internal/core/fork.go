package core

import (
	"llbp/internal/predictor"
	"llbp/internal/tsl"
)

var _ predictor.Forkable = (*Predictor)(nil)

// Fork implements predictor.Forkable: it returns an independent copy of
// the whole composite — the forked baseline, the RCR, the context
// directory, the pattern buffer, LLBP's history mirrors, the power-gate
// state machine and the cumulative stats. The bulk pattern storage is
// NOT copied eagerly: directory entries on both sides are marked
// copy-on-write and each side clones a pattern set only on its first
// write to it (see CDEntry.ownSet), so a fork costs O(directory) rather
// than O(patterns).
//
// clock becomes the child's time base and is advanced to the parent's
// current cycle, keeping the pattern buffer's prefetch-ready deadlines
// (absolute cycles) meaningful; pass the clock the child's driver will
// advance, or nil for a detached one. Call at a branch boundary (after
// Update, before the next Predict).
func (p *Predictor) Fork(clock *predictor.Clock) predictor.Predictor {
	if clock == nil {
		clock = &predictor.Clock{}
	}
	clock.Reset()
	clock.Advance(p.clock.NowF())
	out := *p
	out.base = p.base.Fork(nil).(*tsl.Predictor)
	out.clock = clock
	out.rcr = p.rcr.fork()
	dir, remap := p.dir.fork()
	out.dir = dir
	out.pb = p.pb.fork(remap)
	// Clone the shared history engine and rebind the forked baseline's
	// TAGE to the clone; the cached fold locations (f1Loc/f2Loc/lenFold)
	// are immutable after construction and valid for the clone, so the
	// child shares them.
	out.eng = p.eng.Clone()
	out.base.TAGE().RebindHistoryEngine(out.eng)
	// The per-prediction scratch points into the parent's pattern
	// buffer; at a branch boundary it is dead, so the child starts with
	// it cleared rather than aliased.
	out.pbe = nil
	return &out
}

// fork deep-copies the rolling context register.
func (r *RCR) fork() *RCR {
	out := *r
	out.pcs = append([]uint64(nil), r.pcs...)
	return &out
}

// fork duplicates the directory. Pattern sets are values inside the
// entries, so the row copy IS the pattern-storage copy — one flat memcpy
// per set row, no per-pattern work (sets that spilled to a heap extension
// are unshared explicitly). It returns the copy plus a CID -> new-entry
// map so the pattern buffer can rebind its cached pointers into the
// copied directory.
func (d *Directory) fork() (*Directory, map[uint64]*CDEntry) {
	out := *d
	if d.assoc != nil {
		remap := make(map[uint64]*CDEntry, len(d.entries))
		out.assoc = make(map[uint64]*CDEntry, len(d.entries))
		out.entries = make([]*CDEntry, len(d.entries))
		for i, e := range d.entries {
			ce := *e
			ce.Set.unshare()
			out.entries[i] = &ce
			out.assoc[ce.CID] = &ce
			remap[ce.CID] = &ce
		}
		return &out, remap
	}
	remap := make(map[uint64]*CDEntry)
	ways := 0
	if len(d.sets) > 0 {
		ways = len(d.sets[0])
	}
	out.sets, out.keys = cdRows(len(d.sets), ways)
	for i := range d.sets {
		row := out.sets[i]
		copy(row, d.sets[i])
		copy(out.keys[i], d.keys[i])
		for j := range row {
			if !row[j].Valid {
				continue
			}
			row[j].Set.unshare()
			remap[row[j].CID] = &row[j]
		}
	}
	return &out, remap
}

// fork duplicates the pattern buffer, rebinding every cached entry's
// directory pointer into the forked directory via the CID remap. An
// entry whose backing context is somehow absent (impossible while the
// CD-eviction invalidation invariant holds) is dropped rather than left
// aliasing the parent.
func (b *Buffer) fork(remap map[uint64]*CDEntry) *Buffer {
	out := *b
	out.sets = append([]pbSet(nil), b.sets...)
	for i := range out.sets {
		s := &out.sets[i]
		for w := 0; w < b.nways; w++ {
			if !s.ways[w].Valid {
				continue
			}
			ent := remap[s.ways[w].CID]
			if ent == nil {
				s.clearWay(w)
				continue
			}
			s.ways[w].Ent = ent
		}
	}
	return &out
}
