// Package cache materializes deterministic branch streams into compact
// in-memory buffers so the full experiment matrix synthesizes each
// workload once per process instead of once per cell.
//
// Identity and the prefix property. A buffer is keyed by the source's
// (Name, CacheKey) pair. Sources opt in by implementing Keyer, asserting
// that the pair fully determines the replayed stream: every Open yields
// the identical sequence. Under that contract a materialized buffer of N
// branches serves ANY request for ≤ N branches as a prefix, and a longer
// request extends the same buffer by resuming the retained generator —
// the matrix's sweep budgets (e.g. 500k) share storage with its headline
// budgets (e.g. 1.2M) instead of duplicating them.
//
// Storage is one 32-bit record per branch into a per-stream table of
// distinct sites, replayed zero-copy by every acquirer. A site is a
// (PC, target, type) triple; a record holds its site's table index in
// bits 0-21, the instruction gap in bits 22-29, taken in bit 30 and
// target miss in bit 31. Server streams are long walks over a bounded
// static branch set — the catalog's 1.2M-branch prefixes touch 2,599
// (Kafka) to 5,029 (Charlie) sites — so the table costs little:
// `traceinfo -workload all -branches 1200000` reports 68,417,736
// resident bytes, 4.07 per branch, where 32-bit PC and target columns
// took 10. PCs and targets fit at any width. A branch fits unless its
// gap exceeds 255 instructions or its site would be the stream's
// (2^22+1)-th distinct one, which no stream of at most 4,194,304
// branches can reach. The first branch that does not fit ends the
// materialized stream with a sticky error naming its index, like a
// generator error: requests past it fail rather than replay a truncated
// or altered stream, and prefixes before it still replay.
//
// Lifecycle: Acquire returns a ref-counted Handle (itself a
// trace.BatchSource) pinning the entry; Release unpins it. Population is
// singleflight — concurrent Acquires of one key block on the entry while
// the first caller materializes. The cache holds a byte budget; when
// resident bytes exceed it, least-recently-used entries with no live
// handles are dropped. Pinned entries are never evicted, so resident
// bytes can transiently exceed the budget while handles are live.
package cache

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"llbp/internal/telemetry"
	"llbp/internal/trace"
)

// Keyer is implemented by trace.Sources whose stream is a pure function
// of (Name, CacheKey) — same pair, same branches, on every Open — and
// whose branches fit the records: at most 255 instructions per gap and
// at most 2^22 distinct (PC, target, type) sites. Sources without it
// are not cached (their content may change between Opens, e.g. a
// rewritten trace file).
type Keyer interface {
	// CacheKey returns the stream identity beyond the name (typically
	// the synthesis seed).
	CacheKey() uint64
}

// Record layout: the site's index in the entry's table, the
// instruction gap, and the two per-branch outcome bits.
const (
	siteBits = 22
	maxSites = 1 << siteBits
	siteMask = maxSites - 1
	gapShift = siteBits
	takenBit = 1 << 30
	missBit  = 1 << 31
)

// bytesPerRecord is a branch's footprint in recs; bytesPerSite is one
// entry of the sites table: PC, target and type, padded to 8.
const (
	bytesPerRecord = 4
	bytesPerSite   = 24
)

// materializeChunk is the generator read granularity during population.
const materializeChunk = 8192

// DefaultBudgetBytes bounds the process-wide Default cache. The full
// experiment matrix keeps 17.8M branches resident: 1.2M per workload at
// the headline budgets (`traceinfo -workload all -branches 1200000`
// reports 68,417,736 bytes) plus ExtScale's extension of Tomcat to
// 2.2M, which adds 4,000,000 bytes of records and no new site. That is
// 72,417,736 bytes (≈69 MiB), so 512 MiB holds everything with headroom.
const DefaultBudgetBytes = 512 << 20

type key struct {
	name string
	seed uint64
}

// site is one distinct static branch of a stream.
type site struct {
	pc, target uint64
	typ        trace.BranchType
}

// entry is one materialized stream. recs, sites and gen are guarded by
// mu (the singleflight lock); refs/tick by the owning Cache's mutex.
// sites is append-only: a fill adds sites past the ones earlier handles
// snapshotted, and never rewrites those.
type entry struct {
	key key

	mu     sync.Mutex
	recs   []uint32
	sites  []site
	gen    trace.BatchReader // retained generator, nil until first fill
	genErr error             // sticky terminal error (io.EOF = finite stream done)

	refs int
	tick uint64
}

func (e *entry) bytes() int64 {
	return int64(len(e.recs))*bytesPerRecord + int64(len(e.sites))*bytesPerSite
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	// Hits counts Acquires fully served from an existing buffer;
	// Misses counts Acquires that had to synthesize (including
	// extensions of an existing prefix).
	Hits, Misses uint64
	// Evictions counts entries dropped to fit the byte budget.
	Evictions uint64
	// Entries and BytesResident describe current occupancy.
	Entries       int
	BytesResident int64
}

// Cache holds materialized streams under a byte budget.
type Cache struct {
	mu       sync.Mutex
	budget   int64
	resident int64
	tick     uint64
	entries  map[key]*entry
	order    []*entry // same set as entries; scanned (not map-iterated) for LRU

	stats Stats

	// Telemetry instruments; nil (no-op) until AttachTelemetry.
	hits, misses, evictions *telemetry.Counter
	bytesResident, entryCnt *telemetry.Gauge
}

// New returns a cache bounded by budgetBytes (<= 0 selects
// DefaultBudgetBytes).
func New(budgetBytes int64) *Cache {
	if budgetBytes <= 0 {
		budgetBytes = DefaultBudgetBytes
	}
	return &Cache{budget: budgetBytes, entries: make(map[key]*entry)}
}

var (
	defaultOnce  sync.Once
	defaultCache *Cache
)

// Default returns the process-wide cache every harness, worker and
// service job shares unless configured otherwise.
func Default() *Cache {
	defaultOnce.Do(func() { defaultCache = New(DefaultBudgetBytes) })
	return defaultCache
}

// SetBudget adjusts the byte budget and evicts down to it.
func (c *Cache) SetBudget(budgetBytes int64) {
	if budgetBytes <= 0 {
		budgetBytes = DefaultBudgetBytes
	}
	c.mu.Lock()
	c.budget = budgetBytes
	c.evictLocked()
	c.mu.Unlock()
}

// AttachTelemetry registers the cache's effectiveness instruments on reg:
// trace_cache_{hits,misses,evictions} counters and
// trace_cache_{bytes_resident,entries} gauges. Counters registered after
// traffic has flowed start from the live totals.
func (c *Cache) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits = reg.Counter("trace_cache_hits")
	c.misses = reg.Counter("trace_cache_misses")
	c.evictions = reg.Counter("trace_cache_evictions")
	c.bytesResident = reg.Gauge("trace_cache_bytes_resident")
	c.entryCnt = reg.Gauge("trace_cache_entries")
	c.hits.Add(c.stats.Hits)
	c.misses.Add(c.stats.Misses)
	c.evictions.Add(c.stats.Evictions)
	c.publishLocked()
}

// publishLocked refreshes the occupancy gauges. Caller holds c.mu.
func (c *Cache) publishLocked() {
	c.bytesResident.Set(float64(c.resident))
	c.entryCnt.Set(float64(len(c.entries)))
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.BytesResident = c.resident
	return s
}

// Acquire returns a Handle replaying the first n branches of src,
// materializing (or extending) the backing buffer as needed. It returns
// (nil, nil) when src is not cacheable (does not implement Keyer) —
// callers fall back to replaying src directly. The Handle's stream is
// exactly n branches, or shorter if the source ends first (the Handle's
// readers then EOF at the true length, matching direct replay). Callers
// must Release the Handle when done replaying.
func (c *Cache) Acquire(src trace.Source, n uint64) (*Handle, error) {
	if c == nil {
		return nil, nil
	}
	k, ok := keyOf(src)
	if !ok {
		return nil, nil
	}

	c.mu.Lock()
	e := c.entries[k]
	if e == nil {
		e = &entry{key: k}
		c.entries[k] = e
		c.order = append(c.order, e)
	}
	e.refs++
	c.tick++
	e.tick = c.tick
	c.mu.Unlock()

	// Singleflight: the entry lock serializes population; concurrent
	// acquirers of the same key wait here and find the prefix ready.
	e.mu.Lock()
	if uint64(len(e.recs)) < n && e.genErr == nil {
		c.countMiss()
		if err := c.fill(e, src, n); err != nil {
			e.mu.Unlock()
			c.release(e)
			return nil, err
		}
	} else {
		c.countHit()
	}
	if e.genErr != nil && !trace.IsEOF(e.genErr) && uint64(len(e.recs)) < n {
		err := e.genErr
		e.mu.Unlock()
		c.release(e)
		return nil, fmt.Errorf("cache: materializing %s: %w", k.name, err)
	}
	m := min(n, uint64(len(e.recs)))
	h := &Handle{c: c, e: e, name: k.name, recs: e.recs[:m], sites: e.sites}
	e.mu.Unlock()

	c.mu.Lock()
	c.evictLocked()
	c.mu.Unlock()
	return h, nil
}

// keyOf derives the cache identity of src, reporting false for sources
// that did not opt in.
func keyOf(src trace.Source) (key, bool) {
	ker, ok := src.(Keyer)
	if !ok {
		return key{}, false
	}
	return key{name: src.Name(), seed: ker.CacheKey()}, true
}

// fill extends e's records to n branches by resuming (or opening) the
// generator. Caller holds e.mu. Terminal generator errors, and the first
// branch that does not fit a record, are recorded sticky in e.genErr;
// the records keep every branch before it, so prefix requests still
// succeed.
func (c *Cache) fill(e *entry, src trace.Source, n uint64) error {
	if e.gen == nil {
		e.gen = trace.OpenBatched(src)
	}
	before := e.bytes()
	need := n - uint64(len(e.recs))
	if n > uint64(cap(e.recs)) {
		e.recs = append(make([]uint32, 0, n), e.recs...)
	}
	var idx siteIndex
	idx.rehash(e.sites, 1<<10)
	scratch := make([]trace.Branch, materializeChunk)
	for need > 0 {
		chunk := scratch
		if need < uint64(len(chunk)) {
			chunk = chunk[:need]
		}
		got, err := e.gen.ReadBatch(chunk)
		for i := 0; i < got; i++ {
			b := &chunk[i]
			s := site{pc: b.PC, target: b.Target, typ: b.Type}
			slot, id, found := idx.find(e.sites, s)
			rec, ok := pack(id, b)
			if !ok {
				got, err = i, fmt.Errorf("branch %d (pc %#x, target %#x, %d instructions, site %d) does not fit the cache's 8-bit gaps and %d-site table",
					len(e.recs), b.PC, b.Target, b.Instructions, id, maxSites)
				break
			}
			if !found {
				e.sites = append(e.sites, s)
				idx.add(slot, e.sites)
			}
			e.recs = append(e.recs, rec)
		}
		need -= uint64(got)
		if err != nil {
			e.genErr = err
			e.gen = nil
			break
		}
	}
	c.mu.Lock()
	c.resident += e.bytes() - before
	c.mu.Unlock()
	return nil
}

// pack builds the record of branch b, whose site sits at index id of
// its entry's table. It reports false when id or b's gap does not fit.
func pack(id int, b *trace.Branch) (uint32, bool) {
	if id >= maxSites || b.Instructions > math.MaxUint8 {
		return 0, false
	}
	rec := uint32(id) | b.Instructions<<gapShift
	if b.Taken {
		rec |= takenBit
	}
	if b.MispredictedTarget {
		rec |= missBit
	}
	return rec, true
}

// siteIndex maps a site to its index in an entry's table while the
// entry fills; it is built from the table at the start of each fill and
// dropped at its end. It is an open-addressing hash set of table
// indexes plus one (0 marks an empty slot), kept at most half full.
type siteIndex struct {
	slots []uint32
	shift uint // 64 - log2(len(slots)): the hash's top bits pick a slot
}

// rehash rebuilds x over every site of sites, with at least minSlots
// slots.
func (x *siteIndex) rehash(sites []site, minSlots int) {
	size := minSlots
	for size < 2*len(sites) {
		size *= 2
	}
	x.slots = make([]uint32, size)
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for id, s := range sites {
		i := int(s.hash() >> x.shift)
		for x.slots[i] != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = uint32(id + 1)
	}
}

// find returns s's index in sites and true, or, when s is new, the slot
// add fills, the index s will take (len(sites)) and false.
func (x *siteIndex) find(sites []site, s site) (slot, id int, found bool) {
	mask := len(x.slots) - 1
	for i := int(s.hash() >> x.shift); ; i = (i + 1) & mask {
		v := x.slots[i]
		if v == 0 {
			return i, len(sites), false
		}
		if sites[v-1] == s {
			return i, int(v - 1), true
		}
	}
}

// add records the last site of sites in the slot find returned for it,
// growing the index when it passes half full.
func (x *siteIndex) add(slot int, sites []site) {
	x.slots[slot] = uint32(len(sites))
	if 2*len(sites) > len(x.slots) {
		x.rehash(sites, 2*len(x.slots))
	}
}

// hash mixes all three fields; the multiply carries every input bit
// into the top bits the index reads.
func (s site) hash() uint64 {
	return (s.pc ^ bits.RotateLeft64(s.target, 29) ^ uint64(s.typ)<<59) * 0x9E3779B97F4A7C15
}

// countHit / countMiss bump the stats under c.mu (Acquire calls them
// while holding only e.mu).
func (c *Cache) countHit() {
	c.mu.Lock()
	c.stats.Hits++
	c.hits.Add(1)
	c.mu.Unlock()
}

func (c *Cache) countMiss() {
	c.mu.Lock()
	c.stats.Misses++
	c.misses.Add(1)
	c.mu.Unlock()
}

// release unpins e and evicts if the budget is exceeded.
func (c *Cache) release(e *entry) {
	c.mu.Lock()
	e.refs--
	c.evictLocked()
	c.mu.Unlock()
}

// evictLocked drops least-recently-used unpinned entries until resident
// bytes fit the budget. Caller holds c.mu.
func (c *Cache) evictLocked() {
	for c.resident > c.budget {
		victim := -1
		for i, e := range c.order {
			if e.refs > 0 {
				continue
			}
			if victim < 0 || e.tick < c.order[victim].tick {
				victim = i
			}
		}
		if victim < 0 {
			break // everything pinned; budget transiently exceeded
		}
		e := c.order[victim]
		c.resident -= e.bytes()
		delete(c.entries, e.key)
		last := len(c.order) - 1
		c.order[victim] = c.order[last]
		c.order = c.order[:last]
		c.stats.Evictions++
		c.evictions.Add(1)
	}
	c.publishLocked()
}
