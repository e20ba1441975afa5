// Package cache materializes deterministic branch streams into compact
// columnar in-memory buffers so the full experiment matrix synthesizes
// each workload once per process instead of once per cell.
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
// Storage is struct-of-arrays, 10 bytes per branch instead of the 32 of
// []trace.Branch, replayed zero-copy by every acquirer: a 32-bit PC, a
// 32-bit target, an 8-bit instruction gap and one packed meta byte
// (bits 0-2 type, bit 3 taken, bit 4 target miss — the trace file
// encoding). Every Keyer in the repository is a synthetic workload, whose
// code sits below 2^32 (workload.Params.Validate bounds it) and whose
// gaps are at most 64 instructions. A branch that does not fit — PC or
// target at or above 2^32, gap above 255 — ends the materialized stream
// with a sticky error naming its index, like a generator error: requests
// past it fail rather than replay a truncated or altered stream, and
// prefixes before it still replay.
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
	"sync"

	"llbp/internal/telemetry"
	"llbp/internal/trace"
)

// Keyer is implemented by trace.Sources whose stream is a pure function
// of (Name, CacheKey) — same pair, same branches, on every Open — and
// whose branches fit the columns: PC and target below 2^32, at most 255
// instructions per gap. Sources without it are not cached (their content
// may change between Opens, e.g. a rewritten trace file).
type Keyer interface {
	// CacheKey returns the stream identity beyond the name (typically
	// the synthesis seed).
	CacheKey() uint64
}

// bytesPerBranch is the columnar footprint: 4 (PC) + 4 (target) +
// 1 (instructions) + 1 (meta).
const bytesPerBranch = 10

// materializeChunk is the generator read granularity during population.
const materializeChunk = 8192

// DefaultBudgetBytes bounds the process-wide Default cache. The full
// experiment matrix keeps 17.8M branches resident: 1.2M per workload at
// the headline budgets (`traceinfo -workload all -branches 1200000`
// reports 168,000,000 bytes) plus ExtScale's extension of Tomcat to
// 2.2M. At 10 bytes per branch that is 178,000,000 bytes (≈170 MiB), so
// 512 MiB holds everything with headroom.
const DefaultBudgetBytes = 512 << 20

type key struct {
	name string
	seed uint64
}

// entry is one materialized stream. The columns and gen are guarded by
// mu (the singleflight lock); refs/tick by the owning Cache's mutex.
type entry struct {
	key key

	mu      sync.Mutex
	pcs     []uint32
	targets []uint32
	instrs  []uint8
	meta    []uint8
	gen     trace.BatchReader // retained generator, nil until first fill
	genErr  error             // sticky terminal error (io.EOF = finite stream done)

	refs int
	tick uint64
}

func (e *entry) bytes() int64 { return int64(len(e.pcs)) * bytesPerBranch }

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
	if uint64(len(e.pcs)) < n && e.genErr == nil {
		c.countMiss()
		if err := c.fill(e, src, n); err != nil {
			e.mu.Unlock()
			c.release(e)
			return nil, err
		}
	} else {
		c.countHit()
	}
	if e.genErr != nil && !trace.IsEOF(e.genErr) && uint64(len(e.pcs)) < n {
		err := e.genErr
		e.mu.Unlock()
		c.release(e)
		return nil, fmt.Errorf("cache: materializing %s: %w", k.name, err)
	}
	m := n
	if uint64(len(e.pcs)) < m {
		m = uint64(len(e.pcs))
	}
	h := &Handle{
		c:       c,
		e:       e,
		name:    k.name,
		pcs:     e.pcs[:m],
		targets: e.targets[:m],
		instrs:  e.instrs[:m],
		meta:    e.meta[:m],
	}
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

// fill extends e's columns to n branches by resuming (or opening) the
// generator. Caller holds e.mu. Terminal generator errors, and the first
// branch that does not fit the columns, are recorded sticky in e.genErr;
// the columns keep every branch before it, so prefix requests still
// succeed.
func (c *Cache) fill(e *entry, src trace.Source, n uint64) error {
	if e.gen == nil {
		e.gen = trace.OpenBatched(src)
	}
	before := e.bytes()
	need := n - uint64(len(e.pcs))
	if grow := int(n) - cap(e.pcs); grow > 0 {
		e.pcs = append(make([]uint32, 0, n), e.pcs...)
		e.targets = append(make([]uint32, 0, n), e.targets...)
		e.instrs = append(make([]uint8, 0, n), e.instrs...)
		e.meta = append(make([]uint8, 0, n), e.meta...)
	}
	scratch := make([]trace.Branch, materializeChunk)
	for need > 0 {
		chunk := scratch
		if need < uint64(len(chunk)) {
			chunk = chunk[:need]
		}
		got, err := e.gen.ReadBatch(chunk)
		for i := 0; i < got; i++ {
			b := &chunk[i]
			if b.PC > math.MaxUint32 || b.Target > math.MaxUint32 || b.Instructions > math.MaxUint8 {
				got, err = i, fmt.Errorf("branch %d (pc %#x, target %#x, %d instructions) does not fit the cache's 32-bit addresses and 8-bit gaps",
					len(e.pcs), b.PC, b.Target, b.Instructions)
				break
			}
			m := uint8(b.Type)
			if b.Taken {
				m |= 1 << 3
			}
			if b.MispredictedTarget {
				m |= 1 << 4
			}
			e.pcs = append(e.pcs, uint32(b.PC))
			e.targets = append(e.targets, uint32(b.Target))
			e.instrs = append(e.instrs, uint8(b.Instructions))
			e.meta = append(e.meta, m)
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
