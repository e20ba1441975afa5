package cache

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"llbp/internal/telemetry"
	"llbp/internal/trace"
	"llbp/internal/workload"
)

// keyedSource is a deterministic in-memory Source implementing Keyer.
// Its branches cycle over keyedSites sites, so a stream longer than that
// reuses its site table as a server workload does.
type keyedSource struct {
	name     string
	seed     uint64
	branches []trace.Branch
	opens    int // Opens observed (synthesis count proxy); not race-guarded, single-threaded tests only
}

const keyedSites = 97

func newKeyedSource(name string, seed uint64, n int) *keyedSource {
	out := make([]trace.Branch, n)
	for i := range out {
		site := i % keyedSites
		out[i] = trace.Branch{
			PC:           seed<<20 + uint64(site)*4,
			Target:       seed<<20 + uint64(site)*4 + 64,
			Type:         trace.BranchType(site % 6),
			Taken:        i%3 == 0,
			Instructions: uint32(i%9 + 1),
		}
	}
	return &keyedSource{name: name, seed: seed, branches: out}
}

func (s *keyedSource) Name() string { return s.name }
func (s *keyedSource) Open() trace.Reader {
	s.opens++
	return trace.NewSliceReader(s.branches)
}
func (s *keyedSource) CacheKey() uint64 { return s.seed }

// footprint is the resident bytes the cache counts for branches: one
// record per branch plus one table entry per distinct (PC, target, type)
// site, counted here with a map.
func footprint(branches []trace.Branch) int64 {
	sites := map[site]bool{}
	for _, b := range branches {
		sites[site{pc: b.PC, target: b.Target, typ: b.Type}] = true
	}
	return int64(len(branches))*bytesPerRecord + int64(len(sites))*bytesPerSite
}

// prefix reads the first n branches of src straight from its generator.
func prefix(t testing.TB, src trace.Source, n int) []trace.Branch {
	t.Helper()
	out := make([]trace.Branch, n)
	got, err := trace.OpenBatched(src).ReadBatch(out)
	if err != nil || got != n {
		t.Fatalf("reading %d branches of %s: got %d, %v", n, src.Name(), got, err)
	}
	return out
}

// drain replays all of src into a slice.
func drain(t *testing.T, src trace.Source) []trace.Branch {
	t.Helper()
	var out []trace.Branch
	r := src.Open()
	var b trace.Branch
	for {
		if err := r.Read(&b); err != nil {
			if trace.IsEOF(err) {
				return out
			}
			t.Fatal(err)
		}
		out = append(out, b)
	}
}

// TestAcquireRoundTrip: a handle replays exactly the source's branches,
// via both Read and ReadBatch, and repeated Opens restart the stream.
func TestAcquireRoundTrip(t *testing.T) {
	src := newKeyedSource("wl", 7, 1000)
	c := New(1 << 20)
	h, err := c.Acquire(src, 1000)
	if err != nil || h == nil {
		t.Fatalf("Acquire: %v %v", h, err)
	}
	defer h.Release()
	if h.Name() != "wl" || h.Len() != 1000 {
		t.Fatalf("handle: name=%q len=%d", h.Name(), h.Len())
	}

	got := drain(t, h)
	if len(got) != 1000 {
		t.Fatalf("replayed %d branches", len(got))
	}
	for i := range got {
		if got[i] != src.branches[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], src.branches[i])
		}
	}

	br := h.OpenBatch()
	dst := make([]trace.Branch, 333)
	var batched []trace.Branch
	for {
		n, err := br.ReadBatch(dst)
		batched = append(batched, dst[:n]...)
		if err != nil {
			if !trace.IsEOF(err) {
				t.Fatal(err)
			}
			break
		}
	}
	if len(batched) != 1000 {
		t.Fatalf("batched replay: %d branches", len(batched))
	}
	for i := range batched {
		if batched[i] != src.branches[i] {
			t.Fatalf("batched record %d mismatch", i)
		}
	}
}

// TestPrefixSharingAndExtension: a shorter request hits the existing
// buffer as a prefix; a longer one extends it without re-reading the
// prefix; the workload is synthesized once.
func TestPrefixSharingAndExtension(t *testing.T) {
	src := newKeyedSource("wl", 1, 2000)
	c := New(1 << 20)

	h1, err := c.Acquire(src, 1000)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c.Acquire(src, 400) // prefix hit
	if err != nil {
		t.Fatal(err)
	}
	if h2.Len() != 400 {
		t.Fatalf("prefix handle len = %d", h2.Len())
	}
	h3, err := c.Acquire(src, 2000) // extension
	if err != nil {
		t.Fatal(err)
	}
	if h3.Len() != 2000 {
		t.Fatalf("extended handle len = %d", h3.Len())
	}
	if got := drain(t, h3); len(got) != 2000 || got[1999] != src.branches[1999] {
		t.Fatalf("extension replay wrong: %d records", len(got))
	}
	// Prefix handles acquired before the extension still replay their
	// original view.
	if got := drain(t, h2); len(got) != 400 || got[399] != src.branches[399] {
		t.Fatalf("old prefix handle corrupted by extension")
	}

	if src.opens != 1 {
		t.Errorf("source synthesized %d times, want 1", src.opens)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 {
		t.Errorf("stats = %+v, want 1 hit (prefix) / 2 misses (initial+extension)", s)
	}
	if s.BytesResident != footprint(src.branches) || s.Entries != 1 {
		t.Errorf("occupancy = %+v", s)
	}
	h1.Release()
	h2.Release()
	h3.Release()
}

// TestUncacheableSource: sources without a cache key are declined, not
// materialized.
func TestUncacheableSource(t *testing.T) {
	c := New(1 << 20)
	src := &trace.SliceSource{SourceName: "plain", Branches: make([]trace.Branch, 4)}
	h, err := c.Acquire(src, 4)
	if h != nil || err != nil {
		t.Fatalf("Acquire(uncacheable) = %v, %v; want nil, nil", h, err)
	}
	if s := c.Stats(); s.Entries != 0 || s.Misses != 0 {
		t.Errorf("uncacheable source touched the cache: %+v", s)
	}
}

// TestNilCacheAcquire: a nil *Cache declines gracefully, so call sites
// can treat "caching off" uniformly.
func TestNilCacheAcquire(t *testing.T) {
	var c *Cache
	h, err := c.Acquire(newKeyedSource("wl", 1, 4), 4)
	if h != nil || err != nil {
		t.Fatalf("nil cache Acquire = %v, %v", h, err)
	}
}

// TestShortStream: when the source EOFs before n branches, the handle
// replays the true length and the readers EOF there — same outcome as
// direct replay.
func TestShortStream(t *testing.T) {
	src := newKeyedSource("short", 3, 100)
	c := New(1 << 20)
	h, err := c.Acquire(src, 5000)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if h.Len() != 100 {
		t.Fatalf("short-stream handle len = %d, want 100", h.Len())
	}
	// A later longer request must not re-open the exhausted generator.
	h2, err := c.Acquire(src, 9000)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if h2.Len() != 100 || src.opens != 1 {
		t.Fatalf("len=%d opens=%d, want 100, 1", h2.Len(), src.opens)
	}
}

// failingSource errors mid-stream; requests beyond the error point must
// fail, prefix requests must succeed.
type failingSource struct {
	*keyedSource
	failAt int
	err    error
}

func (s *failingSource) Open() trace.Reader {
	s.opens++
	return &failReader{r: trace.NewSliceReader(s.branches), left: s.failAt, err: s.err}
}

type failReader struct {
	r    trace.Reader
	left int
	err  error
}

func (f *failReader) Read(b *trace.Branch) error {
	if f.left == 0 {
		return f.err
	}
	f.left--
	return f.r.Read(b)
}

// TestGeneratorError: terminal errors are sticky; prefixes before the
// error stay replayable.
func TestGeneratorError(t *testing.T) {
	boom := errors.New("synthesis failed")
	src := &failingSource{keyedSource: newKeyedSource("bad", 9, 1000), failAt: 600, err: boom}
	c := New(1 << 20)

	if _, err := c.Acquire(src, 1000); !errors.Is(err, boom) {
		t.Fatalf("Acquire past failure: %v, want boom", err)
	}
	h, err := c.Acquire(src, 500) // prefix before the error
	if err != nil || h.Len() != 500 {
		t.Fatalf("prefix after failure: %v len=%v", err, h)
	}
	h.Release()
	if _, err := c.Acquire(src, 700); !errors.Is(err, boom) {
		t.Fatalf("error not sticky: %v", err)
	}
	if src.opens != 1 {
		t.Errorf("failed generator reopened: %d opens", src.opens)
	}
}

// TestMisfitBranch: a branch whose gap does not fit a record's 8 bits
// ends the stream with a sticky error naming its index. Requests past it
// fail; a handle taken earlier for a prefix, and prefix requests after
// it, still replay. PCs and targets fit at any width.
func TestMisfitBranch(t *testing.T) {
	src := newKeyedSource("gap", 6, 1000)
	src.branches[700].Instructions = 256
	c := New(1 << 20)
	early, err := c.Acquire(src, 300)
	if err != nil {
		t.Fatalf("prefix before the misfit: %v", err)
	}
	for _, n := range []uint64{1000, 701, 800} {
		_, err := c.Acquire(src, n)
		if err == nil || !strings.Contains(err.Error(), "branch 700 ") {
			t.Fatalf("Acquire(%d) = %v, want an error naming branch 700", n, err)
		}
	}
	if got := drain(t, early); len(got) != 300 || got[299] != src.branches[299] {
		t.Fatalf("early prefix handle replays %d branches", len(got))
	}
	early.Release()
	h, err := c.Acquire(src, 700)
	if err != nil {
		t.Fatalf("prefix up to the misfit: %v", err)
	}
	if got := drain(t, h); len(got) != 700 || got[699] != src.branches[699] {
		t.Fatalf("prefix handle replays %d branches", len(got))
	}
	h.Release()
	if src.opens != 1 {
		t.Errorf("source opened %d times, want 1", src.opens)
	}

	for _, tc := range []struct {
		name string
		mod  func(*trace.Branch)
	}{
		{"pc 2^32", func(b *trace.Branch) { b.PC = 1 << 32 }},
		{"pc 2^64-1", func(b *trace.Branch) { b.PC = math.MaxUint64 }},
		{"target 2^32", func(b *trace.Branch) { b.Target = 1 << 32 }},
		{"target 2^64-1", func(b *trace.Branch) { b.Target = math.MaxUint64 }},
	} {
		src := newKeyedSource(tc.name, 6, 1000)
		tc.mod(&src.branches[700])
		h, err := New(1<<20).Acquire(src, 1000)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := drain(t, h); !reflect.DeepEqual(got, src.branches) {
			t.Errorf("%s: replay differs from the source", tc.name)
		}
		h.Release()
	}
}

// TestPackSiteBoundary: a record indexes 2^22 sites, 0 through 2^22-1;
// the next site is refused. pack is what fill checks each branch with,
// so the bound is tested without materializing 4M sites.
func TestPackSiteBoundary(t *testing.T) {
	b := trace.Branch{Taken: true, MispredictedTarget: true, Instructions: 255}
	rec, ok := pack(maxSites-1, &b)
	if !ok {
		t.Fatalf("site %d refused", maxSites-1)
	}
	if rec&siteMask != maxSites-1 || rec>>gapShift&0xff != 255 || rec&takenBit == 0 || rec&missBit == 0 {
		t.Fatalf("record %#x lost a field of site %d, gap 255, taken, target miss", rec, maxSites-1)
	}
	if _, ok := pack(maxSites, &b); ok {
		t.Fatalf("site %d packed into a %d-bit index", maxSites, siteBits)
	}
}

// TestCatalogRoundTrip: every catalog workload, acquired at 200,000
// branches, replays exactly its generator's stream through both Read and
// ReadBatch.
func TestCatalogRoundTrip(t *testing.T) {
	const n = 200_000
	c := New(0)
	for _, wl := range workload.Catalog() {
		want := prefix(t, wl, n)
		h, err := c.Acquire(wl, n)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name(), err)
		}
		if got := drain(t, h); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Read replay differs from the generator", wl.Name())
		}
		got := make([]trace.Branch, 0, n)
		buf := make([]trace.Branch, 4096)
		r := h.OpenBatch()
		for {
			k, err := r.ReadBatch(buf)
			got = append(got, buf[:k]...)
			if err != nil {
				if !trace.IsEOF(err) {
					t.Fatal(err)
				}
				break
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ReadBatch replay differs from the generator", wl.Name())
		}
		h.Release()
	}
}

// TestBytesPerBranch: the footprint the budget counts is the element
// sizes of the records and the site table.
func TestBytesPerBranch(t *testing.T) {
	var e entry
	if got := unsafe.Sizeof(e.recs[0]); got != bytesPerRecord {
		t.Errorf("a record holds %d bytes, bytesPerRecord = %d", got, bytesPerRecord)
	}
	if got := unsafe.Sizeof(e.sites[0]); got != bytesPerSite {
		t.Errorf("a site holds %d bytes, bytesPerSite = %d", got, bytesPerSite)
	}
}

// TestEvictionLRUAndPinning: the byte budget evicts only unpinned
// entries, in least-recently-used order; pinned entries survive even
// over budget.
func TestEvictionLRUAndPinning(t *testing.T) {
	a := newKeyedSource("a", 1, 100)
	b := newKeyedSource("b", 2, 100)
	d := newKeyedSource("d", 3, 100)
	per := footprint(a.branches)
	if footprint(b.branches) != per || footprint(d.branches) != per {
		t.Fatal("the three sources differ in footprint")
	}
	c := New(2 * per) // room for two 100-branch entries

	ha, _ := c.Acquire(a, 100)
	ha.Release()
	hb, _ := c.Acquire(b, 100)
	hb.Release()
	if s := c.Stats(); s.Entries != 2 || s.Evictions != 0 {
		t.Fatalf("setup: %+v", s)
	}
	// Touch a so b becomes the LRU, then overflow with d.
	ha, _ = c.Acquire(a, 100)
	ha.Release()
	hd, _ := c.Acquire(d, 100)
	hd.Release()
	if s := c.Stats(); s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("after overflow: %+v", s)
	}
	// a survived (recently used): acquiring it is a pure hit. Pin it so
	// the rest of the test cannot evict it.
	ha2, _ := c.Acquire(a, 100)
	if a.opens != 1 {
		t.Errorf("a synthesized %d times, want 1 (recently used)", a.opens)
	}
	// b was evicted as the LRU: re-acquiring re-synthesizes and, with a
	// pinned, pushes out d to make room.
	hb2, _ := c.Acquire(b, 100)
	if b.opens != 2 {
		t.Errorf("b synthesized %d times, want 2 (evicted as LRU)", b.opens)
	}
	if s := c.Stats(); s.Entries != 2 || s.Evictions != 2 {
		t.Fatalf("after re-acquiring b: %+v", s)
	}

	// All three pinned: overflowing cannot evict anything, resident
	// exceeds the budget transiently.
	hd2, _ := c.Acquire(d, 100)
	if d.opens != 2 {
		t.Errorf("d synthesized %d times, want 2 (evicted to fit b)", d.opens)
	}
	if s := c.Stats(); s.Entries != 3 || s.BytesResident != 3*per {
		t.Fatalf("pinned overflow: %+v", s)
	}
	old := drain(t, hb2)
	if len(old) != 100 || old[0] != b.branches[0] {
		t.Fatal("pinned handle corrupted")
	}
	hb2.Release()
	ha2.Release()
	hd2.Release()
	if s := c.Stats(); s.BytesResident > c.budget {
		t.Fatalf("still over budget after releases: %+v", s)
	}
}

// TestReleaseIdempotent: double Release must not underflow the refcount
// (which would let a pinned sibling handle's entry be evicted early).
func TestReleaseIdempotent(t *testing.T) {
	src := newKeyedSource("wl", 4, 10)
	c := New(1 << 20)
	h1, _ := c.Acquire(src, 10)
	h2, _ := c.Acquire(src, 10)
	h1.Release()
	h1.Release()
	h1.Release()
	c.mu.Lock()
	refs := c.order[0].refs
	c.mu.Unlock()
	if refs != 1 {
		t.Fatalf("refs = %d after double release, want 1 (h2 pinned)", refs)
	}
	h2.Release()
	var nilH *Handle
	nilH.Release() // must not panic
}

// TestConcurrentAcquire: many goroutines acquiring, replaying and
// releasing overlapping prefixes of the same and different workloads
// exercise the singleflight and eviction paths under -race. The
// catalog's real executor is the generator, so batch materialization
// also runs concurrently with zero-copy replays.
func TestConcurrentAcquire(t *testing.T) {
	wl, err := workload.ByName("Tomcat")
	if err != nil {
		t.Fatal(err)
	}
	wl2, err := workload.ByName("Kafka")
	if err != nil {
		t.Fatal(err)
	}
	// Budget fits either workload at its full 12,500 branches but not
	// both, forcing evictions while handles churn.
	budget := footprint(prefix(t, wl, 12_500)) + footprint(prefix(t, wl2, 12_500)) - 1
	c := New(budget)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := wl
			if g%2 == 1 {
				src = wl2
			}
			for i := 0; i < 6; i++ {
				n := uint64(5_000 + 2_500*((g+i)%4))
				h, err := c.Acquire(src, n)
				if err != nil {
					t.Error(err)
					return
				}
				if h == nil {
					t.Error("workload source not cacheable")
					return
				}
				if got := uint64(h.Len()); got != n {
					t.Errorf("handle len = %d, want %d", got, n)
				}
				r := h.OpenBatch()
				buf := make([]trace.Branch, 1024)
				var seen uint64
				for {
					k, err := r.ReadBatch(buf)
					seen += uint64(k)
					if err != nil {
						if !trace.IsEOF(err) {
							t.Error(err)
						}
						break
					}
				}
				if seen != n {
					t.Errorf("replayed %d of %d", seen, n)
				}
				h.Release()
			}
		}(g)
	}
	wg.Wait()

	s := c.Stats()
	if s.Hits+s.Misses != 48 {
		t.Errorf("acquire count = %d, want 48 (%+v)", s.Hits+s.Misses, s)
	}
	if s.BytesResident > budget {
		t.Errorf("over budget at rest: %+v", s)
	}
}

// TestConcurrentSingleflight: concurrent first acquisitions of one key
// materialize once.
func TestConcurrentSingleflight(t *testing.T) {
	wl, err := workload.ByName("Tomcat")
	if err != nil {
		t.Fatal(err)
	}
	c := New(1 << 30)
	const n = 20_000
	var wg sync.WaitGroup
	handles := make([]*Handle, 16)
	for i := range handles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := c.Acquire(wl, n)
			if err != nil {
				t.Error(err)
				return
			}
			handles[i] = h
		}(i)
	}
	wg.Wait()
	s := c.Stats()
	if s.Misses != 1 {
		t.Errorf("misses = %d, want 1 (singleflight)", s.Misses)
	}
	if s.Hits != uint64(len(handles))-1 {
		t.Errorf("hits = %d, want %d", s.Hits, len(handles)-1)
	}
	ref := drain(t, handles[0])
	for _, h := range handles[1:] {
		got := drain(t, h)
		if len(got) != len(ref) {
			t.Fatalf("handle lengths diverge: %d vs %d", len(got), len(ref))
		}
	}
	for _, h := range handles {
		h.Release()
	}
}

// TestTelemetryAttach: instruments registered before or after traffic
// report the same totals.
func TestTelemetryAttach(t *testing.T) {
	src := newKeyedSource("wl", 5, 50)
	c := New(1 << 20)

	pre := telemetry.NewRegistry()
	c.AttachTelemetry(pre)
	h, _ := c.Acquire(src, 50)
	h.Release()
	h, _ = c.Acquire(src, 50)
	h.Release()

	snap := pre.Snapshot()
	if snap.Counters["trace_cache_misses"] != 1 || snap.Counters["trace_cache_hits"] != 1 {
		t.Errorf("live-attached counters: %+v", snap.Counters)
	}
	if snap.Gauges["trace_cache_bytes_resident"] != float64(footprint(src.branches)) {
		t.Errorf("bytes gauge: %+v", snap.Gauges)
	}

	post := telemetry.NewRegistry()
	c.AttachTelemetry(post)
	snap2 := post.Snapshot()
	if snap2.Counters["trace_cache_misses"] != 1 || snap2.Counters["trace_cache_hits"] != 1 {
		t.Errorf("late-attached counters missing history: %+v", snap2.Counters)
	}
	if snap2.Gauges["trace_cache_entries"] != 1 {
		t.Errorf("entries gauge: %+v", snap2.Gauges)
	}
}

// TestSetBudgetEvicts: shrinking the budget evicts immediately.
func TestSetBudgetEvicts(t *testing.T) {
	c := New(1 << 20)
	var per int64
	for i := 0; i < 4; i++ {
		src := newKeyedSource(string(rune('a'+i)), uint64(i), 100)
		per = footprint(src.branches)
		h, err := c.Acquire(src, 100)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	if s := c.Stats(); s.Entries != 4 {
		t.Fatalf("setup: %+v", s)
	}
	c.SetBudget(per + per/2) // room for one entry
	if s := c.Stats(); s.Entries != 1 || s.Evictions != 3 {
		t.Fatalf("after shrink: %+v", s)
	}
}

// BenchmarkHandleReadBatch times the cache's decode: one op replays a
// 1M-branch Tomcat handle through ReadBatch in sim.Run's 4096-branch
// batches, so ns/op over 2^20 is the decode's ns per branch, the cost
// perfbench reports as trace.decode_ns_per_branch. SetBytes counts the
// 4-byte records, so MB/s is the record bandwidth the decode reads (the
// site table, a few thousand entries, stays in cache).
func BenchmarkHandleReadBatch(b *testing.B) {
	wl, err := workload.ByName("Tomcat")
	if err != nil {
		b.Fatal(err)
	}
	const n = 1 << 20
	h, err := New(0).Acquire(wl, n)
	if err != nil {
		b.Fatal(err)
	}
	defer h.Release()
	buf := make([]trace.Branch, 4096)
	b.SetBytes(n * bytesPerRecord)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := h.OpenBatch()
		for got := 0; got < n; {
			k, err := r.ReadBatch(buf)
			got += k
			if err != nil {
				b.Fatalf("after %d branches: %v", got, err)
			}
		}
	}
}

// BenchmarkAcquire times the fill: one op materializes 1,048,576 Tomcat
// branches into a fresh cache, so ns/op over 2^20 is the generator plus
// the site lookup and packing per branch, the cost perfbench reports as
// workload.gen_ns_per_branch.
func BenchmarkAcquire(b *testing.B) {
	wl, err := workload.ByName("Tomcat")
	if err != nil {
		b.Fatal(err)
	}
	const n = 1 << 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h, err := New(0).Acquire(wl, n)
		if err != nil {
			b.Fatal(err)
		}
		if h.Len() != n {
			b.Fatalf("handle holds %d branches, want %d", h.Len(), n)
		}
		h.Release()
	}
}
