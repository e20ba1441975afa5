package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// TestNilInstrumentsNoOp: every instrument and the registry itself must
// be safe to use when nil — that is the disabled fast path.
func TestNilInstrumentsNoOp(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Errorf("nil counter value = %d", c.Value())
	}
	g := reg.Gauge("g")
	g.Set(3)
	if g.Value() != 0 {
		t.Errorf("nil gauge value = %g", g.Value())
	}
	h := reg.Histogram("h", LinearBuckets(0, 1, 4))
	h.Observe(2)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("nil histogram count=%d sum=%g", h.Count(), h.Sum())
	}
	s := reg.Series("s", 16)
	s.Append(1)
	if s.Len() != 0 || s.Interval() != 0 {
		t.Errorf("nil series len=%d interval=%d", s.Len(), s.Interval())
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 {
		t.Errorf("nil registry snapshot has %d counters", len(snap.Counters))
	}
}

// TestRegistryConcurrency hammers registration and updates from many
// goroutines; run under -race (CI does) to validate the locking story.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	const (
		goroutines = 16
		iters      = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Shared and per-goroutine names exercise both the
				// existing-instrument and first-registration paths.
				reg.Counter("shared").Inc()
				reg.Counter(fmt.Sprintf("own_%d", g)).Inc()
				reg.Gauge("level").Set(float64(i))
				reg.Histogram("dist", LinearBuckets(0, 10, 8)).Observe(float64(i % 80))
				if i%100 == 0 {
					reg.Series("ts", 100).Append(float64(i))
					_ = reg.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()

	snap := reg.Snapshot()
	if got := snap.Counters["shared"]; got != goroutines*iters {
		t.Errorf("shared counter = %d, want %d", got, goroutines*iters)
	}
	for g := 0; g < goroutines; g++ {
		if got := snap.Counters[fmt.Sprintf("own_%d", g)]; got != iters {
			t.Errorf("own_%d = %d, want %d", g, got, iters)
		}
	}
	h := snap.Histograms["dist"]
	if h.Count != goroutines*iters {
		t.Errorf("histogram count = %d, want %d", h.Count, goroutines*iters)
	}
	var bucketSum uint64
	for _, c := range h.Counts {
		bucketSum += c
	}
	if bucketSum != h.Count {
		t.Errorf("bucket counts sum to %d, count says %d", bucketSum, h.Count)
	}
	if got := snap.Series["ts"].Interval; got != 100 {
		t.Errorf("series interval = %d, want 100", got)
	}
	if got := len(snap.Series["ts"].Points); got != goroutines*(iters/100) {
		t.Errorf("series points = %d, want %d", got, goroutines*(iters/100))
	}
}

// TestRegistryIdempotentRegistration: the same name must return the same
// instrument.
func TestRegistryIdempotentRegistration(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("c")
	b := reg.Counter("c")
	if a != b {
		t.Error("re-registering a counter returned a different instrument")
	}
	h1 := reg.Histogram("h", []float64{1, 2})
	h2 := reg.Histogram("h", []float64{9}) // bounds ignored on re-registration
	if h1 != h2 {
		t.Error("re-registering a histogram returned a different instrument")
	}
	h1.Observe(1.5)
	if got := reg.Snapshot().Histograms["h"].Counts[1]; got != 1 {
		t.Errorf("first-registration bounds not kept: counts[1] = %d", got)
	}
}

// TestHistogramBucketBoundaries pins the boundary rule: bounds are
// inclusive upper bounds; values past the last bound land in the
// overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", []float64{0, 10, 20})
	cases := []struct {
		v      float64
		bucket int
	}{
		{-5, 0}, // below first bound -> first bucket
		{0, 0},  // exactly on a bound -> that bucket (inclusive)
		{0.001, 1},
		{10, 1},
		{10.5, 2},
		{20, 2},
		{20.0001, 3}, // past last bound -> overflow
		{1e9, 3},
	}
	for _, c := range cases {
		before := make([]uint64, 4)
		for i := range h.counts {
			before[i] = h.counts[i].Load()
		}
		h.Observe(c.v)
		for i := range h.counts {
			want := before[i]
			if i == c.bucket {
				want++
			}
			if got := h.counts[i].Load(); got != want {
				t.Errorf("Observe(%g): bucket %d = %d, want %d", c.v, i, got, want)
			}
		}
	}
	if h.Count() != uint64(len(cases)) {
		t.Errorf("count = %d, want %d", h.Count(), len(cases))
	}
	snap := reg.Snapshot().Histograms["h"]
	if len(snap.Counts) != len(snap.Bounds)+1 {
		t.Errorf("snapshot has %d counts for %d bounds", len(snap.Counts), len(snap.Bounds))
	}
}

func TestHistogramNoBounds(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", nil)
	h.Observe(42)
	snap := reg.Snapshot().Histograms["h"]
	if len(snap.Counts) != 1 || snap.Counts[0] != 1 {
		t.Errorf("boundless histogram counts = %v", snap.Counts)
	}
	if snap.Sum != 42 {
		t.Errorf("sum = %g", snap.Sum)
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(0, 5, 3)
	if want := []float64{0, 5, 10}; !equalF(lin, want) {
		t.Errorf("LinearBuckets = %v, want %v", lin, want)
	}
	exp := ExponentialBuckets(1, 2, 4)
	if want := []float64{1, 2, 4, 8}; !equalF(exp, want) {
		t.Errorf("ExponentialBuckets = %v, want %v", exp, want)
	}
}

func equalF(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMetricsFileRoundTrip covers the -metrics on-disk document.
func TestMetricsFileRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pb_hits").Add(7)
	reg.Series("mpki", 4096).Append(2.5)
	var buf bytes.Buffer
	err := WriteMetricsFile(&buf, []RunSnapshot{
		{Workload: "Tomcat", Predictor: "LLBP", Metrics: reg.Snapshot()},
	})
	if err != nil {
		t.Fatal(err)
	}
	mf, err := ReadMetricsFile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Runs) != 1 || mf.Runs[0].Workload != "Tomcat" {
		t.Fatalf("round-trip runs = %+v", mf.Runs)
	}
	if mf.Runs[0].Metrics.Counters["pb_hits"] != 7 {
		t.Errorf("pb_hits = %d", mf.Runs[0].Metrics.Counters["pb_hits"])
	}
	if s := mf.Runs[0].Metrics.Series["mpki"]; s.Interval != 4096 || len(s.Points) != 1 {
		t.Errorf("mpki series = %+v", s)
	}

	if _, err := ReadMetricsFile([]byte(`{"schema":"bogus/9","runs":[]}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	if _, err := ReadMetricsFile([]byte(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// TestSnapshotJSONShape pins the snapshot field names external tooling
// greps for.
func TestSnapshotJSONShape(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Inc()
	reg.Gauge("g").Set(1)
	reg.Histogram("h", []float64{1}).Observe(0.5)
	reg.Series("s", 8).Append(3)
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"counters", "gauges", "histograms", "series"} {
		if _, ok := m[key]; !ok {
			t.Errorf("snapshot JSON missing %q", key)
		}
	}
}

// TestSnapshotSequence: successive snapshots of one registry carry
// strictly increasing sequence numbers starting at 1, and stay
// timestamp-free until a clock is attached — the order-checkable-scrape
// contract of the service /metrics endpoint.
func TestSnapshotSequence(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Inc()
	s1, s2, s3 := reg.Snapshot(), reg.Snapshot(), reg.Snapshot()
	if s1.Seq != 1 || s2.Seq != 2 || s3.Seq != 3 {
		t.Errorf("snapshot seqs = %d,%d,%d; want 1,2,3", s1.Seq, s2.Seq, s3.Seq)
	}
	if s1.TimeUnixMS != 0 || s2.TimeUnixMS != 0 {
		t.Error("snapshots must be unstamped until SetClock is called")
	}

	var fake int64 = 1_700_000_000_000
	reg.SetClock(func() int64 { fake += 250; return fake })
	s4, s5 := reg.Snapshot(), reg.Snapshot()
	if s4.Seq != 4 || s5.Seq != 5 {
		t.Errorf("seq after SetClock = %d,%d; want 4,5", s4.Seq, s5.Seq)
	}
	if s4.TimeUnixMS == 0 || s5.TimeUnixMS <= s4.TimeUnixMS {
		t.Errorf("timestamps not monotonic: %d then %d", s4.TimeUnixMS, s5.TimeUnixMS)
	}
}

// TestSnapshotSequenceBackwardCompatible: metrics documents written before
// seq/timestamp existed (no such JSON fields) still parse, and the new
// fields round-trip through WriteMetricsFile/ReadMetricsFile.
func TestSnapshotSequenceBackwardCompatible(t *testing.T) {
	legacy := []byte(`{"schema":"llbp-metrics/1","runs":[{"workload":"w","metrics":{"counters":{"x":3}}}]}`)
	mf, err := ReadMetricsFile(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if mf.Runs[0].Metrics.Seq != 0 || mf.Runs[0].Metrics.TimeUnixMS != 0 {
		t.Errorf("legacy document decoded seq=%d ts=%d; want zeros",
			mf.Runs[0].Metrics.Seq, mf.Runs[0].Metrics.TimeUnixMS)
	}

	reg := NewRegistry()
	reg.SetClock(func() int64 { return 42_000 })
	reg.Counter("x").Add(3)
	var buf bytes.Buffer
	if err := WriteMetricsFile(&buf, []RunSnapshot{{Workload: "w", Metrics: reg.Snapshot()}}); err != nil {
		t.Fatal(err)
	}
	mf2, err := ReadMetricsFile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := mf2.Runs[0].Metrics; got.Seq != 1 || got.TimeUnixMS != 42_000 {
		t.Errorf("round-trip seq=%d ts=%d; want 1, 42000", got.Seq, got.TimeUnixMS)
	}
}

// TestPublisherPublishesGrowth: a name's first report registers it and
// adds nothing; every later report adds the growth since the last one.
func TestPublisherPublishesGrowth(t *testing.T) {
	reg := NewRegistry()
	pub := NewPublisher(reg)
	bounds := []float64{4, 8}
	pub.Count("events", 10)
	pub.Buckets("lens", bounds, []uint64{3, 0, 1}, 20)
	snap := reg.Snapshot()
	if got, ok := snap.Counters["events"]; !ok || got != 0 {
		t.Fatalf("after the baseline, events = %d (registered %v), want 0", got, ok)
	}
	if h := snap.Histograms["lens"]; h.Count != 0 || h.Sum != 0 || len(h.Counts) != 3 {
		t.Fatalf("after the baseline, lens = %+v, want empty with 3 buckets", h)
	}

	pub.Count("events", 15)
	pub.Count("events", 15)
	pub.Count("events", 40)
	pub.Buckets("lens", bounds, []uint64{5, 2, 1}, 40)
	pub.Buckets("lens", bounds, []uint64{5, 2, 2}, 140)
	snap = reg.Snapshot()
	if got := snap.Counters["events"]; got != 30 {
		t.Errorf("events = %d, want the growth 30", got)
	}
	h := snap.Histograms["lens"]
	if want := []uint64{2, 2, 1}; fmt.Sprint(h.Counts) != fmt.Sprint(want) || h.Count != 5 || h.Sum != 120 {
		t.Errorf("lens = %+v, want counts %v, count 5, sum 120", h, want)
	}
}

// TestAddBucketsMatchesObserve: adding pre-bucketed counts and a sum
// leaves a histogram exactly as the equivalent Observe calls do.
func TestAddBucketsMatchesObserve(t *testing.T) {
	reg := NewRegistry()
	bounds := ExponentialBuckets(4, 2, 10)
	observed := reg.Histogram("observed", bounds)
	added := reg.Histogram("added", bounds)
	counts := make([]uint64, len(bounds)+1)
	var sum uint64
	for _, v := range []uint64{0, 4, 5, 9, 640, 640, 2048, 3000} {
		observed.Observe(float64(v))
		i := 0
		for i < len(bounds) && bounds[i] < float64(v) {
			i++
		}
		counts[i]++
		sum += v
	}
	added.AddBuckets(counts, float64(sum))
	snap := reg.Snapshot()
	o, a := snap.Histograms["observed"], snap.Histograms["added"]
	if fmt.Sprint(o) != fmt.Sprint(a) {
		t.Errorf("AddBuckets gave %+v, Observe gave %+v", a, o)
	}
}
