// Package telemetry is the observability layer of the simulation stack:
// a low-overhead metrics registry (counters, gauges, bucketed histograms
// and fixed-interval time series) plus a structured event tracer emitting
// Chrome trace-event JSON loadable in Perfetto / chrome://tracing.
//
// The design goal is that observation stays compiled in permanently.
// Components hold typed instrument pointers (*Counter, *Histogram, ...)
// from a Registry; every instrument method is nil-safe, so with a nil
// registry an update is one pointer test with no allocation and no atomic
// traffic. Predictors hold no instruments: they count in plain Stats
// fields, which the simulation driver publishes through a Publisher:
//
//	reg := telemetry.NewRegistry()
//	res, err := sim.Run(src, pred, sim.Options{..., Telemetry: reg})
//	reg.WriteJSON(f)
//
// Instrument updates are atomic, so one registry may be shared by
// concurrent goroutines (the harness does; simulations are
// single-threaded per predictor but registration is still guarded).
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The zero of the
// *pointer* (nil) is the disabled instrument: Inc/Add on a nil counter
// are no-ops.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins instrument for levels (live entries,
// occupancy). Nil gauges are no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the current level.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last recorded level (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bounds are inclusive
// upper bounds in ascending order; an observation lands in the first
// bucket whose bound is >= the value, or in the implicit overflow bucket
// past the last bound (Counts has len(Bounds)+1 slots). Nil histograms
// are no-ops.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.addSum(v)
}

// AddBuckets adds counts[i] observations to bucket i and sum to the sum:
// a batch of Observe calls the caller has already bucketed. Slots past
// the last bucket are ignored.
func (h *Histogram) AddBuckets(counts []uint64, sum float64) {
	if h == nil {
		return
	}
	var n uint64
	for i := 0; i < len(counts) && i < len(h.counts); i++ {
		h.counts[i].Add(counts[i])
		n += counts[i]
	}
	h.count.Add(n)
	h.addSum(sum)
}

// addSum adds v to the float64 sum.
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// LinearBuckets returns n bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + width*float64(i)
	}
	return out
}

// ExponentialBuckets returns n bounds start, start*factor, ...
func ExponentialBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Series is a fixed-interval time series: point i covers source indices
// [i*Interval, (i+1)*Interval). The producer appends one point per
// elapsed interval (the simulation driver keys intervals by
// measured-branch index). Nil series are no-ops.
type Series struct {
	mu       sync.Mutex
	interval uint64
	points   []float64
}

// Append records the next interval's value.
func (s *Series) Append(v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.points = append(s.points, v)
	s.mu.Unlock()
}

// Interval returns the series' source-index stride (0 for nil).
func (s *Series) Interval() uint64 {
	if s == nil {
		return 0
	}
	return s.interval
}

// Len returns the number of recorded points.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.points)
}

// Registry owns a flat namespace of instruments. A nil *Registry is the
// disabled registry: every lookup returns a nil (no-op) instrument, so
// components can attach unconditionally. Registration is idempotent —
// asking for an existing name returns the same instrument.
type Registry struct {
	// seq numbers snapshots monotonically (atomic; outside mu so
	// Snapshot's ordering guarantee holds even under concurrent scrapes).
	seq atomic.Uint64

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	series     map[string]*Series
	// nowMillis, when non-nil, timestamps snapshots (wall-clock Unix
	// milliseconds). Nil keeps snapshots byte-deterministic — the
	// simulation determinism gate depends on that default.
	nowMillis func() int64
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		series:     make(map[string]*Series),
	}
}

// Counter registers (or finds) the named counter. Nil registries return
// a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge registers (or finds) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram registers (or finds) the named histogram. Bounds are
// inclusive ascending upper bounds; they apply only on first
// registration (later callers receive the existing instrument).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)+1),
		}
		r.histograms[name] = h
	}
	return h
}

// Series registers (or finds) the named series with the given
// source-index interval (applied on first registration only).
func (r *Registry) Series(name string, interval uint64) *Series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.series[name]
	if s == nil {
		if interval == 0 {
			interval = 1
		}
		s = &Series{interval: interval}
		r.series[name] = s
	}
	return s
}

// Publisher is the CountSink through which the simulation driver
// publishes a predictor's cumulative counters (predictor.Counted). A
// name's first report registers it and adds nothing; each later report
// adds the growth since the previous one. Totals never decrease, and no
// counter shares a histogram's name. Not safe for concurrent use.
type Publisher struct {
	reg  *Registry
	last map[string][]uint64 // a counter's total, or a histogram's counts then sum
}

// NewPublisher returns a publisher feeding reg.
func NewPublisher(reg *Registry) *Publisher {
	return &Publisher{reg: reg, last: make(map[string][]uint64)}
}

// Count publishes the growth of the named counter's total.
func (p *Publisher) Count(name string, total uint64) {
	last, seen := p.last[name]
	c := p.reg.Counter(name)
	if seen {
		c.Add(total - last[0])
	}
	p.last[name] = append(last[:0], total)
}

// Buckets publishes the growth of the named histogram's bucket counts
// and integer sum. bounds apply on the first report.
func (p *Publisher) Buckets(name string, bounds []float64, counts []uint64, sum uint64) {
	last, seen := p.last[name]
	h := p.reg.Histogram(name, bounds)
	if seen {
		for i, n := range counts {
			last[i] = n - last[i] // the growth, until the append below
		}
		h.AddBuckets(last[:len(counts)], float64(sum-last[len(counts)]))
	}
	p.last[name] = append(append(last[:0], counts...), sum)
}

// HistogramSnapshot is the serialized state of one histogram. Counts has
// one slot per bound plus a final overflow slot.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// SeriesSnapshot is the serialized state of one time series.
type SeriesSnapshot struct {
	// Interval is the source-index stride between points (e.g. measured
	// branches per point).
	Interval uint64 `json:"interval"`
	// Points holds one value per completed interval, in order.
	Points []float64 `json:"points"`
}

// Snapshot is a point-in-time copy of every instrument in a registry —
// the JSON payload behind the CLIs' -metrics flag and the service's
// /metrics endpoint.
type Snapshot struct {
	// Seq is a per-registry monotonic snapshot sequence number (1 for
	// the first snapshot). Repeated scrapes of a live registry are
	// order-checkable by comparing Seq; llbp-metrics/1 files written
	// before sequence numbers existed decode with Seq 0.
	Seq uint64 `json:"seq,omitempty"`
	// TimeUnixMS is the wall-clock snapshot time in Unix milliseconds.
	// It is present only when the registry was given a clock with
	// SetClock — deterministic producers (the simulation drivers) leave
	// the clock unset so their snapshots stay byte-reproducible.
	TimeUnixMS int64 `json:"time_unix_ms,omitempty"`

	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Series     map[string]SeriesSnapshot    `json:"series,omitempty"`
}

// SetClock gives the registry a wall-clock source (Unix milliseconds)
// used to timestamp snapshots. Long-running services set one so scrapes
// carry freshness; batch tools leave it nil for byte-determinism. A nil
// registry ignores the call.
func (r *Registry) SetClock(nowMillis func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.nowMillis = nowMillis
	r.mu.Unlock()
}

// Snapshot copies the registry's current state. Nil registries snapshot
// empty. Successive snapshots of the same registry carry strictly
// increasing Seq values.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{Counters: map[string]uint64{}}
	if r == nil {
		return snap
	}
	snap.Seq = r.seq.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nowMillis != nil {
		snap.TimeUnixMS = r.nowMillis()
	}
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	if len(r.gauges) > 0 {
		snap.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			snap.Gauges[name] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			hs := HistogramSnapshot{
				Bounds: append([]float64(nil), h.bounds...),
				Counts: make([]uint64, len(h.counts)),
				Count:  h.Count(),
				Sum:    h.Sum(),
			}
			for i := range h.counts {
				hs.Counts[i] = h.counts[i].Load()
			}
			snap.Histograms[name] = hs
		}
	}
	if len(r.series) > 0 {
		snap.Series = make(map[string]SeriesSnapshot, len(r.series))
		for name, s := range r.series {
			s.mu.Lock()
			snap.Series[name] = SeriesSnapshot{
				Interval: s.interval,
				Points:   append([]float64(nil), s.points...),
			}
			s.mu.Unlock()
		}
	}
	return snap
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// MetricsSchema identifies the on-disk metrics snapshot format.
const MetricsSchema = "llbp-metrics/1"

// RunSnapshot pairs one simulation run's identity with its metrics.
type RunSnapshot struct {
	Workload  string   `json:"workload,omitempty"`
	Predictor string   `json:"predictor,omitempty"`
	Metrics   Snapshot `json:"metrics"`
}

// MetricsFile is the top-level -metrics JSON document: a schema tag and
// one RunSnapshot per simulated run (tools that snapshot a single
// process-wide registry write exactly one run).
type MetricsFile struct {
	Schema string        `json:"schema"`
	Runs   []RunSnapshot `json:"runs"`
}

// WriteMetricsFile writes runs as an indented MetricsFile document.
func WriteMetricsFile(w io.Writer, runs []RunSnapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(MetricsFile{Schema: MetricsSchema, Runs: runs})
}

// ReadMetricsFile parses a MetricsFile document, validating the schema
// tag. It is the reader side used by cmd/telemetrycheck and tests.
func ReadMetricsFile(data []byte) (*MetricsFile, error) {
	var mf MetricsFile
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, fmt.Errorf("telemetry: parsing metrics file: %w", err)
	}
	if mf.Schema != MetricsSchema {
		return nil, fmt.Errorf("telemetry: metrics schema %q, want %q", mf.Schema, MetricsSchema)
	}
	return &mf, nil
}
