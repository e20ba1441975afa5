package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"llbp/internal/core"
	"llbp/internal/predictor"
	"llbp/internal/sim"
	"llbp/internal/tage"
	"llbp/internal/trace"
	"llbp/internal/tsl"
)

// endToEnd holds the metrics an untraced run prints; BENCHMARK.json
// declares the same names, units and bounds.
type endToEnd struct {
	rate       float64 // measured branches per process CPU second
	setup      float64 // process CPU seconds of one set-up
	heapMB     float64
	allocPerBr float64
	mpki       float64
	// batchUs holds each pass's per-batch driving-thread CPU times, µs.
	batchUs [][]float64
}

func (e endToEnd) fill(m map[string]metric) {
	m["branches_per_cpu_s"] = metric{e.rate, "branches/s"}
	m["setup_s"] = metric{e.setup, "s"}
	m["heap_mb"] = metric{e.heapMB, "MB"}
	m["alloc_b_per_branch"] = metric{e.allocPerBr, "B/branch"}
	m["mpki"] = metric{e.mpki, "misp/kinstr"}
	m["batch_cpu_p50_us"] = metric{passQuantile(e.batchUs, 0.50), "us"}
}

// passQuantile is each pass's q-quantile batch time, taken at the
// sustainedQuantile over passes: every pass replays the same batches, so
// this is the latency the run sustained in nine passes out of ten. The
// p99 is printed as a diagnostic, not gated: it moved by up to a quarter
// between runs (NOTES.md).
func passQuantile(passes [][]float64, q float64) float64 {
	qs := make([]float64, len(passes))
	for i, p := range passes {
		qs[i] = quantile(p, q)
	}
	return quantile(qs, sustainedQuantile)
}

// beyond returns how many of n samples lie beyond the q-quantile.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

// layerUnits lists every per-layer metric a traced run prints. A layer a
// workload does not exercise reads 0: the session never decodes a trace
// or runs LLBP, and the replays never parse a frame.
var layerUnits = map[string]string{
	"workload.gen_ns_per_branch":          "ns/branch",
	"sim.warm_ns_per_branch":              "ns/branch",
	"trace.decode_ns_per_branch":          "ns/branch",
	"sim.self_ns_per_branch":              "ns/branch",
	"predictor.predict_ns_per_cond":       "ns/cond",
	"predictor.update_ns_per_cond":        "ns/cond",
	"predictor.track_other_ns_per_uncond": "ns/uncond",
	"predictor.reset_ns_per_reset":        "ns/reset",
	"tage.ns_per_branch":                  "ns/branch",
	"tsl.sc_loop_ns_per_branch":           "ns/branch",
	"core.llbp_ns_per_branch":             "ns/branch",
	"core.engine_push_ns":                 "ns/op",
	"core.match_patterns_ns":              "ns/op",
	"core.pb_lookup_ns":                   "ns/op",
	"core.patternset_clone_ns":            "ns/op",
	"core.pb_hit_ratio":                   "ratio",
	"core.pb_miss_per_kbr":                "count/kbr",
	"core.pb_late_per_kbr":                "count/kbr",
	"core.cd_evictions_per_kbr":           "count/kbr",
	"core.ctx_allocs_per_kbr":             "count/kbr",
	"core.pattern_allocs_per_kbr":         "count/kbr",
	"core.llbp_writes_per_kbr":            "count/kbr",
	"core.prefetch_useful_ratio":          "ratio",
	"core.override_accuracy":              "ratio",
	"tsl.sc_reversals_per_kbr":            "count/kbr",
	"tsl.tage_allocs_per_kbr":             "count/kbr",
	"session.open_s":                      "s",
	"session.parse_ns_per_branch":         "ns/branch",
	"session.apply_ns_per_branch":         "ns/branch",
	"session.encode_ns_per_branch":        "ns/branch",
	"session.checkpoint_apply_us":         "us",
	"harness.journal_ns_per_branch":       "ns/branch",
	"session.parse_alloc_b_per_branch":    "B/branch",
	"session.apply_alloc_b_per_branch":    "B/branch",
	"runtime.gc_cpu_share":                "ratio",
	"ledger.residual_pct":                 "%",
	"tracing.overhead_pct":                "%",
}

func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(layerUnits))
	for name := range layerUnits {
		m[name] = 0
	}
	return m
}

// setLayers copies the per-layer values into the printed metrics and
// lists them as diagnostics, in name order.
func setLayers(cfg config, out map[string]metric, layers map[string]float64) {
	names := make([]string, 0, len(layers))
	for name, v := range layers {
		unit, ok := layerUnits[name]
		if !ok {
			panic("perfbench: undeclared layer metric " + name) // a typo in this package
		}
		out[name] = metric{v, unit}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cfg.printf("layer %-38s %14.4f %s", name, layers[name], layerUnits[name])
	}
}

func statsDelta(a, b core.Stats) core.Stats {
	return core.Stats{
		GoodOverride:   a.GoodOverride - b.GoodOverride,
		BadOverride:    a.BadOverride - b.BadOverride,
		LLBPWrites:     a.LLBPWrites - b.LLBPWrites,
		PBHits:         a.PBHits - b.PBHits,
		NotReady:       a.NotReady - b.NotReady,
		PBMisses:       a.PBMisses - b.PBMisses,
		CtxAllocs:      a.CtxAllocs - b.CtxAllocs,
		PatternAllocs:  a.PatternAllocs - b.PatternAllocs,
		PrefetchIssued: a.PrefetchIssued - b.PrefetchIssued,
		PrefetchFilled: a.PrefetchFilled - b.PrefetchFilled,
		CDEvictions:    a.CDEvictions - b.CDEvictions,
	}
}

func tslDelta(a, b tsl.Stats) tsl.Stats {
	return tsl.Stats{
		SCReversals: a.SCReversals - b.SCReversals,
		TAGEAllocs:  a.TAGEAllocs - b.TAGEAllocs,
	}
}

// fillCoreCounts sets the LLBP event rates of a measured window. They are
// exact counts: a pure speed-up leaves every one unchanged.
func fillCoreCounts(layers map[string]float64, s core.Stats, branches float64) {
	kbr := branches / 1000
	f := func(v uint64) float64 { return float64(v) }
	layers["core.pb_hit_ratio"] = ratio(f(s.PBHits), f(s.PBHits+s.NotReady+s.PBMisses))
	layers["core.pb_miss_per_kbr"] = f(s.PBMisses) / kbr
	layers["core.pb_late_per_kbr"] = f(s.NotReady) / kbr
	layers["core.cd_evictions_per_kbr"] = f(s.CDEvictions) / kbr
	layers["core.ctx_allocs_per_kbr"] = f(s.CtxAllocs) / kbr
	layers["core.pattern_allocs_per_kbr"] = f(s.PatternAllocs) / kbr
	layers["core.llbp_writes_per_kbr"] = f(s.LLBPWrites) / kbr
	layers["core.prefetch_useful_ratio"] = ratio(f(s.PrefetchFilled), f(s.PrefetchIssued))
	layers["core.override_accuracy"] = ratio(f(s.GoodOverride), f(s.GoodOverride+s.BadOverride))
}

func fillTSLCounts(layers map[string]float64, s tsl.Stats, branches float64) {
	layers["tsl.sc_reversals_per_kbr"] = float64(s.SCReversals) * 1000 / branches
	layers["tsl.tage_allocs_per_kbr"] = float64(s.TAGEAllocs) * 1000 / branches
}

// nullPredictor does no prediction work; replaying through it prices the
// driver loop and decode that every bare replay shares.
type nullPredictor struct{}

func (nullPredictor) Name() string                                { return "null" }
func (nullPredictor) Predict(uint64) bool                         { return false }
func (nullPredictor) Update(uint64, bool)                         {}
func (nullPredictor) TrackOther(uint64, uint64, trace.BranchType) {}

// bareNs is the CPU cost per branch of replaying the measured window
// through the bare predictors, each warmed on the same prefix.
type bareNs struct{ nullNs, tageNs, tslNs float64 }

// bareReplayReps is how many timed replays each bare predictor gets; the
// median is kept.
const bareReplayReps = 3

// bareReplays times the measured window (window, n branches) through the
// null predictor, bare TAGE and bare TAGE-SC-L, each warmed on warm's
// prefix. Differencing them prices TAGE alone, SC plus loop, and (against
// the composite's own rate) LLBP.
func bareReplays(cfg config, warm, window trace.Source, n uint64) (bareNs, error) {
	var out bareNs
	timed := func(fork func() predictor.Predictor) (float64, error) {
		var ns []float64
		for i := 0; i < bareReplayReps; i++ {
			p := fork()
			c0 := processCPU()
			if _, err := sim.Run(window, p, sim.Options{MeasureBranches: n}); err != nil {
				return 0, fmt.Errorf("bare %s replay: %w", p.Name(), err)
			}
			ns = append(ns, (processCPU()-c0)*1e9/float64(n))
		}
		return median(ns), nil
	}
	var err error
	if out.nullNs, err = timed(func() predictor.Predictor { return nullPredictor{} }); err != nil {
		return out, err
	}
	tg, err := tage.New(tage.DefaultConfig())
	if err != nil {
		return out, err
	}
	if err := sim.Warm(warm, tg, sim.Options{WarmupBranches: cfg.warmup}); err != nil {
		return out, err
	}
	if out.tageNs, err = timed(func() predictor.Predictor { return tg.Fork() }); err != nil {
		return out, err
	}
	ts, err := tsl.New(tsl.Config64K())
	if err != nil {
		return out, err
	}
	if err := sim.Warm(warm, ts, sim.Options{WarmupBranches: cfg.warmup}); err != nil {
		return out, err
	}
	out.tslNs, err = timed(func() predictor.Predictor { return ts.Fork(nil) })
	return out, err
}

// microbenches times core.Microbenches in thread CPU: each runs about a
// tenth of a CPU second, three times, and the median ns/op is kept.
func microbenches(cfg config, layers map[string]float64) {
	for _, mb := range core.Microbenches() {
		n := 1024
		for {
			c0 := threadCPU()
			mb.Run(n)
			if threadCPU()-c0 >= 20e6 || n >= 1<<30 {
				break
			}
			n *= 4
		}
		n *= 5
		var ns []float64
		for i := 0; i < 3; i++ {
			c0 := threadCPU()
			mb.Run(n)
			ns = append(ns, float64(threadCPU()-c0)/float64(n))
		}
		name := "core." + strings.ReplaceAll(mb.Name, "-", "_") + "_ns"
		if _, ok := layerUnits[name]; !ok {
			cfg.printf("microbench %s has no declared metric; skipped", mb.Name)
			continue
		}
		layers[name] = median(ns)
	}
}
