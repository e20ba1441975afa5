// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index). Each experiment
// produces report.Tables whose rows correspond to the paper's plotted
// series; cmd/experiments and the root bench suite drive them.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"llbp/internal/core"
	"llbp/internal/faults"
	"llbp/internal/harness"
	"llbp/internal/predictor"
	"llbp/internal/report"
	"llbp/internal/sim"
	"llbp/internal/telemetry"
	"llbp/internal/trace"
	"llbp/internal/trace/cache"
	"llbp/internal/tsl"
	"llbp/internal/workload"
)

// Config sets the simulation budgets for the experiment suite. The paper
// warms 100M and measures 200M instructions; the defaults here are scaled
// down ~40× to laptop scale (shapes, not absolute numbers, are the
// reproduction target — DESIGN.md §3).
type Config struct {
	// Warmup/Measure are the branch budgets of headline experiments.
	Warmup  uint64
	Measure uint64
	// SweepWarmup/SweepMeasure are the (smaller) budgets of wide
	// design-space sweeps (Figures 5, 13, 14).
	SweepWarmup  uint64
	SweepMeasure uint64
	// Workloads is the workload set (defaults to the full catalog).
	Workloads []*workload.Source
	// Progress, when non-nil, receives one line per completed
	// simulation run. It may be called from multiple goroutines when
	// Parallelism > 1.
	Progress func(format string, args ...interface{})

	// Context cancels in-flight simulations (deadlines, SIGINT).
	// Defaults to context.Background().
	Context context.Context
	// Parallelism bounds concurrent simulation cells (the harness
	// admission gate). Default 1.
	Parallelism int
	// Timeout is the per-run deadline enforced by the harness (0 =
	// none).
	Timeout time.Duration
	// Retries is how many times a transiently failed run is retried.
	Retries int
	// Journal, when non-nil, checkpoints completed cells so an
	// interrupted suite resumes without redoing them.
	Journal *harness.Journal
	// Telemetry, when non-nil, receives suite-level harness metrics
	// (cells run/failed/journal hits, attempt and latency histograms).
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, receives one wall-clock span per simulation
	// cell on the harness track.
	Tracer *telemetry.Tracer

	// Remote, when non-nil, computes headline and sweep cells on a
	// remote llbpd daemon instead of simulating locally (the
	// cmd/experiments -server path). The cell still flows through the
	// local memo cache, single-flight dedup, retry loop and journal —
	// local and served execution share one code path. Fault-injected
	// cells (RunFaulted) always simulate locally.
	Remote func(ctx context.Context, spec CellSpec) (*RunOutput, error)
	// CellProgress, when non-nil, is invoked periodically (every few
	// thousand branches) while a cell simulates locally, with the cell
	// key and the running processed-branch count against the cell's
	// total budget. The llbpd service streams these as interval
	// snapshots. It may be called from multiple goroutines.
	CellProgress func(key string, processed, total uint64)

	// TraceCache, when non-nil, overrides the process-wide materialized
	// trace cache cells replay from; DisableTraceCache turns caching off
	// so every cell re-synthesizes its stream (the pre-cache behaviour,
	// useful for memory-constrained hosts and A/B measurement).
	TraceCache        *cache.Cache
	DisableTraceCache bool

	// DisableForkWarm turns off the warm-snapshot fork cache, so every
	// cell replays its own warmup even when cells share a (workload,
	// predictor, warmup) prefix. Results are byte-identical either way
	// (the fork property tests pin this down); the switch exists for A/B
	// wall-clock measurement and as an escape hatch.
	DisableForkWarm bool
}

// DefaultConfig returns the standard laptop-scale budgets.
func DefaultConfig() Config {
	return Config{
		Warmup:       200_000,
		Measure:      1_000_000,
		SweepWarmup:  100_000,
		SweepMeasure: 400_000,
	}
}

func (c *Config) workloads() []*workload.Source {
	if len(c.Workloads) > 0 {
		return c.Workloads
	}
	return workload.Catalog()
}

func (c *Config) progress(format string, args ...interface{}) {
	if c.Progress != nil {
		c.Progress(format, args...)
	}
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	// ID is the short identifier used by -run flags (e.g. "fig9").
	ID string
	// Title describes the paper artifact being reproduced.
	Title string
	// Run executes the experiment and returns its tables.
	Run func(h *Harness) ([]*report.Table, error)
}

// Registry lists all experiments in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Table I: evaluated workloads", Table1},
		{"table2", "Table II: simulated core parameters", Table2},
		{"fig1", "Figure 1: execution cycles wasted on cond. mispredictions", Fig1},
		{"fig2", "Figure 2: MPKI of 64K TSL vs Inf TAGE vs Inf TSL", Fig2},
		{"fig3a", "Figure 3a: cumulative mispredictions per static branch (Tomcat)", Fig3a},
		{"fig3b", "Figure 3b: useful patterns per static branch (Tomcat, Inf)", Fig3b},
		{"fig5", "Figure 5: patterns per context vs context window W", Fig5},
		{"fig9", "Figure 9: branch MPKI reduction over 64K TSL", Fig9},
		{"fig10", "Figure 10: speedup over 64K TSL", Fig10},
		{"fig11", "Figure 11: LLBP transfer bandwidth vs PB size", Fig11},
		{"table3", "Table III: relative access latency and energy", Table3},
		{"fig12", "Figure 12: relative energy vs design", Fig12},
		{"fig13", "Figure 13: CID history type and prefetch distance", Fig13},
		{"fig14", "Figure 14: pattern-set count and size sensitivity", Fig14},
		{"fig15", "Figure 15: LLBP prediction breakdown", Fig15},
		{"ablation", "Ablations: bucketing, replacement, CID hash", Ablations},
		{"softerror", "Robustness: MPKI under soft errors in predictor state", SoftErrorStudy},
		{"extdelay", "Extension: storage-virtualization latency sensitivity", ExtDelay},
		{"extgate", "Extension: auto-disable power gate", ExtAutoDisable},
		{"extbaselines", "Extension: gshare/perceptron baseline spectrum", ExtBaselines},
		{"extscale", "Extension: simulation-budget sensitivity", ExtScale},
	}
}

// ByID resolves a comma-separated list of experiment IDs ("all" for every
// experiment).
func ByID(ids string) ([]Experiment, error) {
	all := Registry()
	if ids == "" || ids == "all" {
		return all, nil
	}
	idx := make(map[string]Experiment, len(all))
	for _, e := range all {
		idx[e.ID] = e
	}
	var out []Experiment
	for _, id := range strings.Split(ids, ",") {
		e, ok := idx[strings.TrimSpace(id)]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown id %q", id)
		}
		out = append(out, e)
	}
	return out, nil
}

// Harness memoizes simulation runs so experiments sharing configurations
// (e.g. Figures 9, 10, 12 and 15 all need the LLBP runs) pay once. All
// runs dispatch through an internal/harness.Runner, which provides
// context cancellation, per-run deadlines, panic isolation, bounded
// retry, bounded parallelism and journal-based resume. The harness is
// safe for concurrent use; identical cells requested concurrently are
// deduplicated (single-flight) and computed once.
type Harness struct {
	Cfg    Config
	runner *harness.Runner

	mu       sync.Mutex
	cache    map[string]*RunOutput
	inflight map[string]*inflightCell

	// Warm-snapshot fork cache (see forkwarm.go): one warmed parent per
	// (workload, predictor, warmup) triple, forked per cell.
	warmMu    sync.Mutex
	warmCache map[string]*warmState
	warmOrder []string
}

// inflightCell tracks one cell being computed so concurrent requesters
// wait instead of duplicating the simulation.
type inflightCell struct {
	done chan struct{}
	out  *RunOutput
	err  error
}

// NewHarness returns a harness with the given budgets.
func NewHarness(cfg Config) *Harness {
	if cfg.Warmup == 0 && cfg.Measure == 0 {
		cfg = DefaultConfig()
	}
	if cfg.Context == nil {
		cfg.Context = context.Background()
	}
	runner := harness.NewRunner(harness.Options{
		Parallelism: cfg.Parallelism,
		Timeout:     cfg.Timeout,
		Retries:     cfg.Retries,
		Journal:     cfg.Journal,
		Progress:    cfg.Progress,
		Telemetry:   cfg.Telemetry,
		Tracer:      cfg.Tracer,
	})
	return &Harness{
		Cfg:       cfg,
		runner:    runner,
		cache:     make(map[string]*RunOutput),
		inflight:  make(map[string]*inflightCell),
		warmCache: make(map[string]*warmState),
	}
}

// RunOutput is one simulation's collected results. All fields are
// exported so cells round-trip through the JSON journal.
type RunOutput struct {
	Res  *sim.Result
	LLBP core.Stats
	// HasLLBP reports whether LLBP is part of the predictor.
	HasLLBP bool
	// Faults carries injection statistics when the run was faulted.
	Faults    faults.Stats
	HasFaults bool
}

// PredictorSpec names a predictor configuration for the cache key and
// builds fresh instances. Build returns an error instead of panicking so
// misconfiguration surfaces as an ordinary failed cell.
type PredictorSpec struct {
	Key   string
	Build func(clock *predictor.Clock) (predictor.Predictor, error)
}

// specOf names the clock-free predictor newFn builds from cfg.
func specOf[C any, P predictor.Predictor](key string, newFn func(C) (P, error), cfg C) PredictorSpec {
	return PredictorSpec{
		Key: key,
		Build: func(*predictor.Clock) (predictor.Predictor, error) {
			return newFn(cfg)
		},
	}
}

// Spec64K .. SpecInfTSL are the TAGE-SC-L family of §VI.
func Spec64K() PredictorSpec  { return specOf("64k", tsl.New, tsl.Config64K()) }
func Spec128K() PredictorSpec { return specOf("128k", tsl.New, tsl.ConfigScaled(1)) }
func Spec256K() PredictorSpec { return specOf("256k", tsl.New, tsl.ConfigScaled(2)) }
func Spec512K() PredictorSpec { return specOf("512k", tsl.New, tsl.ConfigScaled(3)) }
func Spec1M() PredictorSpec   { return specOf("1m", tsl.New, tsl.ConfigScaled(4)) }
func SpecInfTAGE() PredictorSpec {
	return specOf("inftage", tsl.New, tsl.ConfigInfTAGE())
}
func SpecInfTSL() PredictorSpec { return specOf("inftsl", tsl.New, tsl.ConfigInfTSL()) }

// SpecLLBP builds an LLBP spec with the given core configuration; key must
// uniquely describe cfg.
func SpecLLBP(key string, cfg core.Config) PredictorSpec {
	return PredictorSpec{
		Key: key,
		Build: func(clock *predictor.Clock) (predictor.Predictor, error) {
			base, err := tsl.New(tsl.Config64K())
			if err != nil {
				return nil, err
			}
			return core.New(cfg, base, clock)
		},
	}
}

// SpecLLBPDefault returns the evaluated LLBP design point.
func SpecLLBPDefault() PredictorSpec { return SpecLLBP("llbp", core.DefaultConfig()) }

// SpecLLBP0Lat returns the zero-latency LLBP configuration.
func SpecLLBP0Lat() PredictorSpec { return SpecLLBP("llbp0lat", core.ZeroLatConfig()) }

// Run simulates spec over wl with the headline budgets, memoized.
func (h *Harness) Run(wl *workload.Source, spec PredictorSpec) (*RunOutput, error) {
	return h.runBudget(wl, spec, h.Cfg.Warmup, h.Cfg.Measure)
}

// RunSweep simulates with the (smaller) sweep budgets, memoized.
func (h *Harness) RunSweep(wl *workload.Source, spec PredictorSpec) (*RunOutput, error) {
	return h.runBudget(wl, spec, h.Cfg.SweepWarmup, h.Cfg.SweepMeasure)
}

func (h *Harness) runBudget(wl *workload.Source, spec PredictorSpec, warm, meas uint64) (*RunOutput, error) {
	cs := CellSpec{Workload: wl.Name(), Predictor: spec.Key, Warmup: warm, Measure: meas}
	meta := map[string]string{"workload": wl.Name(), "predictor": spec.Key}
	return h.runCell(nil, cs.Key(), meta, func(ctx context.Context) (*RunOutput, error) {
		if h.Cfg.Remote != nil {
			return h.Cfg.Remote(ctx, cs)
		}
		return h.simulate(ctx, wl, spec, warm, meas, nil)
	})
}

// FaultSpec configures fault injection for RunFaulted.
type FaultSpec struct {
	// Rate is expected flips per Mbit of state per Mbranch.
	Rate float64
	// Protection is the modeled memory protection.
	Protection faults.Protection
	// Seed makes the fault schedule reproducible.
	Seed uint64
}

func (f FaultSpec) key() string {
	return fmt.Sprintf("rate=%g,prot=%s,seed=%d", f.Rate, f.Protection, f.Seed)
}

// RunFaulted simulates spec over wl with the sweep budgets while
// injecting soft errors into the predictor's fault surface. The predictor
// must implement faults.Surface. The returned FaultStats describe the
// injected flips. Results are memoized and journaled like regular cells.
func (h *Harness) RunFaulted(wl *workload.Source, spec PredictorSpec, fs FaultSpec) (*RunOutput, error) {
	key := fmt.Sprintf("%s|%s|%d|%d|%s", wl.Name(), spec.Key, h.Cfg.SweepWarmup, h.Cfg.SweepMeasure, fs.key())
	meta := map[string]string{"workload": wl.Name(), "predictor": spec.Key, "faults": fs.key()}
	return h.runCell(nil, key, meta, func(ctx context.Context) (*RunOutput, error) {
		return h.simulate(ctx, wl, spec, h.Cfg.SweepWarmup, h.Cfg.SweepMeasure, &fs)
	})
}

// traceCache resolves the cache cells replay from (nil = caching off).
func (h *Harness) traceCache() *cache.Cache {
	if h.Cfg.DisableTraceCache {
		return nil
	}
	if h.Cfg.TraceCache != nil {
		return h.Cfg.TraceCache
	}
	return cache.Default()
}

// source returns the replay source for n branches of wl — a pinned view
// of the materialized trace cache when available, wl itself otherwise —
// plus a release func the caller must invoke once replay is done.
// Synthesis failures fall back to direct replay so the cache is purely
// an accelerator: the branches replayed are identical either way.
func (h *Harness) source(wl *workload.Source, n uint64) (trace.Source, func()) {
	hd, err := h.traceCache().Acquire(wl, n)
	if err != nil || hd == nil {
		return wl, func() {}
	}
	return hd, hd.Release
}

// simulate is the body of one cell: build the predictor, wire optional
// fault injection, replay the trace under ctx. Cells with a shareable
// warmup prefix and a forkable predictor take the warm-snapshot fork
// path instead (forkwarm.go); fault-injected cells never do — the
// injector must see the warmup phase, which a fork skips.
func (h *Harness) simulate(ctx context.Context, wl *workload.Source, spec PredictorSpec, warm, meas uint64, fs *FaultSpec) (*RunOutput, error) {
	if fs == nil && warm > 0 && meas > 0 && !h.Cfg.DisableForkWarm {
		if out, ok, err := h.simulateForked(ctx, wl, spec, warm, meas); ok {
			return out, err
		}
	}
	clock := &predictor.Clock{}
	p, err := spec.Build(clock)
	if err != nil {
		return nil, fmt.Errorf("experiments: building %s: %w", spec.Key, err)
	}
	opt := sim.Options{
		WarmupBranches:  warm,
		MeasureBranches: meas,
		Clock:           clock,
		Context:         ctx,
	}
	var inj *faults.Injector
	if fs != nil {
		surf, ok := p.(faults.Surface)
		if !ok {
			return nil, fmt.Errorf("experiments: %s does not expose a fault surface", spec.Key)
		}
		inj = faults.NewInjector(surf, faults.Config{
			Rate:       fs.Rate,
			Protection: fs.Protection,
			Seed:       fs.Seed,
		})
		var last uint64
		opt.Hook = func(processed uint64) {
			inj.Step(processed - last)
			last = processed
		}
	}
	if h.Cfg.CellProgress != nil {
		cs := CellSpec{Workload: wl.Name(), Predictor: spec.Key, Warmup: warm, Measure: meas}
		key, total := cs.Key(), warm+meas
		inner := opt.Hook
		opt.Hook = func(processed uint64) {
			if inner != nil {
				inner(processed)
			}
			h.Cfg.CellProgress(key, processed, total)
		}
	}
	src, release := h.source(wl, warm+meas)
	res, err := sim.Run(src, p, opt)
	release()
	if err != nil {
		return nil, fmt.Errorf("experiments: %s on %s: %w", spec.Key, wl.Name(), err)
	}
	out := &RunOutput{Res: res}
	if lp, ok := p.(*core.Predictor); ok {
		out.LLBP = lp.Stats()
		out.HasLLBP = true
	}
	if inj != nil {
		out.Faults = inj.Stats()
		out.HasFaults = true
	}
	h.Cfg.progress("  ran %-10s on %-10s MPKI=%.3f", spec.Key, wl.Name(), res.MPKI)
	return out, nil
}

// runCell computes one memoized cell: in-memory cache, single-flight
// deduplication of concurrent identical requests, then dispatch through
// the harness runner (journal, retry, panic isolation, admission gate).
// ctx overrides the harness-level context when non-nil (the service
// passes per-job contexts so cancelling a job aborts its in-flight
// cells); concurrent requesters of the same cell share the first
// requester's context via single-flight.
func (h *Harness) runCell(ctx context.Context, key string, meta map[string]string, body func(ctx context.Context) (*RunOutput, error)) (*RunOutput, error) {
	if ctx == nil {
		ctx = h.Cfg.Context
	}
	h.mu.Lock()
	if out, ok := h.cache[key]; ok {
		h.mu.Unlock()
		return out, nil
	}
	if cell, ok := h.inflight[key]; ok {
		h.mu.Unlock()
		<-cell.done
		return cell.out, cell.err
	}
	cell := &inflightCell{done: make(chan struct{})}
	h.inflight[key] = cell
	h.mu.Unlock()

	res := h.runner.Do(ctx, harness.Job{
		Key:  key,
		Meta: meta,
		Run: func(ctx context.Context) (any, error) {
			return body(ctx)
		},
		Decode: func(raw json.RawMessage) (any, error) {
			var out RunOutput
			if err := json.Unmarshal(raw, &out); err != nil {
				return nil, err
			}
			return &out, nil
		},
	})

	if res.Err != nil {
		cell.err = res.Err
	} else if out, ok := res.Value.(*RunOutput); ok {
		cell.out = out
	} else {
		cell.err = fmt.Errorf("experiments: cell %s returned unexpected %T", key, res.Value)
	}

	h.mu.Lock()
	if cell.err == nil {
		h.cache[key] = cell.out
	}
	delete(h.inflight, key)
	h.mu.Unlock()
	close(cell.done)
	return cell.out, cell.err
}

// Prewarm computes a batch of (workload × spec) headline cells
// concurrently under the harness admission gate and reports the failures
// without aborting on the first (fail-soft). Experiments consuming the
// cells afterwards hit the warm cache.
func (h *Harness) Prewarm(wls []*workload.Source, specs []PredictorSpec) []error {
	type cellReq struct {
		wl   *workload.Source
		spec PredictorSpec
	}
	var reqs []cellReq
	for _, wl := range wls {
		for _, spec := range specs {
			reqs = append(reqs, cellReq{wl, spec})
		}
	}
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, rq := range reqs {
		wg.Add(1)
		go func(i int, rq cellReq) {
			defer wg.Done()
			_, errs[i] = h.Run(rq.wl, rq.spec)
		}(i, rq)
	}
	wg.Wait()
	var failed []error
	for _, err := range errs {
		if err != nil {
			failed = append(failed, err)
		}
	}
	return failed
}

// meanRow computes the arithmetic mean of a float column.
func meanRow(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// sortedKeys returns the map's keys sorted (for deterministic tables).
func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Chart renders t's first numeric column as an ASCII bar chart, or nil if
// no column parses (cmd/experiments -charts).
func Chart(t *report.Table) *report.BarChart {
	for col := 1; col < len(t.Header); col++ {
		c := report.ChartFromTable(t, col, "")
		if len(c.Values) >= 2 {
			c.Title = fmt.Sprintf("[%s]", t.Header[col])
			return c
		}
	}
	return nil
}
