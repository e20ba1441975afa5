// Package sim is the trace-driven simulation driver: it replays a
// workload's branch stream through a predictor one Stepper step per
// branch (clock advance, predict/update, pipeline resets) and collects
// the headline metrics. Experiments attach observers for per-branch or
// per-context accounting.
package sim

import (
	"context"
	"fmt"

	"llbp/internal/pipeline"
	"llbp/internal/predictor"
	"llbp/internal/telemetry"
	"llbp/internal/trace"
)

// Observer is invoked for every measured conditional branch, after its
// step: the predictor has been updated and, on a misprediction, reset.
// det is the predictor's provenance when it implements
// predictor.Detailer (zero otherwise).
type Observer func(b *trace.Branch, predicted bool, det predictor.Detail)

// UncondObserver is invoked for every measured non-conditional transfer.
type UncondObserver func(b *trace.Branch)

// Options configures one simulation run.
type Options struct {
	// WarmupBranches are processed before measurement begins (the paper
	// warms for 100M instructions; scale to taste).
	WarmupBranches uint64
	// MeasureBranches are processed with statistics collection. The
	// run errors if the stream ends before warmup+measure branches.
	MeasureBranches uint64
	// Observer and UncondObserver receive measured records (optional).
	Observer       Observer
	UncondObserver UncondObserver
	// Clock, when non-nil, is the clock the predictor was built
	// against; the driver advances it. When nil a private clock is
	// used.
	Clock *predictor.Clock
	// Context, when non-nil, cancels the run: Run returns an error
	// wrapping ctx.Err() shortly after cancellation (checked every few
	// thousand branches). This is how the harness enforces deadlines
	// and SIGINT on in-flight simulations.
	Context context.Context
	// Hook, when non-nil, is invoked after every HookEvery processed
	// branches (warmup included) with the running branch count — the
	// attachment point for fault injection and other periodic
	// intrusions. HookEvery defaults to 4096 when Hook is set.
	Hook      func(processed uint64)
	HookEvery uint64

	// Telemetry, when non-nil, receives run metrics: sim_* counters and
	// gauges for the measured phase, per-interval "mpki" and "ipc_proxy"
	// series points keyed by measured-branch index, and the growth of a
	// predictor.Counted predictor's counters since Run start, published
	// at each sample and at Run end. Nil disables all of it at the cost
	// of one comparison per measured branch.
	Telemetry *telemetry.Registry
	// SeriesInterval is the measured-branch interval between series
	// points (default 4096).
	SeriesInterval uint64
	// Tracer, when non-nil, receives warmup/measure phase spans and
	// per-interval counter samples on the simulated-time track (ts =
	// cycles rendered as microseconds).
	Tracer *telemetry.Tracer
	// TracePID selects the trace-event process id for this run (default
	// telemetry.PidSim); multi-workload drivers use one pid per workload.
	TracePID int

	// warmupOnly marks a Warm call: the run stops at the end of the
	// warmup phase and MeasureBranches is allowed to be zero.
	warmupOnly bool
}

// cancelCheckMask throttles context polling to every 4096 branches.
const cancelCheckMask = 4095

// simBatchSize is the replay batch: the driver pulls this many records
// per ReadBatch call, so stream dispatch, cancellation polls and EOF
// checks amortize over thousands of branches. It equals the cancel-poll
// period so batch boundaries land exactly on the branch indices the old
// per-record loop polled at.
const simBatchSize = cancelCheckMask + 1

// Result carries one run's headline metrics.
type Result struct {
	Workload  string
	Predictor string

	// Measured-phase counts.
	Instructions uint64
	Branches     uint64
	CondBranches uint64
	Mispredicts  uint64
	TargetMisses uint64

	// MPKI is conditional mispredictions per kilo-instruction.
	MPKI float64

	// Cycle ledger (measured phase only).
	Cycles         float64
	BranchPenalty  float64
	WastedFraction float64
	IPC            float64
}

// Warm replays opt.WarmupBranches branches of src through p exactly as
// Run's warmup phase would — one Stepper step per branch — and collects
// no measurements.
// It is the warm-snapshot path: the harness warms one predictor per
// shared prefix, forks it per cell (predictor.Forkable), and each fork
// resumes with a measure-only Run over the stream's tail, producing
// results byte-identical to a monolithic warm+measure Run.
func Warm(src trace.Source, p predictor.Predictor, opt Options) error {
	opt.MeasureBranches = 0
	opt.warmupOnly = true
	_, err := Run(src, p, opt)
	return err
}

// Run replays src through p under opt.
func Run(src trace.Source, p predictor.Predictor, opt Options) (*Result, error) {
	if opt.MeasureBranches == 0 && !opt.warmupOnly {
		return nil, fmt.Errorf("sim: MeasureBranches must be positive")
	}
	clock := opt.Clock
	if clock == nil {
		clock = &predictor.Clock{}
	}
	st := NewStepper(p, clock)
	ledger := &st.ledger
	detailer, _ := p.(predictor.Detailer)

	var done <-chan struct{}
	if opt.Context != nil {
		done = opt.Context.Done()
	}
	hookEvery := opt.HookEvery
	if opt.Hook != nil && hookEvery == 0 {
		hookEvery = 4096
	}
	nextHook := hookEvery

	// Telemetry setup. With no registry and no tracer the sampling state
	// degenerates to a never-reached branch index, so the hot loop pays a
	// single comparison per measured branch.
	interval := opt.SeriesInterval
	if interval == 0 {
		interval = 4096
	}
	tracePID := opt.TracePID
	if tracePID == 0 {
		tracePID = telemetry.PidSim
	}
	var serMPKI, serIPC *telemetry.Series
	publish := func() {}
	if opt.Telemetry != nil {
		serMPKI = opt.Telemetry.Series("mpki", interval)
		serIPC = opt.Telemetry.Series("ipc_proxy", interval)
		if c, ok := p.(predictor.Counted); ok {
			pub := telemetry.NewPublisher(opt.Telemetry)
			publish = func() { c.ReportCounts(pub) }
			publish() // the baseline: counts from before Run stay out
		}
	}
	// One sampling condition governs both the in-loop sentinel and the
	// final partial-interval flush, so telemetry-only, tracer-only and
	// both-present runs sample at identical measured-branch indices.
	sampling := opt.Telemetry != nil || opt.Tracer != nil
	nextSample := interval
	if !sampling {
		nextSample = ^uint64(0)
	}
	var lastInstr, lastMisp uint64
	var lastCycles float64
	clockStart := clock.NowF()
	warmupEnd := clockStart

	srcName := src.Name()
	br := trace.OpenBatched(src)
	var processed uint64
	res := &Result{Workload: srcName, Predictor: p.Name()}

	// Tracer.Counter copies its values before returning, so one scratch
	// map (and one precomputed track name) serves every sample.
	var scratchArgs map[string]float64
	var counterTrack string
	if opt.Tracer != nil {
		scratchArgs = make(map[string]float64, 2)
		counterTrack = "sim:" + srcName
	}
	sample := func() {
		di := ledger.Instructions - lastInstr
		dm := ledger.Mispredictions - lastMisp
		dc := ledger.Cycles() - lastCycles
		mpki := float64(dm) * 1000 / float64(max64(di, 1))
		ipc := 0.0
		if dc > 0 {
			ipc = float64(di) / dc
		}
		serMPKI.Append(mpki)
		serIPC.Append(ipc)
		publish()
		if opt.Tracer != nil {
			scratchArgs["mpki"] = mpki
			scratchArgs["ipc_proxy"] = ipc
			opt.Tracer.Counter(tracePID, counterTrack, clock.NowF(), scratchArgs)
		}
		lastInstr, lastMisp, lastCycles = ledger.Instructions, ledger.Mispredictions, ledger.Cycles()
	}

	total := opt.WarmupBranches + opt.MeasureBranches
	batch := make([]trace.Branch, simBatchSize)
	for processed < total {
		// Every batch starts on a simBatchSize boundary, i.e. exactly
		// the indices where the per-record loop polled cancellation.
		if done != nil {
			select {
			case <-done:
				return nil, fmt.Errorf("sim: %s after %d branches: %w",
					srcName, processed, opt.Context.Err())
			default:
			}
		}
		want := batch
		if rem := total - processed; rem < uint64(len(want)) {
			want = want[:rem]
		}
		n, rerr := br.ReadBatch(want)
		for i := 0; i < n; i++ {
			b := &want[i]
			predicted := st.Step(b)
			processed++
			if processed > opt.WarmupBranches {
				res.Branches++
				if b.Type.IsConditional() {
					res.CondBranches++
					if opt.Observer != nil {
						var det predictor.Detail
						if detailer != nil {
							det = detailer.LastDetail()
						}
						opt.Observer(b, predicted, det)
					}
				} else if opt.UncondObserver != nil {
					opt.UncondObserver(b)
				}
				if res.Branches >= nextSample {
					sample()
					nextSample += interval
				}
			}
			if opt.Hook != nil && processed >= nextHook {
				opt.Hook(processed)
				nextHook += hookEvery
			}
			if processed == opt.WarmupBranches {
				// Warmup ends here. The measured phase charges a fresh
				// ledger, so warmup costs stay out of the result, and a
				// Warm run, which stops here, returns an empty one.
				*ledger = pipeline.DefaultAccounting()
				warmupEnd = clock.NowF()
			}
		}
		if rerr != nil && processed < total {
			if trace.IsEOF(rerr) {
				return nil, fmt.Errorf("sim: %s ended after %d branches, need %d",
					srcName, processed, total)
			}
			return nil, fmt.Errorf("sim: reading %s: %w", srcName, rerr)
		}
	}

	res.Instructions = ledger.Instructions
	res.Mispredicts = ledger.Mispredictions
	res.TargetMisses = ledger.TargetMisses
	res.MPKI = float64(res.Mispredicts) * 1000 / float64(max64(res.Instructions, 1))
	res.Cycles = ledger.Cycles()
	res.BranchPenalty = ledger.BranchPenalty
	res.WastedFraction = ledger.WastedFraction()
	res.IPC = ledger.IPC()
	// Every misprediction and target miss resets a Resettable predictor.
	var resets uint64
	if _, ok := p.(predictor.Resettable); ok {
		resets = res.Mispredicts + res.TargetMisses
	}

	if sampling && ledger.Instructions > lastInstr {
		sample() // flush the final partial interval
	}
	publish()
	if opt.Telemetry != nil {
		opt.Telemetry.Counter("sim_branches").Add(res.Branches)
		opt.Telemetry.Counter("sim_cond_branches").Add(res.CondBranches)
		opt.Telemetry.Counter("sim_mispredicts").Add(res.Mispredicts)
		opt.Telemetry.Counter("sim_target_misses").Add(res.TargetMisses)
		opt.Telemetry.Counter("sim_pipeline_resets").Add(resets)
		opt.Telemetry.Gauge("sim_mpki").Set(res.MPKI)
		opt.Telemetry.Gauge("sim_ipc").Set(res.IPC)
	}
	if opt.Tracer != nil {
		end := clock.NowF()
		opt.Tracer.ThreadName(tracePID, 1, src.Name())
		if opt.warmupOnly {
			// The whole run was warmup; there is no measure span.
			opt.Tracer.Span(tracePID, 1, "warmup", "sim", clockStart, end-clockStart,
				map[string]any{"workload": src.Name(), "predictor": p.Name(), "branches": opt.WarmupBranches})
			return res, nil
		}
		if warmupEnd > clockStart {
			opt.Tracer.Span(tracePID, 1, "warmup", "sim", clockStart, warmupEnd-clockStart,
				map[string]any{"workload": src.Name(), "predictor": p.Name(), "branches": opt.WarmupBranches})
		}
		opt.Tracer.Span(tracePID, 1, "measure", "sim", warmupEnd, end-warmupEnd, map[string]any{
			"workload": src.Name(), "predictor": p.Name(), "branches": res.Branches,
			"mpki": res.MPKI, "ipc": res.IPC, "resets": resets,
		})
	}
	return res, nil
}

// PerfectCycles returns the cycle count a perfect conditional-direction
// predictor would achieve for the same measured stream: base cycles plus
// target-miss penalties, but no conditional-misprediction penalty.
func (r *Result) PerfectCycles(cfg pipeline.Config) float64 {
	return float64(r.Instructions)*cfg.BaseCPI + float64(r.TargetMisses)*cfg.TargetMissPenalty
}

// Speedup returns how much faster this run is than base (1.02 = 2% faster).
func (r *Result) Speedup(base *Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return base.Cycles / r.Cycles
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
