package main

import (
	"fmt"
	"runtime"
	"time"

	"llbp/internal/core"
	"llbp/internal/predictor"
	"llbp/internal/sim"
	"llbp/internal/trace/cache"
	"llbp/internal/tsl"
)

// replayBatch is the service-time granule of a replay: sim.Run's Hook
// fires every replayBatch branches. At 1024 branches a batch costs about
// what a 512-branch session frame does, and a pass has 512 of them, so
// each pass's p99 has five samples beyond it.
const replayBatch = 1024

// coreConfig returns the LLBP configuration of a replay workload.
func coreConfig(name string) core.Config {
	cfg := core.DefaultConfig()
	if name == "replay-charlie-llbp-smallcd" {
		// The small-directory variant Ablations runs
		// (internal/experiments/sensitivity.go): the directory fills, so
		// CD eviction, context and pattern allocation and PB refills do
		// the work.
		cfg.NumContexts = 1024
		cfg.CDSets = 256
		cfg.CIDBits = 11
	}
	return cfg
}

func buildLLBP(cfg core.Config, clock *predictor.Clock) (*core.Predictor, error) {
	base, err := tsl.New(tsl.Config64K())
	if err != nil {
		return nil, err
	}
	return core.New(cfg, base, clock)
}

// replaySetup is one set-up: the materialised trace and the predictor
// warmed on its prefix, which every measured pass forks.
type replaySetup struct {
	handle  *cache.Handle
	parent  *core.Predictor
	genCPU  float64 // cache.Acquire
	warmCPU float64 // sim.Warm
	cost    phaseCost
}

func setupReplay(cfg config, wl windowSource, ccfg core.Config) (*replaySetup, error) {
	ph := startPhase()
	c0 := processCPU()
	h, err := cache.New(0).Acquire(wl, cfg.warmup+cfg.measure)
	if err != nil {
		return nil, fmt.Errorf("materialising %s: %w", wl.Name(), err)
	}
	c1 := processCPU()
	clock := &predictor.Clock{}
	p, err := buildLLBP(ccfg, clock)
	if err == nil {
		err = sim.Warm(h, p, sim.Options{WarmupBranches: cfg.warmup, Clock: clock})
	}
	if err != nil {
		h.Release()
		return nil, err
	}
	c2 := processCPU()
	return &replaySetup{handle: h, parent: p, genCPU: c1 - c0, warmCPU: c2 - c1, cost: ph.stop()}, nil
}

// fork returns a child of the warm parent and the clock it runs on: the
// harness's warm-snapshot path.
func (s *replaySetup) fork() (*core.Predictor, *predictor.Clock) {
	clock := &predictor.Clock{}
	return s.parent.Fork(clock).(*core.Predictor), clock
}

// replayDigest hashes a pass's output: the sim.Result, exact float bits
// included, and the composite's and baseline's event counters.
func replayDigest(res *sim.Result, p *core.Predictor) string {
	d := newDigest()
	d.str(res.Workload)
	d.str(res.Predictor)
	d.u64(res.Instructions, res.Branches, res.CondBranches, res.Mispredicts, res.TargetMisses)
	d.f64(res.MPKI, res.Cycles, res.BranchPenalty, res.WastedFraction, res.IPC)
	s := p.Stats()
	d.u64(s.CondPredictions, s.Matches, s.Overrides, s.NoOverride,
		s.GoodOverride, s.BadOverride, s.BothCorrect, s.BothWrong,
		s.LLBPReads, s.LLBPWrites, s.CDLookups, s.PBHits, s.NotReady, s.PBMisses,
		s.CtxAllocs, s.PatternAllocs, s.Resets, s.Squashes,
		s.PrefetchIssued, s.PrefetchFilled, s.PrefetchWasted, s.CtxSwitches,
		s.CDEvictions, uint64(s.CDLive), uint64(s.PBLive),
		s.DisabledPredictions, s.DisableEvents)
	t := p.Base().Stats()
	d.u64(t.Predictions, t.SCReversals, t.LoopUses,
		t.ProviderBimodal, t.ProviderTAGE, t.ProviderLoop, t.ProviderSC,
		t.TAGEAllocs, t.TAGEAllocFailures)
	return d.sum()
}

// replayPass is what one measured pass produced.
type replayPass struct {
	res      *sim.Result
	digest   string
	cost     phaseCost
	gcCPU    float64 // runtime/metrics GC CPU estimate during sim.Run
	busyCPU  float64 // runtime/metrics non-idle CPU estimate during sim.Run
	heap     uint64
	batchUs  []float64
	stats    core.Stats // measured-window deltas
	tslStats tsl.Stats
}

// runPass forks the warm parent and replays the measured window through
// the child with a measure-only sim.Run over the cache handle's tail.
// Only the sim.Run call is inside the timed phase.
func runPass(cfg config, s *replaySetup) (*replayPass, error) {
	child, clock := s.fork()
	runtime.GC() // the last pass's garbage is not this pass's work
	s0, t0 := child.Stats(), child.Base().Stats()
	out := &replayPass{batchUs: make([]float64, 0, cfg.measure/replayBatch)}
	var last int64
	hook := func(uint64) {
		now := threadCPU()
		out.batchUs = append(out.batchUs, float64(now-last)/1e3)
		last = now
	}
	rs := newRuntimeSample()
	gc0, busy0 := rs.cpu()
	ph := startPhase()
	last = threadCPU()
	res, err := sim.Run(s.handle.Tail(cfg.warmup), child, sim.Options{
		MeasureBranches: cfg.measure, Clock: clock, Hook: hook, HookEvery: replayBatch,
	})
	out.cost = ph.stop()
	gc1, busy1 := rs.cpu()
	if err != nil {
		return nil, err
	}
	out.gcCPU, out.busyCPU = gc1-gc0, busy1-busy0
	out.heap = liveHeap()
	out.res = res
	out.digest = replayDigest(res, child)
	out.stats = statsDelta(child.Stats(), s0)
	out.tslStats = tslDelta(child.Base().Stats(), t0)
	runtime.KeepAlive(child)
	return out, nil
}

func runReplay(cfg config, wl windowSource) (*result, error) {
	ccfg := coreConfig(cfg.workload)
	cfg.printf("%s: %s seed=%s offset=%d, LLBP %d contexts / %d CD sets over 64K TSL, warmup=%d measure=%d per pass",
		cfg.workload, wl.Name(), cfg.seed, cfg.offset, ccfg.NumContexts, ccfg.CDSets, cfg.warmup, cfg.measure)

	// Set-up runs cfg.setups times; setup_s is the median. The last
	// set-up's trace and warm parent serve the measured passes.
	var setup *replaySetup
	var setupCPU, genCPU, warmCPU []float64
	for i := 0; i < cfg.setups; i++ {
		if setup != nil {
			setup.handle.Release()
		}
		var err error
		if setup, err = setupReplay(cfg, wl, ccfg); err != nil {
			return nil, err
		}
		setupCPU = append(setupCPU, setup.cost.cpu)
		genCPU = append(genCPU, setup.genCPU)
		warmCPU = append(warmCPU, setup.warmCPU)
		cfg.printPhase(fmt.Sprintf("setup[%d]", i), setup.cost, cfg.warmup)
	}
	defer setup.handle.Release()

	// The reference: one monolithic warm+measure sim.Run on a fresh
	// predictor straight off the generator — no trace cache, no fork.
	// Every pass must reproduce its digest (or the golden one).
	ph := startPhase()
	clock := &predictor.Clock{}
	refPred, err := buildLLBP(ccfg, clock)
	if err != nil {
		return nil, err
	}
	refRes, err := sim.Run(wl, refPred, sim.Options{
		WarmupBranches: cfg.warmup, MeasureBranches: cfg.measure, Clock: clock,
	})
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	cfg.printPhase("reference", ph.stop(), cfg.warmup+cfg.measure)
	want, refOK := cfg.expectedDigest(replayDigest(refRes, refPred))
	refPred = nil

	res := &result{Correct: refOK, Metrics: map[string]metric{}}
	var passes []*replayPass
	var measured phaseCost
	start := time.Now()
	for i := 0; cfg.measuring(i, start); i++ {
		p, err := runPass(cfg, setup)
		res.Attempted++
		if err != nil || p.digest != want {
			res.Failed++
			cfg.printf("pass %d FAILED: err=%v digest=%s", i, err, digestOf(p))
			continue
		}
		passes = append(passes, p)
		measured.add(p.cost)
	}
	res.Correct = res.Correct && res.Failed == 0
	if len(passes) == 0 {
		return res, nil
	}
	cfg.printPhase("measure", measured, cfg.measure*uint64(len(passes)))

	var cpus, allocs []float64
	var batchUs [][]float64
	var gcCPU, busyCPU float64
	for _, p := range passes {
		cpus = append(cpus, p.cost.cpu)
		allocs = append(allocs, float64(p.cost.alloc)/float64(cfg.measure))
		batchUs = append(batchUs, p.batchUs)
		gcCPU += p.gcCPU
		busyCPU += p.busyCPU
	}
	rate := sustainedRate(cfg.measure, cpus)
	e2e := endToEnd{
		rate:       rate,
		setup:      median(setupCPU),
		heapMB:     float64(passes[len(passes)-1].heap) / 1e6,
		allocPerBr: median(allocs),
		mpki:       passes[0].res.MPKI,
		batchUs:    batchUs,
	}
	cfg.printPasses(cfg.measure, cpus, batchUs)
	if !cfg.trace {
		e2e.fill(res.Metrics)
		return res, nil
	}

	// Traced run: per-layer metrics.
	layers := zeroLayers()
	branches := float64(cfg.measure)
	layers["workload.gen_ns_per_branch"] = median(genCPU) * 1e9 / float64(setup.handle.Len())
	layers["sim.warm_ns_per_branch"] = median(warmCPU) * 1e9 / float64(cfg.warmup)
	layers["runtime.gc_cpu_share"] = ratio(gcCPU, busyCPU)
	fillCoreCounts(layers, passes[0].stats, branches)
	fillTSLCounts(layers, passes[0].tslStats, branches)

	tr, err := tracedReplay(cfg, setup, want)
	if err != nil {
		return nil, err
	}
	res.Attempted += tr.attempted
	res.Failed += tr.failed
	res.Correct = res.Correct && tr.failed == 0

	bare, err := bareReplays(cfg, setup.handle, setup.handle.Tail(cfg.warmup), cfg.measure)
	if err != nil {
		return nil, err
	}
	layers["tage.ns_per_branch"] = bare.tageNs - bare.nullNs
	layers["tsl.sc_loop_ns_per_branch"] = bare.tslNs - bare.tageNs
	layers["core.llbp_ns_per_branch"] = 1e9/rate - bare.tslNs
	cfg.printf("bare replays ns/branch: null=%.1f tage=%.1f tsl=%.1f composite=%.1f", bare.nullNs, bare.tageNs, bare.tslNs, 1e9/rate)
	tr.fill(cfg, layers, rate, bare.nullNs)
	microbenches(cfg, layers)
	if err := tr.rec.write(cfg.traceOut, "perfbench "+cfg.workload); err != nil {
		return nil, err
	}
	cfg.printf("trace written to %s (%d spans)", cfg.traceOut, len(tr.rec.spans))
	setLayers(cfg, res.Metrics, layers)
	return res, nil
}

func digestOf(p *replayPass) string {
	if p == nil {
		return "-"
	}
	return p.digest
}

// replayTrace is what the traced passes measured.
type replayTrace struct {
	rec               *recorder
	attempted, failed int

	procCPU   float64   // process CPU over the traced sim.Run calls
	passCPU   []float64 // the same, per pass
	simCPU    int64     // driving-thread CPU inside sim.Run
	simWall   int64
	decodeCPU int64 // inside ReadBatch
	calls     callTimes
	overhead  int64 // one timed interval's clock cost
	branches  uint64
}

// tracedReplay reruns passes with the timing wrappers around the trace
// source and the predictor, for at least one pass and half the wall
// budget. Each traced pass must reproduce the untraced digest.
func tracedReplay(cfg config, s *replaySetup, want string) (*replayTrace, error) {
	tr := &replayTrace{rec: newRecorder(), overhead: monoOverhead()}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < cfg.seconds/2; i++ {
		child, clock := s.fork()
		runtime.GC()
		tp, err := newTimedPredictor(child)
		if err != nil {
			return nil, err
		}
		ts, err := newTimedSource(s.handle.Tail(cfg.warmup), tr.rec, tp)
		if err != nil {
			return nil, err
		}
		passTs := tr.rec.now()
		ph := startPhase()
		c0, w0 := threadCPU(), mono()
		res, err := sim.Run(ts, tp, sim.Options{MeasureBranches: cfg.measure, Clock: clock})
		simCPU, simWall := threadCPU()-c0, mono()-w0
		cost := ph.stop()
		ts.closeStep()
		tr.attempted++
		if err != nil || replayDigest(res, child) != want {
			tr.failed++
			cfg.printf("traced pass %d FAILED: err=%v", i, err)
			continue
		}
		tr.rec.span("pass", "sim", passTs, tr.rec.now(), map[string]any{"pass": i, "branches": res.Branches, "cpu_s": cost.cpu})
		tr.procCPU += cost.cpu
		tr.passCPU = append(tr.passCPU, cost.cpu)
		tr.simCPU += simCPU
		tr.simWall += simWall
		tr.decodeCPU += ts.decodeCPU
		tr.calls.add(tp.t)
		tr.branches += res.Branches
	}
	if len(tr.passCPU) == 0 {
		return nil, fmt.Errorf("no traced pass reproduced the digest")
	}
	return tr, nil
}

// fill derives the traced per-layer metrics. Predictor calls are timed
// on the monotonic clock (a CPU clock read is a system call, too costly
// per call); their sums drop the calibrated clock cost and are scaled by
// sim.Run's CPU/wall ratio, which removes steal in proportion. sim.Run's
// own loop is priced from outside by the null-predictor replay, so the
// tracing's cost per call is not booked to it: it stays in the residual.
func (tr *replayTrace) fill(cfg config, layers map[string]float64, untracedRate, nullNs float64) {
	scale := ratio(float64(tr.simCPU), float64(tr.simWall))
	ns := func(sum int64, n uint64) float64 {
		return float64(sum-tr.overhead*int64(n)) * scale
	}
	c := tr.calls
	predict, update := ns(c.predictNs, c.predicts), ns(c.updateNs, c.updates)
	track, reset := ns(c.trackNs, c.tracks), ns(c.resetNs, c.resets)
	br := float64(tr.branches)
	decode := float64(tr.decodeCPU)
	self := (nullNs - decode/br) * br
	layers["trace.decode_ns_per_branch"] = decode / br
	layers["sim.self_ns_per_branch"] = self / br
	layers["predictor.predict_ns_per_cond"] = ratio(predict, float64(c.predicts))
	layers["predictor.update_ns_per_cond"] = ratio(update, float64(c.updates))
	layers["predictor.track_other_ns_per_uncond"] = ratio(track, float64(c.tracks))
	layers["predictor.reset_ns_per_reset"] = ratio(reset, float64(c.resets))
	procNs := tr.procCPU * 1e9
	ledger := decode + self + predict + update + track + reset
	layers["ledger.residual_pct"] = 100 * (procNs - ledger) / procNs
	tracedRate := sustainedRate(cfg.measure, tr.passCPU)
	layers["tracing.overhead_pct"] = 100 * (untracedRate - tracedRate) / untracedRate
	cfg.printf("ledger ns/branch: traced cpu=%.1f = decode %.1f + sim.self %.1f + predictor %.1f (predict %.1f, update %.1f, track %.1f, reset %.1f) + residual %.1f; clock pair %d ns",
		procNs/br, decode/br, self/br, (predict+update+track+reset)/br, predict/br, update/br, track/br, reset/br,
		(procNs-ledger)/br, tr.overhead)
}
