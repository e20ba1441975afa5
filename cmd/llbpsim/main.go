// Command llbpsim runs one predictor configuration over one (or all)
// catalog workloads and prints MPKI and cycle metrics. -predictor names
// a registered predictor spec (experiments.SpecKeys), case-insensitively.
//
// Usage:
//
//	llbpsim -predictor llbp -workload Tomcat -warmup 200000 -measure 1000000
//	llbpsim -predictor 64k -workload all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"llbp/internal/core"
	"llbp/internal/experiments"
	"llbp/internal/predictor"
	"llbp/internal/report"
	"llbp/internal/sim"
	"llbp/internal/telemetry"
	"llbp/internal/trace"
	"llbp/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, so error paths are
// testable: it returns the process exit code and reports failures as
// one-line messages on stderr instead of panicking.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("llbpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		predName   = fs.String("predictor", "64k", "predictor: "+strings.Join(experiments.SpecKeys(), ", "))
		wlName     = fs.String("workload", "all", "catalog workload name, or 'all'")
		traceFile  = fs.String("trace", "", "replay a binary trace file instead of a catalog workload")
		warmup     = fs.Uint64("warmup", 200_000, "warmup branches")
		measure    = fs.Uint64("measure", 1_000_000, "measured branches")
		verbose    = fs.Bool("v", false, "print LLBP internal statistics and the per-interval MPKI chart")
		breakdown  = fs.Bool("breakdown", false, "print per-behaviour-class misprediction breakdown (catalog workloads only)")
		metricsOut = fs.String("metrics", "", "write a JSON telemetry snapshot (one run per workload) to this file")
		traceOut   = fs.String("tracefile", "", "write Chrome trace-event JSON (chrome://tracing / Perfetto) to this file")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = fs.String("memprofile", "", "write a heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := experiments.SpecByKey(strings.ToLower(*predName))
	if err != nil {
		fmt.Fprintln(stderr, "llbpsim:", err)
		return 1
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "llbpsim: starting CPU profile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	var tracer *telemetry.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		tracer = telemetry.NewTracer(f)
		defer func() {
			if err := tracer.Close(); err != nil {
				fmt.Fprintf(stderr, "llbpsim: writing trace: %v\n", err)
			}
		}()
	}

	var sources []trace.Source
	switch {
	case *traceFile != "":
		src, err := trace.NewFileSource(*traceFile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		sources = []trace.Source{src}
	case *wlName == "all":
		for _, src := range workload.Catalog() {
			sources = append(sources, src)
		}
	default:
		src, err := workload.ByName(*wlName)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		sources = []trace.Source{src}
	}

	var snapshots []telemetry.RunSnapshot
	fmt.Fprintf(stdout, "%-11s %-10s %10s %8s %8s %8s %7s\n",
		"workload", "predictor", "instrs", "condBr", "misses", "MPKI", "IPC")
	for wi, src := range sources {
		clock := &predictor.Clock{}
		p, err := spec.Build(clock)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		var reg *telemetry.Registry
		if *metricsOut != "" || *verbose {
			reg = telemetry.NewRegistry()
		}
		opts := sim.Options{
			WarmupBranches:  *warmup,
			MeasureBranches: *measure,
			Clock:           clock,
			Telemetry:       reg,
			Tracer:          tracer,
			TracePID:        telemetry.PidSim + wi,
		}
		tracer.ProcessName(opts.TracePID, "sim:"+src.Name())
		var classes map[uint64]workload.BehaviorClass
		execBy := map[string]uint64{}
		missBy := map[string]uint64{}
		if *breakdown {
			wl, ok := src.(*workload.Source)
			if !ok {
				fmt.Fprintln(stderr, "llbpsim: -breakdown requires a catalog workload")
				return 1
			}
			classes = wl.ClassMap()
			opts.Observer = func(b *trace.Branch, pred bool, _ predictor.Detail) {
				cls := "loop-header"
				if c, ok := classes[b.PC]; ok {
					cls = c.String()
				}
				execBy[cls]++
				if pred != b.Taken {
					missBy[cls]++
				}
			}
		}
		res, err := sim.Run(src, p, opts)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "%-11s %-10s %10d %8d %8d %8.3f %7.2f\n",
			res.Workload, res.Predictor, res.Instructions, res.CondBranches,
			res.Mispredicts, res.MPKI, res.IPC)
		if *breakdown {
			fmt.Fprintf(stdout, "  %-12s %10s %10s %9s\n", "class", "execs", "misses", "missrate")
			for _, cls := range []string{"biased", "marker", "local", "global", "context", "noisy", "loop-header"} {
				e, m := execBy[cls], missBy[cls]
				rate := 0.0
				if e > 0 {
					rate = float64(m) / float64(e)
				}
				fmt.Fprintf(stdout, "  %-12s %10d %10d %9.4f\n", cls, e, m, rate)
			}
		}
		if *verbose {
			if lp, ok := p.(*core.Predictor); ok {
				s := lp.Stats()
				fmt.Fprintf(stdout, "  llbp: matches=%d overrides=%d good=%d bad=%d bothOK=%d bothKO=%d\n",
					s.Matches, s.Overrides, s.GoodOverride, s.BadOverride, s.BothCorrect, s.BothWrong)
				fmt.Fprintf(stdout, "  llbp: reads=%d writes=%d cdLookups=%d pbHits=%d notReady=%d pbMiss=%d ctxAllocs=%d patAllocs=%d resets=%d live=%d\n",
					s.LLBPReads, s.LLBPWrites, s.CDLookups, s.PBHits, s.NotReady, s.PBMisses,
					s.CtxAllocs, s.PatternAllocs, s.Resets, s.CDLive)
				fmt.Fprintf(stdout, "  llbp: prefetch issued=%d filled=%d wasted=%d ctxSwitches=%d cdEvict=%d pbLive=%d\n",
					s.PrefetchIssued, s.PrefetchFilled, s.PrefetchWasted, s.CtxSwitches, s.CDEvictions, s.PBLive)
			}
		}
		if reg != nil {
			snap := reg.Snapshot()
			if *verbose {
				if mpki, ok := snap.Series["mpki"]; ok && len(mpki.Points) > 0 {
					title := fmt.Sprintf("%s MPKI by measured-branch interval", src.Name())
					if err := report.SeriesChart(title, mpki, 24).WriteText(stdout); err != nil {
						fmt.Fprintln(stderr, err)
						return 1
					}
				}
			}
			snapshots = append(snapshots, telemetry.RunSnapshot{
				Workload:  res.Workload,
				Predictor: res.Predictor,
				Metrics:   snap,
			})
		}
	}

	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := telemetry.WriteMetricsFile(f, snapshots); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "llbpsim: writing metrics: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "llbpsim: writing heap profile: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}
