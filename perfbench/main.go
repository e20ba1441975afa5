// Command perfbench is the repository's end-to-end and per-layer CPU-time
// benchmark. One invocation runs one workload in this process, on one
// driving goroutine, and prints its metrics as a JSON object on the last
// line of standard output:
//
//	bash perfbench/run.sh --workload replay-tomcat-llbp --seed 1 --seconds 30 --trace 0
//
// Workloads (why each was chosen: NOTES.md):
//
//	replay-tomcat-llbp           sim.Warm, then measure-only sim.Run passes over
//	                             the trace-cache tail; LLBP's read path
//	replay-charlie-llbp-smallcd  the same on Charlie with a 1K-context
//	                             directory; LLBP's write path
//	session-kafka-64k            llbp-session/1 frames parsed, applied and
//	                             encoded in-process; the serving layers
//
// Host times are process CPU seconds (getrusage user+sys), which exclude
// hypervisor steal; wall-clock rates and steal are printed as "#"
// diagnostics beside them. --trace 1 adds a traced run that times the
// benchmark's own calls into each layer, prints the per-layer metrics and
// writes the spans to a Chrome trace file. Every run checks the simulated
// output against a digest; see golden.txt.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"llbp/internal/trace"
	"llbp/internal/workload"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     string
	// offset is where in the catalog workload's branch stream the run's
	// input starts; the seed chooses it.
	offset  uint64
	seconds float64
	trace   bool
	// warmup and measure are the branch budgets: the warmup prefix and
	// the measured window every pass replays (or streams).
	warmup, measure uint64
	// minPasses bounds the measured phase from below, so medians and the
	// cross-pass digest check always have several samples.
	minPasses int
	// setups is how many times a replay's set-up runs; setup_s is their
	// median.
	setups int
	// traceOut is the Chrome trace file a traced run writes.
	traceOut string
	// golden maps digest keys to expected digests.
	golden map[string]string
	// out receives the "#" diagnostic lines.
	out io.Writer
}

// Default budgets. The warmup is the 1M branches the workloads' stress
// counts (NOTES.md) are quoted after. A pass takes about a CPU second, so
// a run's statistics cover tens of passes; the session's window is
// shorter than the replays' because a branch costs it several times more.
const (
	defaultWarmup        = 1_000_000
	defaultReplayMeasure = 1 << 19
	defaultSessionFrames = 512
	sessionBatch         = 512 // llbpctl's default branch-batch size
	defaultMinPasses     = 3
	defaultSetups        = 3
)

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadDef is one benchmark workload: the catalog workload it
// streams and the loop that drives it.
type workloadDef struct {
	catalog string
	run     func(cfg config, src windowSource) (*result, error)
}

var workloads = map[string]workloadDef{
	"replay-tomcat-llbp":          {"Tomcat", runReplay},
	"replay-charlie-llbp-smallcd": {"Charlie", runReplay},
	"session-kafka-64k":           {"Kafka", runSession},
}

func main() {
	// The driving goroutine keeps one OS thread, so thread CPU time is
	// the CPU of the benchmark's own calls.
	runtime.LockOSThread()
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.String("seed", "catalog", "input seed: the run replays the catalog stream from a seed-chosen offset (default: its start)")
	seconds := fs.Float64("seconds", 10, "wall seconds the measured phase runs")
	trace := fs.Int("trace", 0, "1 adds the traced run and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := workloads[*name]
	if !ok || fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: usage: --workload %v --seed <n> --seconds <s> --trace <0|1>\n", workloadNames())
		return 2
	}
	cfg := config{
		workload:  *name,
		seconds:   *seconds,
		trace:     *trace == 1,
		warmup:    defaultWarmup,
		measure:   defaultReplayMeasure,
		minPasses: defaultMinPasses,
		setups:    defaultSetups,
		traceOut:  fmt.Sprintf(".bench_build/perfbench-%s.trace.json", *name),
		out:       stdout,
	}
	if *name == "session-kafka-64k" {
		cfg.measure = defaultSessionFrames * sessionBatch
	}
	var err error
	if cfg.golden, err = loadGolden(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	wl, err := workload.ByName(def.catalog)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *seed != "catalog" {
		n, err := strconv.ParseUint(*seed, 10, 64)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: bad --seed %q: %v\n", *seed, err)
			return 2
		}
		cfg.offset = windowOffset(n)
	}
	cfg.seed = *seed
	res, err := def.run(cfg, newWindowSource(wl, cfg.offset))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// maxWindowOffset bounds how far into the stream a seed moves the input:
// skipping costs generation time in every set-up.
const maxWindowOffset = 1 << 21

// windowOffset maps a seed to the offset of its input window. Seeds pick
// stretches of one catalog program's branch stream rather than new
// programs (Params.Seed): each catalog seed draws a different synthetic
// program, and across programs MPKI and rates differ by tens of percent,
// far beyond any regression bound, while stretches of one program's
// stream differ by little. See NOTES.md.
func windowOffset(seed uint64) uint64 {
	z := seed + 0x9E3779B97F4A7C15 // splitmix64
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return (z ^ (z >> 31)) % maxWindowOffset
}

// windowSource is a run's input: the catalog workload's branch stream
// from the seed's offset on. It is a cache.Keyer, so the trace cache
// materialises it like the catalog source itself.
type windowSource struct {
	trace.Source
	offset uint64
}

func newWindowSource(wl *workload.Source, offset uint64) windowSource {
	return windowSource{Source: trace.Skip(wl, offset), offset: offset}
}

// CacheKey implements cache.Keyer: within one process the offset names
// the stream.
func (w windowSource) CacheKey() uint64 { return w.offset }

// OpenBatch implements trace.BatchSource.
func (w windowSource) OpenBatch() trace.BatchReader { return trace.OpenBatched(w.Source) }

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// measuring reports whether the measured phase goes on: until it has run
// minPasses passes and the wall budget is spent.
func (cfg config) measuring(passes int, start time.Time) bool {
	return passes < cfg.minPasses || time.Since(start).Seconds() < cfg.seconds
}

func (cfg config) printf(format string, args ...any) {
	fmt.Fprintf(cfg.out, "# "+format+"\n", args...)
}

// printPhase prints a timed phase's diagnostics: CPU (what the metrics
// use), wall, machine steal, and the wall-clock rate.
func (cfg config) printPhase(name string, c phaseCost, branches uint64) {
	rate := 0.0
	if c.wall > 0 {
		rate = float64(branches) / c.wall
	}
	cfg.printf("phase %-14s cpu=%.3fs wall=%.3fs steal=%.3fs wall_rate=%.0f branches/s",
		name, c.cpu, c.wall, c.steal, rate)
}

// sustainedQuantile is where over a run's passes the timing metrics are
// read: the rate the run sustained in nine passes out of ten. On a shared
// host whose memory system alternates between a contended plateau and
// quiet spells of varying speed, this quantile sits on the plateau and
// moves least from run to run (NOTES.md).
const sustainedQuantile = 0.9

// sustainedRate is the end-to-end throughput: branches per pass over the
// sustainedQuantile of the passes' CPU seconds.
func sustainedRate(branches uint64, cpus []float64) float64 {
	return float64(branches) / quantile(cpus, sustainedQuantile)
}

// printPasses prints the spread of the passes' rates and the batch
// sample counts behind the percentiles.
func (cfg config) printPasses(branches uint64, cpus []float64, batchUs [][]float64) {
	s := sorted(cpus)
	r := func(cpu float64) float64 { return float64(branches) / cpu }
	var all []float64
	for _, b := range batchUs {
		all = append(all, b...)
	}
	cfg.printf("passes=%d of %d batches (%d beyond each pass's p99); branches/cpu-s min=%.0f p10=%.0f median=%.0f max=%.0f",
		len(s), len(batchUs[0]), beyond(len(batchUs[0]), 0.99), r(s[len(s)-1]), r(quantile(s, sustainedQuantile)), r(median(s)), r(s[0]))
	cfg.printf("batch cpu p99 (not gated): %.1fus at the %gth percentile over passes; pooled over %d batches (%d beyond p99) p50=%.1fus p99=%.1fus",
		passQuantile(batchUs, 0.99), sustainedQuantile*100, len(all), beyond(len(all), 0.99), quantile(all, 0.5), quantile(all, 0.99))
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs by the nearest-rank method (0
// for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio returns a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
