package llbp

// The benchmark suite regenerates every table and figure of the paper at
// micro scale — one benchmark per artifact, as indexed in DESIGN.md §3.
// Each benchmark logs the regenerated table (run with -v to see it) and
// reports its headline number as a custom metric.
//
// The harness memoizes simulation runs, so the first iteration pays the
// simulation cost and subsequent iterations are cache hits; any
// -benchtime works, and -benchtime=1x gives the fastest full pass.
// cmd/experiments runs the same experiments at full scale.

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"llbp/internal/experiments"
	"llbp/internal/predictor"
	"llbp/internal/report"
	"llbp/internal/sim"
	"llbp/internal/telemetry"
	"llbp/internal/trace"
	"llbp/internal/trace/cache"
	"llbp/internal/workload"
)

var (
	benchOnce    sync.Once
	benchHarness *experiments.Harness
)

// benchH returns the shared micro-budget harness: four representative
// workloads, ~200k branches each.
func benchH() *experiments.Harness {
	benchOnce.Do(func() {
		names := []string{"NodeApp", "Kafka", "Tomcat", "Merced"}
		var wls []*workload.Source
		for _, n := range names {
			wl, err := workload.ByName(n)
			if err != nil {
				panic(err)
			}
			wls = append(wls, wl)
		}
		benchHarness = experiments.NewHarness(experiments.Config{
			Warmup:       50_000,
			Measure:      150_000,
			SweepWarmup:  30_000,
			SweepMeasure: 100_000,
			Workloads:    wls,
		})
	})
	return benchHarness
}

// runExperiment drives one experiment under the bench harness, logging its
// tables once and reporting metric (extracted by pick) per iteration.
func runExperiment(b *testing.B, run func(*experiments.Harness) ([]*report.Table, error),
	metric string, pick func([]*report.Table) float64) {
	b.Helper()
	h := benchH()
	var tables []*report.Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = run(h)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, t := range tables {
		b.Log("\n" + t.String())
	}
	if pick != nil {
		b.ReportMetric(pick(tables), metric)
	}
}

// cell parses the numeric cell at (rowLabel, col) of the first table.
func cell(tables []*report.Table, rowLabel string, col int) float64 {
	if len(tables) == 0 {
		return 0
	}
	for _, row := range tables[0].Rows {
		if len(row) > col && row[0] == rowLabel {
			v, err := strconv.ParseFloat(row[col], 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

func BenchmarkTable1Workloads(b *testing.B) {
	runExperiment(b, experiments.Table1, "", nil)
}

func BenchmarkTable2CoreConfig(b *testing.B) {
	runExperiment(b, experiments.Table2, "", nil)
}

func BenchmarkTable3LatencyEnergy(b *testing.B) {
	runExperiment(b, experiments.Table3, "LLBP-rel-energy", func(t []*report.Table) float64 {
		return cell(t, "LLBP", 3)
	})
}

func BenchmarkFig01WastedCycles(b *testing.B) {
	runExperiment(b, experiments.Fig1, "gmean-wasted-%", func(t []*report.Table) float64 {
		return cell(t, "GMean", 1)
	})
}

func BenchmarkFig02MPKILimit(b *testing.B) {
	runExperiment(b, experiments.Fig2, "infTSL-reduction-%", func(t []*report.Table) float64 {
		return cell(t, "Mean", 5)
	})
}

func BenchmarkFig03aCumulativeMispred(b *testing.B) {
	runExperiment(b, experiments.Fig3a, "inf-total-vs-64k", func(t []*report.Table) float64 {
		return cell(t, "inftsl", 1)
	})
}

func BenchmarkFig03bPatternsPerBranch(b *testing.B) {
	runExperiment(b, experiments.Fig3b, "mean-patterns", func(t []*report.Table) float64 {
		return cell(t, "mean (all branches)", 1)
	})
}

func BenchmarkFig05ContextLocality(b *testing.B) {
	runExperiment(b, experiments.Fig5, "p95-at-W32", func(t []*report.Table) float64 {
		return cell(t, "W=32", 3)
	})
}

func BenchmarkFig09MPKIReduction(b *testing.B) {
	runExperiment(b, experiments.Fig9, "mean-llbp-reduction-%", func(t []*report.Table) float64 {
		return cell(t, "Mean", 1)
	})
}

func BenchmarkFig10Speedup(b *testing.B) {
	runExperiment(b, experiments.Fig10, "mean-llbp-speedup-%", func(t []*report.Table) float64 {
		return cell(t, "Mean", 1)
	})
}

func BenchmarkFig11Bandwidth(b *testing.B) {
	runExperiment(b, experiments.Fig11, "pb64-read-b/i", func(t []*report.Table) float64 {
		return cell(t, "64-entry PB", 1)
	})
}

func BenchmarkFig12Energy(b *testing.B) {
	runExperiment(b, experiments.Fig12, "llbp-pb64-total", func(t []*report.Table) float64 {
		return cell(t, "LLBP w/ 64-entry PB", 5)
	})
}

func BenchmarkFig13CIDSensitivity(b *testing.B) {
	runExperiment(b, experiments.Fig13, "uncond-D4-reduction-%", func(t []*report.Table) float64 {
		return cell(t, "Uncond", 3)
	})
}

func BenchmarkFig14PatternSets(b *testing.B) {
	runExperiment(b, experiments.Fig14, "", nil)
}

func BenchmarkFig15Breakdown(b *testing.B) {
	runExperiment(b, experiments.Fig15, "llbp-provides-%", func(t []*report.Table) float64 {
		return cell(t, "LLBP provides (matches)", 1)
	})
}

func BenchmarkAblationDesignChoices(b *testing.B) {
	runExperiment(b, experiments.Ablations, "", nil)
}

func BenchmarkSoftErrorStudy(b *testing.B) {
	runExperiment(b, experiments.SoftErrorStudy, "", nil)
}

// --- Raw predictor throughput micro-benchmarks ---

// benchStream materializes a fixed branch stream once.
var (
	streamOnce sync.Once
	stream     []trace.Branch
)

func benchStream() []trace.Branch {
	streamOnce.Do(func() {
		wl, err := workload.ByName("Tomcat")
		if err != nil {
			panic(err)
		}
		r := &trace.LimitReader{R: wl.Open(), Max: 100_000}
		var b trace.Branch
		for {
			if err := r.Read(&b); err != nil {
				break
			}
			stream = append(stream, b)
		}
	})
	return stream
}

// benchPredictor measures raw per-branch throughput of p, driven by
// clock: the replay step (clock, predict/update, penalties and resets)
// without stream dispatch or measurement bookkeeping.
func benchPredictor(b *testing.B, p predictor.Predictor, clock *predictor.Clock) {
	s := benchStream()
	st := sim.NewStepper(p, clock)
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		st.Step(&s[n])
		n++
		if n == len(s) {
			n = 0
		}
	}
}

// buildSpec builds the registered predictor spec key with its clock.
func buildSpec(b *testing.B, key string) (predictor.Predictor, *predictor.Clock) {
	b.Helper()
	spec, err := experiments.SpecByKey(key)
	if err != nil {
		b.Fatal(err)
	}
	clock := &predictor.Clock{}
	p, err := spec.Build(clock)
	if err != nil {
		b.Fatal(err)
	}
	return p, clock
}

// benchSpec runs benchPredictor on a fresh predictor of the registered
// spec key.
func benchSpec(b *testing.B, key string) {
	p, clock := buildSpec(b, key)
	benchPredictor(b, p, clock)
}

func BenchmarkPredict64KTSL(b *testing.B) { benchSpec(b, "64k") }

func BenchmarkPredictLLBP(b *testing.B) { benchSpec(b, "llbp") }

// --- End-to-end replay throughput ---

// replayFamilies are the predictor families BENCH_5.json tracks, each
// the registered predictor spec named beside it.
var replayFamilies = []struct{ Name, Spec string }{
	{"tage", "tage"},
	{"tage-sc-l", "64k"},
	{"llbp", "llbp"},
}

// replayBranches is the per-iteration branch budget of the replay
// throughput benchmarks (warmup + measure).
const replayBranches = 100_000

// benchReplay drives one full sim.Run per iteration — stream dispatch,
// cycle model, accounting and the predictor — from a materialized trace,
// and reports end-to-end branches/sec. Each iteration replays a fresh
// predictor of the registered spec key (replay throughput includes
// predictor state growth, so reuse would flatter later iterations).
func benchReplay(b *testing.B, key string) {
	b.Helper()
	wl, err := workload.ByName("Tomcat")
	if err != nil {
		b.Fatal(err)
	}
	h, err := cache.Default().Acquire(wl, replayBranches)
	if err != nil || h == nil {
		b.Fatalf("trace cache: %v, %v", h, err)
	}
	defer h.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, clock := buildSpec(b, key)
		if _, err := sim.Run(h, p, sim.Options{
			WarmupBranches:  20_000,
			MeasureBranches: replayBranches - 20_000,
			Clock:           clock,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(b.N)*replayBranches/b.Elapsed().Seconds(), "branches/s")
	}
}

// BenchmarkReplayThroughput is the per-family end-to-end replay rate
// written to BENCH_5.json by cmd/benchreplay and smoke-run in CI.
func BenchmarkReplayThroughput(b *testing.B) {
	for _, fam := range replayFamilies {
		b.Run(fam.Name, func(b *testing.B) { benchReplay(b, fam.Spec) })
	}
}

// --- Telemetry overhead ---

// BenchmarkTelemetryOverhead replays b.N branches of the 64K TSL
// benchmark stream through sim.Run with no registry ("disabled") and
// with a live one ("enabled"). The variants differ only in
// Options.Telemetry, so their difference prices the publication path:
// series points, sim counters and the predictor's counters published at
// every 4096-branch sample. CI runs it next to BenchmarkPredict64KTSL.
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) { benchRun(b, nil) })
	b.Run("enabled", func(b *testing.B) { benchRun(b, telemetry.NewRegistry()) })
}

// benchRun replays b.N branches through a fresh 64K TSL in one sim.Run.
func benchRun(b *testing.B, reg *telemetry.Registry) {
	p, clock := buildSpec(b, "64k")
	src := &loopSource{s: benchStream()}
	b.ResetTimer()
	if _, err := sim.Run(src, p, sim.Options{
		MeasureBranches: uint64(b.N),
		Clock:           clock,
		Telemetry:       reg,
	}); err != nil {
		b.Fatal(err)
	}
}

// loopSource replays a branch slice end to end, over and over, so a
// sim.Run of any length steps through the same records.
type loopSource struct{ s []trace.Branch }

func (l *loopSource) Name() string       { return "loop" }
func (l *loopSource) Open() trace.Reader { return &loopReader{s: l.s} }

type loopReader struct {
	s []trace.Branch
	n int
}

func (r *loopReader) Read(b *trace.Branch) error {
	*b = r.s[r.n]
	r.n = (r.n + 1) % len(r.s)
	return nil
}

// countedPackages are the packages on the per-branch predictor path.
var countedPackages = []string{"tage", "sc", "tsl", "core", "looppred", "bimodal", "history", "predictor"}

// TestDisabledTelemetryOverhead holds the disabled-telemetry cost of a
// predictor branch at zero by construction: no package on the
// per-branch predictor path imports internal/telemetry, directly or
// through another package of this module, so a branch runs no
// instrument, nil or live. Predictors count in plain Stats fields, and
// sim.Run publishes them only when Options.Telemetry is set.
func TestDisabledTelemetryOverhead(t *testing.T) {
	for _, pkg := range countedPackages {
		if chain := importChain(t, "llbp/internal/"+pkg, "llbp/internal/telemetry", map[string]bool{}); chain != nil {
			t.Errorf("%s reaches telemetry: %s", pkg, strings.Join(chain, " -> "))
		}
	}
}

// importChain returns the import path from pkg to target through the
// non-test Go files of this module, or nil when pkg does not reach it.
func importChain(t *testing.T, pkg, target string, seen map[string]bool) []string {
	t.Helper()
	if pkg == target {
		return []string{pkg}
	}
	if seen[pkg] {
		return nil
	}
	seen[pkg] = true
	dir := strings.TrimPrefix(pkg, "llbp/")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !strings.HasPrefix(path, "llbp/") {
				continue
			}
			if chain := importChain(t, path, target, seen); chain != nil {
				return append([]string{pkg}, chain...)
			}
		}
	}
	return nil
}
