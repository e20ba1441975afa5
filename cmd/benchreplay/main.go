// Command benchreplay measures end-to-end replay throughput — branches
// per second through sim.Run, per predictor family — and records it as a
// small JSON document (BENCH_N.json at the repo root). CI re-validates
// the committed documents with -check and smoke-runs the measurement so
// the numbers can't silently rot.
//
// -compare turns a run into a trajectory point: per-family branches/s is
// measured fresh, the delta against a baseline document is computed, and
// the run fails (exit 1) when any family regressed beyond -tolerance
// percent. The -out document is written before the verdict, so the
// artifact survives a failing gate.
//
// Usage:
//
//	benchreplay -out BENCH_5.json                        # measure and write
//	benchreplay -check BENCH_5.json                      # validate an existing document
//	benchreplay -compare BENCH_5.json -out BENCH_6.json  # measure, diff, gate
//	benchreplay -branches 50000 -out -                   # quick run to stdout
//	benchreplay -out BENCH_8.json -cpuprofile llbp.prof  # plus llbp CPU profile
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"llbp/internal/experiments"
	"llbp/internal/predictor"
	"llbp/internal/session"
	"llbp/internal/sim"
	"llbp/internal/trace"
	"llbp/internal/trace/cache"
	"llbp/internal/workload"
)

// BenchSchema identifies the document format.
const BenchSchema = "llbp-bench/1"

// Doc is the serialized benchmark document.
type Doc struct {
	Schema   string `json:"schema"`
	GOOS     string `json:"goos"`
	GOARCH   string `json:"goarch"`
	Workload string `json:"workload"`
	Branches uint64 `json:"branches_per_iter"`
	// Machine identifies the hardware and runtime that produced the
	// measurement. Branches/s is a property of (code, machine), not of
	// the code alone: the BENCH_5→BENCH_6 trajectory recorded -26..-37%
	// "regressions" that were really a slower CI machine, which is why
	// comparisons now carry this block and warn when it changes.
	Machine *Machine `json:"machine,omitempty"`
	// BaselineFile names the document this run was compared against
	// (set by -compare).
	BaselineFile string `json:"baseline_file,omitempty"`
	// TolerancePct is the -tolerance the comparison was gated with, so a
	// recorded verdict can be interpreted without knowing the CI flags
	// of the day.
	TolerancePct float64  `json:"tolerance_pct,omitempty"`
	Results      []Result `json:"results"`
}

// Machine is the measurement environment fingerprint.
type Machine struct {
	CPUModel   string `json:"cpu_model,omitempty"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Hostname   string `json:"hostname,omitempty"`
}

// currentMachine fingerprints the running host. Best-effort: fields the
// platform cannot provide stay empty.
func currentMachine() *Machine {
	m := &Machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if host, err := os.Hostname(); err == nil {
		m.Hostname = host
	}
	m.CPUModel = cpuModel()
	return m
}

// cpuModel extracts the first "model name" from /proc/cpuinfo (Linux
// only; empty elsewhere).
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, val, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(val)
			}
		}
	}
	return ""
}

// Result is one predictor family's measured replay rate, plus — when the
// run was a -compare — the baseline rate and the relative delta.
type Result struct {
	Family        string  `json:"family"`
	Iterations    int     `json:"iterations"`
	NsPerOp       int64   `json:"ns_per_op"`
	BranchesPerSc float64 `json:"branches_per_sec"`
	// BaselineBranchesPerSec is the same family's rate in the -compare
	// baseline (0 when not compared or absent from the baseline).
	BaselineBranchesPerSec float64 `json:"baseline_branches_per_sec,omitempty"`
	// DeltaPct is 100 * (new - baseline) / baseline; negative means a
	// regression.
	DeltaPct float64 `json:"delta_pct,omitempty"`
	// Verdict records how the comparison gate judged this family:
	// "ok" (within tolerance), "regression" (beyond it), or
	// "inherited-baseline" (family absent from the baseline document;
	// this run's own rate is recorded as its first baseline so the next
	// comparison gates it normally). Empty when the run was not a
	// -compare.
	Verdict string `json:"verdict,omitempty"`
	// VsBatchPct is set on the streamed-session family only: the rate
	// relative to the same predictor's batch replay ("tage-sc-l"),
	// 100 * (stream - batch) / batch. Negative is the serving layer's
	// overhead — frame validation, epoch fencing, outcome encoding and
	// checkpoint frames.
	VsBatchPct float64 `json:"vs_batch_pct,omitempty"`
}

// sessionFamily is the streamed-throughput family: the same branches
// pushed through the session subsystem instead of sim.Run. It is newer
// than the sim families, so parseDoc treats it as optional — BENCH_6 and
// earlier predate it and must keep parsing, both under -check and as
// -compare baselines (where compareDocs hands the absent family an
// "inherited-baseline" verdict instead of failing the parse).
const sessionFamily = "session"

// families mirrors BenchmarkReplayThroughput's predictor set: each family
// replays the registered predictor spec (experiments.SpecByKey) named
// beside it. The committed document must cover exactly these.
var families = []struct{ name, spec string }{
	{"tage", "tage"},
	{"tage-sc-l", "64k"},
	{"llbp", "llbp"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreplay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out      = fs.String("out", "", "write the benchmark document to this file ('-' for stdout)")
		check    = fs.String("check", "", "validate an existing benchmark document instead of measuring")
		wlName   = fs.String("workload", "Tomcat", "catalog workload to replay")
		branches = fs.Uint64("branches", 100_000, "branches per iteration (warmup+measure)")
		warmup   = fs.Uint64("warmup", 20_000, "warmup branches per iteration")
		compare  = fs.String("compare", "", "baseline benchmark document to diff the fresh measurement against")
		tol      = fs.Float64("tolerance", 5.0, "max per-family branches/s regression percent before -compare fails")
		profile  = fs.String("cpuprofile", "", "write a CPU profile of the llbp family's measurement to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *check != "" && *compare != "" {
		fmt.Fprintln(stderr, "benchreplay: -check and -compare are mutually exclusive")
		return 2
	}
	if *check != "" {
		if _, err := parseDoc(*check); err != nil {
			fmt.Fprintln(stderr, "benchreplay:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s: ok\n", *check)
		return 0
	}
	if *out == "" {
		fmt.Fprintln(stderr, "usage: benchreplay -out <file|-> [-compare <baseline>] | -check <file>")
		return 2
	}
	if *warmup >= *branches {
		fmt.Fprintln(stderr, "benchreplay: -warmup must be below -branches")
		return 2
	}
	var baseline *Doc
	if *compare != "" {
		var err error
		if baseline, err = parseDoc(*compare); err != nil {
			fmt.Fprintln(stderr, "benchreplay:", err)
			return 1
		}
	}
	doc, err := measure(*wlName, *branches, *warmup, *profile, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchreplay:", err)
		return 1
	}
	var regressions []string
	if baseline != nil {
		doc.BaselineFile = *compare
		regressions = compareDocs(doc, baseline, *tol, stderr)
	}
	w := stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "benchreplay:", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(stderr, "benchreplay:", err)
		return 1
	}
	if len(regressions) > 0 {
		// The document above is already written: the trajectory artifact
		// survives the failing gate.
		fmt.Fprintf(stderr, "benchreplay: regression beyond %.1f%% tolerance: %v\n", *tol, regressions)
		return 1
	}
	return 0
}

// compareDocs annotates doc's results with baseline rates, deltas, and
// per-family verdicts under tol percent, returning the families that
// regressed beyond it. A family missing from the baseline inherits its
// own fresh measurement as the first baseline (verdict
// "inherited-baseline", delta 0): the written document then carries a
// positive rate for the family, so the next -compare against it gates
// the family like every other one instead of repeating "no-baseline"
// forever. A baseline measured on a different machine is called out:
// the delta then measures the machines, not the code.
func compareDocs(doc, baseline *Doc, tol float64, stderr io.Writer) []string {
	doc.TolerancePct = tol
	if bm, m := baseline.Machine, doc.Machine; bm != nil && m != nil && bm.CPUModel != m.CPUModel {
		fmt.Fprintf(stderr, "benchreplay: baseline %s was measured on %q, this run on %q; deltas compare machines as much as code\n",
			doc.BaselineFile, bm.CPUModel, m.CPUModel)
	}
	base := make(map[string]float64, len(baseline.Results))
	for _, r := range baseline.Results {
		base[r.Family] = r.BranchesPerSc
	}
	var regressions []string
	for i := range doc.Results {
		r := &doc.Results[i]
		b, ok := base[r.Family]
		if !ok || b <= 0 {
			r.BaselineBranchesPerSec = r.BranchesPerSc
			r.Verdict = "inherited-baseline"
			fmt.Fprintf(stderr, "benchreplay: family %q absent from baseline %s; inheriting this run's %.0f branches/s as its first baseline\n",
				r.Family, doc.BaselineFile, r.BranchesPerSc)
			continue
		}
		r.BaselineBranchesPerSec = b
		r.DeltaPct = 100 * (r.BranchesPerSc - b) / b
		r.Verdict = "ok"
		if r.DeltaPct < -tol {
			r.Verdict = "regression"
			regressions = append(regressions, fmt.Sprintf("%s %.1f%%", r.Family, r.DeltaPct))
		}
		fmt.Fprintf(stderr, "%-10s %+7.1f%% vs baseline (%12.0f -> %12.0f branches/s) [%s, tolerance %.1f%%]\n",
			r.Family, r.DeltaPct, b, r.BranchesPerSc, r.Verdict, tol)
	}
	return regressions
}

// measure runs the replay benchmark for every family via
// testing.Benchmark, so iteration scaling matches `go test -bench`.
// When cpuprofile is non-empty, the llbp family's measurement — the
// family the perf roadmap tracks — runs under the CPU profiler and the
// profile is written there.
func measure(wlName string, branches, warmup uint64, cpuprofile string, progress io.Writer) (*Doc, error) {
	wl, err := workload.ByName(wlName)
	if err != nil {
		return nil, err
	}
	h, err := cache.Default().Acquire(wl, branches)
	if err != nil || h == nil {
		return nil, fmt.Errorf("materializing %s: %v", wlName, err)
	}
	defer h.Release()

	doc := &Doc{
		Schema:   BenchSchema,
		GOOS:     runtime.GOOS,
		GOARCH:   runtime.GOARCH,
		Workload: wlName,
		Branches: branches,
		Machine:  currentMachine(),
	}
	for _, fam := range families {
		spec, err := experiments.SpecByKey(fam.spec)
		if err != nil {
			return nil, err
		}
		profiled := cpuprofile != "" && fam.name == "llbp"
		if profiled {
			f, err := os.Create(cpuprofile)
			if err != nil {
				return nil, fmt.Errorf("cpuprofile: %w", err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return nil, fmt.Errorf("cpuprofile: %w", err)
			}
			// Stopped right after this family's benchmark returns, so the
			// profile holds llbp's measurement alone.
			defer f.Close()
		}
		var runErr error
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clock := &predictor.Clock{}
				p, err := spec.Build(clock)
				if err == nil {
					_, err = sim.Run(h, p, sim.Options{
						WarmupBranches:  warmup,
						MeasureBranches: branches - warmup,
						Clock:           clock,
					})
				}
				if err != nil {
					runErr = err
					b.FailNow()
				}
			}
		})
		if profiled {
			pprof.StopCPUProfile()
		}
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", fam.name, runErr)
		}
		if r.N == 0 {
			return nil, fmt.Errorf("%s: benchmark did not run", fam.name)
		}
		res := Result{
			Family:        fam.name,
			Iterations:    r.N,
			NsPerOp:       r.NsPerOp(),
			BranchesPerSc: float64(r.N) * float64(branches) / r.T.Seconds(),
		}
		doc.Results = append(doc.Results, res)
		fmt.Fprintf(progress, "%-10s %12d ns/op %12.0f branches/s\n",
			fam.name, res.NsPerOp, res.BranchesPerSc)
	}
	if err := measureSession(doc, wl, branches, progress); err != nil {
		return nil, err
	}
	return doc, nil
}

// measureSession appends the session_branches_per_sec family: the same
// trace applied through the session subsystem — frame validation,
// epoch-fenced batch application, outcome-byte encoding, auto-checkpoint
// frames on the default cadence — instead of batch sim.Run. Journaling is
// off, matching the batch families (neither path fsyncs per branch). The
// frames reach Claim.Apply already decoded, so the family never parses
// NDJSON: the delta is the serving layer without its wire decode, which
// perfbench's session ledger put at ≈69% of a streamed branch's CPU
// before FrameReader gained its reflection-free path. The streamed
// figure, parse included, is perfbench's session-kafka-64k workload. The
// predictor is the 64 KiB TAGE-SC-L, making "tage-sc-l" the batch twin
// VsBatchPct compares to.
func measureSession(doc *Doc, wl *workload.Source, branches uint64, progress io.Writer) error {
	const batchLen = 1024
	r := wl.Open()
	var b trace.Branch
	var frames []session.Frame
	for total, seq := uint64(0), uint64(1); total < branches; seq++ {
		recs := make([]session.BranchRec, 0, batchLen)
		for len(recs) < batchLen && total < branches {
			if err := r.Read(&b); err == io.EOF {
				break
			} else if err != nil {
				return fmt.Errorf("reading %s: %w", wl.Name(), err)
			}
			recs = append(recs, session.BranchRec{
				PC: b.PC, Target: b.Target, Kind: uint8(b.Type), Taken: b.Taken,
				Instructions: b.Instructions, TargetMiss: b.MispredictedTarget,
			})
			total++
		}
		if len(recs) == 0 {
			break
		}
		frames = append(frames, session.Frame{Type: session.FrameBranchBatch, Seq: seq, Branches: recs})
	}

	h := experiments.NewHarness(experiments.Config{
		Warmup: 1, Measure: 1, Workloads: []*workload.Source{wl},
	})
	ctx := context.Background()
	var runErr error
	br := testing.Benchmark(func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			m, err := session.New(session.Options{Forker: h, LeaseTTL: time.Minute})
			if err != nil {
				runErr = err
				tb.FailNow()
			}
			st, err := m.Open(ctx, session.Request{Schema: session.Schema, Predictor: "64k"})
			if err != nil {
				runErr = err
				tb.FailNow()
			}
			c, err := m.Claim(ctx, st.ID, "bench")
			if err != nil {
				runErr = err
				tb.FailNow()
			}
			for _, f := range frames {
				if _, err := c.Apply(f); err != nil {
					runErr = err
					tb.FailNow()
				}
			}
			c.Release()
		}
	})
	if runErr != nil {
		return fmt.Errorf("%s: %w", sessionFamily, runErr)
	}
	if br.N == 0 {
		return fmt.Errorf("%s: benchmark did not run", sessionFamily)
	}
	res := Result{
		Family:        sessionFamily,
		Iterations:    br.N,
		NsPerOp:       br.NsPerOp(),
		BranchesPerSc: float64(br.N) * float64(branches) / br.T.Seconds(),
	}
	for _, twin := range doc.Results {
		if twin.Family == "tage-sc-l" && twin.BranchesPerSc > 0 {
			res.VsBatchPct = 100 * (res.BranchesPerSc - twin.BranchesPerSc) / twin.BranchesPerSc
		}
	}
	doc.Results = append(doc.Results, res)
	fmt.Fprintf(progress, "%-10s %12d ns/op %12.0f branches/s (%+.1f%% vs batch tage-sc-l)\n",
		sessionFamily, res.NsPerOp, res.BranchesPerSc, res.VsBatchPct)
	return nil
}

// parseDoc loads and validates a benchmark document: parseable, right
// schema, every family present with a positive measured rate.
func parseDoc(path string) (*Doc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Doc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != BenchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, BenchSchema)
	}
	if doc.Branches == 0 {
		return nil, fmt.Errorf("%s: branches_per_iter is zero", path)
	}
	seen := map[string]bool{}
	for _, r := range doc.Results {
		if r.BranchesPerSc <= 0 || r.NsPerOp <= 0 || r.Iterations <= 0 {
			return nil, fmt.Errorf("%s: family %q has non-positive measurements", path, r.Family)
		}
		seen[r.Family] = true
	}
	for _, fam := range families {
		if !seen[fam.name] {
			return nil, fmt.Errorf("%s: family %q missing", path, fam.name)
		}
	}
	return &doc, nil
}
