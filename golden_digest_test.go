package llbp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"llbp/internal/predictor"
	"llbp/internal/sim"
	"llbp/internal/telemetry"
	"llbp/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_digests.txt from the current simulation output")

const goldenDigestPath = "testdata/golden_digests.txt"

// goldenCells is the seeded mini-matrix behind TestGoldenTrajectoryDigests:
// the two families whose hot paths carry the packed/shared-history layouts
// (llbp and its tage-sc-l baseline) plus Inf TSL, whose infinite TAGE and
// 18-bit corrector folds give the shared history engine a second shape,
// over two structurally different workloads (Tomcat: context-heavy;
// Chirper: small working set).
var goldenCells = []struct {
	Workload string
	Family   string
}{
	{"Tomcat", "tage-sc-l"},
	{"Tomcat", "llbp"},
	{"Tomcat", "inftsl"},
	{"Chirper", "tage-sc-l"},
	{"Chirper", "llbp"},
	{"Chirper", "inftsl"},
}

const (
	goldenWarmup  = 30_000
	goldenMeasure = 120_000
)

// goldenDigest replays one mini-matrix cell and hashes everything the
// trajectory touches: the llbp-metrics/1 document (every counter, gauge
// and series point the run emitted) plus the full sim.Result rendered
// with exact float encoding. Any hot-path change that forks the branch
// trajectory — a re-ordered fold push, an off-by-one in a packed lane, a
// different PB victim — lands in at least one of these numbers.
func goldenDigest(t *testing.T, wlName, family string) string {
	t.Helper()
	src, err := workload.ByName(wlName)
	if err != nil {
		t.Fatal(err)
	}
	var p predictor.Predictor
	var clock *predictor.Clock
	switch family {
	case "tage-sc-l":
		b, err := NewBaseline(Size64K)
		if err != nil {
			t.Fatal(err)
		}
		p = b
	case "inftsl":
		b, err := NewBaseline(SizeInfTSL)
		if err != nil {
			t.Fatal(err)
		}
		p = b
	case "llbp":
		l, c, err := NewLLBP()
		if err != nil {
			t.Fatal(err)
		}
		p, clock = l, c
	default:
		t.Fatalf("unknown family %q", family)
	}
	reg := telemetry.NewRegistry()
	res, err := sim.Run(src, p, sim.Options{
		WarmupBranches:  goldenWarmup,
		MeasureBranches: goldenMeasure,
		Clock:           clock,
		Telemetry:       reg,
		SeriesInterval:  8_192,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteMetricsFile(&buf, []telemetry.RunSnapshot{{
		Workload:  wlName,
		Predictor: p.Name(),
		Metrics:   reg.Snapshot(),
	}}); err != nil {
		t.Fatal(err)
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fmt.Fprintf(&buf, "result %d %d %d %d %d %s %s %s %s %s\n",
		res.Instructions, res.Branches, res.CondBranches, res.Mispredicts,
		res.TargetMisses, f(res.MPKI), f(res.Cycles), f(res.BranchPenalty),
		f(res.WastedFraction), f(res.IPC))
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func readGoldenDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenDigestPath)
	if err != nil {
		t.Fatalf("reading golden digests (run with -update-golden to create): %v", err)
	}
	out := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("malformed golden line %q", line)
		}
		out[fields[0]+"/"+fields[1]] = fields[2]
	}
	return out
}

// TestGoldenTrajectoryDigests is the byte-identity regression gate for
// hot-path layout work: the digests in testdata/golden_digests.txt were
// committed from the pre-packing scalar implementation, so the packed
// pattern sets, the shared history engine, and the branch-free PB must
// reproduce them bit for bit. Regenerate with
//
//	go test -run TestGoldenTrajectoryDigests -update-golden .
//
// only when a change is *supposed* to alter the trajectory (new
// allocation policy, different hash), and say so in the PR.
func TestGoldenTrajectoryDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	got := make(map[string]string, len(goldenCells))
	for _, c := range goldenCells {
		got[c.Workload+"/"+c.Family] = goldenDigest(t, c.Workload, c.Family)
	}
	if *updateGolden {
		var b strings.Builder
		b.WriteString("# sha256 over llbp-metrics/1 doc + sim.Result per mini-matrix cell.\n")
		b.WriteString("# Regenerate: go test -run TestGoldenTrajectoryDigests -update-golden .\n")
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			parts := strings.SplitN(k, "/", 2)
			fmt.Fprintf(&b, "%s %s %s\n", parts[0], parts[1], got[k])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDigestPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenDigestPath)
		return
	}
	want := readGoldenDigests(t)
	for k, g := range got {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: no golden digest committed (run -update-golden)", k)
			continue
		}
		if g != w {
			t.Errorf("%s: trajectory digest %s != golden %s — the simulation output changed byte-for-byte; "+
				"if intentional, regenerate with -update-golden and call it out in the PR", k, g, w)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("golden file has stale cell %s", k)
		}
	}
}
