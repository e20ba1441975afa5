package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"llbp/internal/workload"
)

// tiny returns a config that runs a workload in well under a second: two
// measured passes over a two-batch window (sixteen frames for the
// session), digests checked against the tiny goldens in golden.txt.
func tiny(t *testing.T, name string, traced bool, golden map[string]string) (config, *bytes.Buffer) {
	t.Helper()
	var out bytes.Buffer
	return config{
		workload:  name,
		seed:      "catalog",
		seconds:   1e-3,
		trace:     traced,
		warmup:    20_000,
		measure:   16 * sessionBatch,
		minPasses: 2,
		setups:    1,
		traceOut:  filepath.Join(t.TempDir(), "trace.json"),
		golden:    golden,
		out:       &out,
	}, &out
}

func run(t *testing.T, cfg config) *result {
	t.Helper()
	wl, err := workload.ByName(workloads[cfg.workload].catalog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := workloads[cfg.workload].run(cfg, newWindowSource(wl, cfg.offset))
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	return res
}

func names(m map[string]metric) []string {
	var out []string
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsMatchGolden runs every workload untraced and traced at a
// tiny length: each must reproduce its golden digest on every pass, print
// exactly its metric set, and (traced) write a Chrome trace array.
func TestWorkloadsMatchGolden(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	e2e := map[string]metric{}
	endToEnd{}.fill(e2e)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg, out := tiny(t, name, traced, golden)
			res := run(t, cfg)
			if _, ok := golden[cfg.digestKey()]; !ok {
				t.Fatalf("golden.txt has no digest for %s; the run printed:\n%s", cfg.digestKey(), out)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					name, traced, res.Correct, res.Attempted, res.Failed, out)
			}
			want := names(e2e)
			if traced {
				want = want[:0]
				for n := range layerUnits {
					want = append(want, n)
				}
				sort.Strings(want)
			}
			if got := names(res.Metrics); !equal(got, want) {
				t.Errorf("%s traced=%v metrics = %v, want %v", name, traced, got, want)
			}
			if !traced {
				continue
			}
			raw, err := os.ReadFile(cfg.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var events []map[string]any
			if err := json.Unmarshal(raw, &events); err != nil || len(events) < 3 {
				t.Errorf("%s: trace is not a trace-event array (%d events): %v", name, len(events), err)
			}
		}
	}
}

// TestPerturbedGoldenFails shows the digest check bites: with one digit
// of the golden changed, every pass counts as failed.
func TestPerturbedGoldenFails(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		cfg, _ := tiny(t, name, false, nil)
		perturbed := map[string]string{}
		for k, v := range golden {
			perturbed[k] = v
		}
		d := []byte(perturbed[cfg.digestKey()])
		d[0] ^= 1
		perturbed[cfg.digestKey()] = string(d)
		cfg.golden = perturbed
		res := run(t, cfg)
		if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
			t.Errorf("%s with a perturbed golden: correct=%v attempted=%d failed=%d",
				name, res.Correct, res.Attempted, res.Failed)
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly
// the metrics, units and workloads the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]metric{}
	endToEnd{}.fill(e2e)
	check := func(kind string, decls []decl, units map[string]string) {
		if len(decls) != len(units) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(decls), len(units))
		}
		for _, d := range decls {
			if u, ok := units[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s metric %s (%s): the benchmark prints unit %q", kind, d.Name, d.Unit, u)
			}
		}
	}
	e2eUnits := map[string]string{}
	for n, m := range e2e {
		e2eUnits[n] = m.Unit
	}
	check("end_to_end", doc.EndToEnd, e2eUnits)
	check("per_layer", doc.PerLayer, layerUnits)
	var wls []string
	for _, w := range doc.Workloads {
		wls = append(wls, w.Name)
	}
	sort.Strings(wls)
	if !equal(wls, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", wls, workloadNames())
	}
}

// TestSeedSelectsWindow pins the seed contract: the same seed gives the
// same input window, and different seeds give different ones.
func TestSeedSelectsWindow(t *testing.T) {
	if windowOffset(7) != windowOffset(7) {
		t.Fatal("windowOffset is not a function of the seed")
	}
	seen := map[uint64]uint64{}
	for s := uint64(0); s < 64; s++ {
		o := windowOffset(s)
		if o >= maxWindowOffset {
			t.Fatalf("offset %d for seed %d exceeds %d", o, s, maxWindowOffset)
		}
		if prev, dup := seen[o]; dup {
			t.Fatalf("seeds %d and %d share offset %d", prev, s, o)
		}
		seen[o] = s
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
