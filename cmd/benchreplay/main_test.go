package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMeasureAndCheck: a small measurement run writes a document that
// -check accepts, with every family present and positive rates.
func TestMeasureAndCheck(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")

	var stdout, stderr bytes.Buffer
	code := run([]string{"-out", out, "-branches", "5000", "-warmup", "1000"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("measure: code %d, stderr %q", code, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc Doc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != BenchSchema || doc.Branches != 5000 || len(doc.Results) != len(families)+1 {
		t.Fatalf("document: %+v", doc)
	}
	last := doc.Results[len(doc.Results)-1]
	if last.Family != sessionFamily || last.VsBatchPct == 0 {
		t.Errorf("streamed-session family missing or uncompared: %+v", last)
	}
	for _, r := range doc.Results {
		if r.BranchesPerSc <= 0 {
			t.Errorf("family %s measured %v branches/s", r.Family, r.BranchesPerSc)
		}
		if r.Verdict != "" {
			t.Errorf("family %s has verdict %q without -compare", r.Family, r.Verdict)
		}
	}
	if doc.Machine == nil {
		t.Fatal("document missing the machine fingerprint")
	}
	if doc.Machine.NumCPU <= 0 || doc.Machine.GOMAXPROCS <= 0 || doc.Machine.GoVersion == "" {
		t.Errorf("machine fingerprint incomplete: %+v", doc.Machine)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-check", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("check: code %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "ok") {
		t.Errorf("check output %q", stdout.String())
	}
}

// TestCheckRejectsBadDocuments: corrupt, wrong-schema, zeroed and
// incomplete documents all fail -check with a diagnostic.
func TestCheckRejectsBadDocuments(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name string
		path string
	}{
		{"missing", filepath.Join(dir, "absent.json")},
		{"garbage", write("garbage.json", "not json")},
		{"wrong schema", write("schema.json", `{"schema":"other/9","branches_per_iter":1,"results":[]}`)},
		{"zero branches", write("zero.json", `{"schema":"llbp-bench/1","branches_per_iter":0,"results":[]}`)},
		{"missing family", write("partial.json",
			`{"schema":"llbp-bench/1","branches_per_iter":100,"results":[{"family":"tage","iterations":1,"ns_per_op":5,"branches_per_sec":9.9}]}`)},
		{"zero rate", write("rate.json",
			`{"schema":"llbp-bench/1","branches_per_iter":100,"results":[{"family":"tage","iterations":1,"ns_per_op":5,"branches_per_sec":0}]}`)},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-check", tc.path}, &stdout, &stderr); code != 1 {
			t.Errorf("%s: code %d, want 1 (stderr %q)", tc.name, code, stderr.String())
		}
	}
}

// TestUsageErrors: flag misuse exits 2.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-no-such-flag"},
		{"-out", "x.json", "-branches", "100", "-warmup", "100"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("args %v: code %d, want 2", args, code)
		}
	}
}

// writeBaseline synthesizes a valid baseline document with the given
// per-family branches/s rate — session family included, mirroring
// BENCH_7-era documents.
func writeBaseline(t *testing.T, dir string, rate float64) string {
	t.Helper()
	doc := Doc{Schema: BenchSchema, Workload: "Tomcat", Branches: 2000}
	for _, fam := range families {
		doc.Results = append(doc.Results, Result{
			Family: fam.name, Iterations: 1, NsPerOp: 1, BranchesPerSc: rate,
		})
	}
	doc.Results = append(doc.Results, Result{
		Family: sessionFamily, Iterations: 1, NsPerOp: 1, BranchesPerSc: rate,
	})
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestComparePass: against a trivially slow baseline the gate passes and
// the written document carries baseline rates and positive deltas.
func TestComparePass(t *testing.T) {
	dir := t.TempDir()
	baseline := writeBaseline(t, dir, 1) // 1 branch/s: any real machine beats it
	out := filepath.Join(dir, "next.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-compare", baseline, "-out", out, "-branches", "2000", "-warmup", "500"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("compare: code %d, stderr %q", code, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc Doc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.BaselineFile != baseline {
		t.Errorf("baseline_file = %q, want %q", doc.BaselineFile, baseline)
	}
	if doc.TolerancePct != 5.0 {
		t.Errorf("tolerance_pct = %v, want the default 5.0", doc.TolerancePct)
	}
	for _, r := range doc.Results {
		if r.BaselineBranchesPerSec != 1 || r.DeltaPct <= 0 {
			t.Errorf("family %s: baseline %v delta %v", r.Family, r.BaselineBranchesPerSec, r.DeltaPct)
		}
		if r.Verdict != "ok" {
			t.Errorf("family %s: verdict %q, want \"ok\"", r.Family, r.Verdict)
		}
	}
}

// TestCompareRegressionFails: an impossibly fast baseline trips the
// tolerance gate (exit 1) but the -out document is still written — the
// trajectory artifact must survive a failing gate.
func TestCompareRegressionFails(t *testing.T) {
	dir := t.TempDir()
	baseline := writeBaseline(t, dir, 1e15) // no machine reaches this
	out := filepath.Join(dir, "next.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-compare", baseline, "-out", out, "-branches", "2000", "-warmup", "500"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("compare vs impossible baseline: code %d, want 1 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "regression beyond") {
		t.Errorf("stderr %q lacks the regression verdict", stderr.String())
	}
	var doc Doc
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("document not written on failing gate: %v", err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, r := range doc.Results {
		if r.DeltaPct >= 0 {
			t.Errorf("family %s: delta %v, want negative", r.Family, r.DeltaPct)
		}
		if r.Verdict != "regression" {
			t.Errorf("family %s: verdict %q, want \"regression\"", r.Family, r.Verdict)
		}
	}
}

// TestCompareAbsentFamilyBaseline: a BENCH_6-era baseline that predates
// the session family still parses and gates — the new family inherits
// its own fresh rate as a first baseline ("inherited-baseline") instead
// of failing the run or staying unaccountable forever.
func TestCompareAbsentFamilyBaseline(t *testing.T) {
	dir := t.TempDir()
	doc := Doc{Schema: BenchSchema, Workload: "Tomcat", Branches: 2000}
	for _, fam := range families {
		doc.Results = append(doc.Results, Result{
			Family: fam.name, Iterations: 1, NsPerOp: 1, BranchesPerSc: 1,
		})
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	baseline := filepath.Join(dir, "bench6-era.json")
	if err := os.WriteFile(baseline, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "next.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-compare", baseline, "-out", out, "-branches", "2000", "-warmup", "500"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("compare vs pre-session baseline: code %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "absent from baseline") {
		t.Errorf("stderr %q lacks the inherited-baseline notice", stderr.String())
	}
	var got Doc
	rawOut, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rawOut, &got); err != nil {
		t.Fatal(err)
	}
	for _, r := range got.Results {
		want := "ok"
		if r.Family == sessionFamily {
			want = "inherited-baseline"
			if r.BaselineBranchesPerSec != r.BranchesPerSc {
				t.Errorf("family %s: inherited baseline %v, want own rate %v",
					r.Family, r.BaselineBranchesPerSec, r.BranchesPerSc)
			}
		}
		if r.Verdict != want {
			t.Errorf("family %s: verdict %q, want %q", r.Family, r.Verdict, want)
		}
	}
}

// TestCompareUsage: -compare without -out and -compare with -check are
// usage errors; a bad baseline is a runtime error.
func TestCompareUsage(t *testing.T) {
	dir := t.TempDir()
	baseline := writeBaseline(t, dir, 1)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", baseline}, &stdout, &stderr); code != 2 {
		t.Errorf("-compare without -out: code %d, want 2", code)
	}
	if code := run([]string{"-compare", baseline, "-check", baseline}, &stdout, &stderr); code != 2 {
		t.Errorf("-compare with -check: code %d, want 2", code)
	}
	if code := run([]string{"-compare", filepath.Join(dir, "absent.json"), "-out", "-"}, &stdout, &stderr); code != 1 {
		t.Errorf("missing baseline: code %d, want 1", code)
	}
}

// TestCPUProfileArtifact: -cpuprofile writes a non-empty profile of the
// llbp family's measurement alongside the document.
func TestCPUProfileArtifact(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "llbp.prof")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-out", filepath.Join(dir, "bench.json"), "-branches", "2000", "-warmup", "500", "-cpuprofile", prof}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run with -cpuprofile: code %d, stderr %q", code, stderr.String())
	}
	info, err := os.Stat(prof)
	if err != nil {
		t.Fatalf("profile not written: %v", err)
	}
	if info.Size() == 0 {
		t.Error("profile file is empty")
	}
}
