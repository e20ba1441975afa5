package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llbp/internal/telemetry"
	"llbp/internal/trace"
	"llbp/internal/workload"
)

func runInfo(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// writeTrace materializes a small workload prefix as a trace file.
func writeTrace(t *testing.T, path string, branches uint64) {
	t.Helper()
	src, err := workload.ByName("Tomcat")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f, src.Name())
	if err != nil {
		t.Fatal(err)
	}
	r := &trace.LimitReader{R: src.Open(), Max: branches}
	var b trace.Branch
	for {
		if err := r.Read(&b); err != nil {
			if trace.IsEOF(err) {
				break
			}
			t.Fatal(err)
		}
		if err := w.Write(&b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// tomcatSites counts the distinct (PC, target, type) sites in Tomcat's
// first n branches.
func tomcatSites(t *testing.T, n uint64) int {
	t.Helper()
	src, err := workload.ByName("Tomcat")
	if err != nil {
		t.Fatal(err)
	}
	type site struct {
		pc, target uint64
		typ        trace.BranchType
	}
	seen := map[site]bool{}
	r := &trace.LimitReader{R: src.Open(), Max: n}
	var b trace.Branch
	for r.Read(&b) == nil {
		seen[site{b.PC, b.Target, b.Type}] = true
	}
	return len(seen)
}

// TestInfoSummarizesFileAndWorkload: both input modes produce the text
// report, and -metrics writes a valid llbp-metrics/1 document.
func TestInfoSummarizesFileAndWorkload(t *testing.T) {
	dir := t.TempDir()
	trc := filepath.Join(dir, "tomcat.llbptrc")
	writeTrace(t, trc, 5_000)

	code, out, errb := runInfo(t, trc)
	if code != 0 {
		t.Fatalf("file mode: code %d, stderr %q", code, errb)
	}
	if !strings.Contains(out, "branches:        5000") {
		t.Errorf("file summary %q lacks branch count", out)
	}

	mFile := filepath.Join(dir, "metrics.json")
	code, out, errb = runInfo(t, "-workload", "Tomcat", "-branches", "5000", "-metrics", mFile)
	if code != 0 {
		t.Fatalf("workload mode: code %d, stderr %q", code, errb)
	}
	if !strings.Contains(out, "workload:        Tomcat") {
		t.Errorf("workload summary %q", out)
	}
	if !strings.Contains(out, "trace cache:") {
		t.Errorf("workload summary %q lacks cache statistics", out)
	}
	raw, err := os.ReadFile(mFile)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := telemetry.ReadMetricsFile(raw)
	if err != nil || len(mf.Runs) != 2 || mf.Runs[0].Workload != "Tomcat" {
		t.Fatalf("metrics document: %+v, %v", mf, err)
	}
	// Workload mode replays through the materialized-trace cache and
	// appends its statistics as a final snapshot. The cache stores a
	// 4-byte record per branch plus a 24-byte entry per distinct (PC,
	// target, type) site (the trace/cache package doc).
	cc := mf.Runs[1]
	if cc.Workload != "trace-cache" {
		t.Fatalf("last run = %q, want trace-cache", cc.Workload)
	}
	want := 5_000*4 + 24*tomcatSites(t, 5_000)
	if cc.Metrics.Counters["trace_cache_misses"] != 1 ||
		cc.Metrics.Gauges["trace_cache_bytes_resident"] != float64(want) {
		t.Errorf("cache metrics: %+v, want %d bytes resident", cc.Metrics, want)
	}

	// With caching disabled the summary and metrics lose the cache
	// section but the workload numbers are unchanged.
	code, out2, errb := runInfo(t, "-workload", "Tomcat", "-branches", "5000", "-trace-cache-mb", "0")
	if code != 0 {
		t.Fatalf("uncached workload mode: code %d, stderr %q", code, errb)
	}
	if strings.Contains(out2, "trace cache:") {
		t.Errorf("uncached summary still reports cache statistics: %q", out2)
	}
	if !strings.Contains(out2, "branches:        5000") {
		t.Errorf("uncached summary %q lacks branch count", out2)
	}
}

// TestInfoErrors: unreadable inputs, bad workloads, unwritable -metrics
// paths and empty invocations exit non-zero with one-line diagnostics.
func TestInfoErrors(t *testing.T) {
	dir := t.TempDir()
	trc := filepath.Join(dir, "ok.llbptrc")
	writeTrace(t, trc, 100)
	garbage := filepath.Join(dir, "garbage.llbptrc")
	if err := os.WriteFile(garbage, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"no input", nil, 2},
		{"bad flag", []string{"-no-such-flag"}, 2},
		{"missing file", []string{filepath.Join(dir, "absent.llbptrc")}, 1},
		{"corrupt file", []string{garbage}, 1},
		{"unknown workload", []string{"-workload", "NoSuchWorkload"}, 1},
		{"unwritable metrics", []string{"-metrics", filepath.Join(dir, "nodir", "m.json"), trc}, 1},
	}
	for _, tc := range cases {
		code, _, errb := runInfo(t, tc.args...)
		if code != tc.code {
			t.Errorf("%s: code %d, want %d (stderr %q)", tc.name, code, tc.code, errb)
		}
		if strings.Contains(errb, "goroutine ") {
			t.Errorf("%s: stack trace leaked: %q", tc.name, errb)
		}
	}
}
