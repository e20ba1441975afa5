package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llbp/internal/experiments"
	"llbp/internal/service"
	"llbp/internal/telemetry"
)

// startService runs a real in-process llbpd (harness + server) and
// returns its address for -server.
func startService(t *testing.T) string {
	t.Helper()
	h := experiments.NewHarness(experiments.Config{Warmup: 1, Measure: 1, Parallelism: 2})
	srv, err := service.New(service.Options{Runner: h, Workers: 2, Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Drain(context.Background())
	})
	return hs.URL
}

// ctl invokes the CLI exactly as a shell would, capturing both streams.
func ctl(t *testing.T, stdin string, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

const cellKey = "Tomcat|64k|1000|10000"

// TestCtlSubmitWatchResults covers the composed pipeline the README
// shows: submit prints a bare job ID on stdout, watch reads it from
// stdin, results dumps the JSON-lines stream.
func TestCtlSubmitWatchResults(t *testing.T) {
	addr := startService(t)
	code, out, errb := ctl(t, "", "-server", addr, "submit", "-cells", cellKey, "-wait")
	if code != 0 {
		t.Fatalf("submit: code %d, stderr %q", code, errb)
	}
	id := strings.TrimSpace(out)
	if !strings.HasPrefix(id, "job-") || strings.ContainsAny(id, " \n") {
		t.Fatalf("submit stdout %q is not a bare job id", out)
	}
	if !strings.Contains(errb, id) || !strings.Contains(errb, "1 cells") {
		t.Errorf("submit stderr %q lacks the status line", errb)
	}

	// watch with the ID piped on stdin — `llbpctl submit | llbpctl watch`.
	code, out, errb = ctl(t, out, "-server", addr, "watch")
	if code != 0 {
		t.Fatalf("watch: code %d, stderr %q", code, errb)
	}
	if !strings.Contains(out, cellKey) || !strings.Contains(out, "done (1 ok, 0 failed)") {
		t.Errorf("watch output %q missing cell/done lines", out)
	}

	resFile := filepath.Join(t.TempDir(), "results.jsonl")
	code, _, errb = ctl(t, "", "-server", addr, "results", "-o", resFile, id)
	if code != 0 {
		t.Fatalf("results: code %d, stderr %q", code, errb)
	}
	raw, err := os.ReadFile(resFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 { // one cell event + done
		t.Fatalf("results file has %d lines: %q", len(lines), raw)
	}
	var ev service.StreamEvent
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil || ev.Type != "cell" || ev.Key != cellKey {
		t.Errorf("first result line %q: %+v, %v", lines[0], ev, err)
	}

	code, out, _ = ctl(t, "", "-server", addr, "status", id)
	if code != 0 || !strings.Contains(out, "done") {
		t.Errorf("status: code %d, out %q", code, out)
	}
	code, out, _ = ctl(t, "", "-server", addr, "health")
	if code != 0 || strings.TrimSpace(out) != "ok" {
		t.Errorf("health: code %d, out %q", code, out)
	}
}

// TestCtlMetrics writes a valid llbp-metrics/1 document — the same bytes
// cmd/telemetrycheck validates in CI.
func TestCtlMetrics(t *testing.T) {
	addr := startService(t)
	mFile := filepath.Join(t.TempDir(), "metrics.json")
	code, _, errb := ctl(t, "", "-server", addr, "metrics", "-o", mFile)
	if code != 0 {
		t.Fatalf("metrics: code %d, stderr %q", code, errb)
	}
	raw, err := os.ReadFile(mFile)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := telemetry.ReadMetricsFile(raw)
	if err != nil || len(mf.Runs) != 1 || mf.Runs[0].Predictor != "llbpd" {
		t.Errorf("metrics document: %+v, %v", mf, err)
	}
}

// TestCtlErrors: bad invocations exit 2 (usage) or 1 (runtime) with a
// one-line message, never a stack trace.
func TestCtlErrors(t *testing.T) {
	addr := startService(t)
	cases := []struct {
		args []string
		code int
	}{
		{[]string{"-server", addr}, 2},                                     // no command
		{[]string{"-server", addr, "frobnicate"}, 2},                       // unknown command
		{[]string{"-server", addr, "submit", "-run", "fig99"}, 1},          // unknown preset
		{[]string{"-server", addr, "submit", "-cells", "not-a-cell"}, 1},   // bad cell key
		{[]string{"-server", addr, "cancel"}, 1},                           // missing id
		{[]string{"-server", addr, "cancel", "job-deadbeef"}, 1},           // unknown id
		{[]string{"-server", "127.0.0.1:1", "health"}, 1},                  // nothing listening
		{[]string{"-server", addr, "submit", "-workloads", "NoSuchWL"}, 1}, // invalid workload
	}
	for _, tc := range cases {
		code, _, errb := ctl(t, "", tc.args...)
		if code != tc.code {
			t.Errorf("%v: code %d, want %d (stderr %q)", tc.args, code, tc.code, errb)
		}
		if strings.Contains(errb, "goroutine ") {
			t.Errorf("%v: stack trace leaked to stderr", tc.args)
		}
	}
}

// TestCtlPresets: every preset expands to a non-empty cross product of
// catalog workloads and registered predictor specs.
func TestCtlPresets(t *testing.T) {
	for name := range presets {
		cells, err := buildCells(name, "", "all", "", 100, 1000)
		if err != nil {
			t.Errorf("preset %s: %v", name, err)
			continue
		}
		if len(cells) == 0 {
			t.Errorf("preset %s expanded to no cells", name)
		}
		for _, cs := range cells {
			if err := cs.Validate(); err != nil {
				t.Errorf("preset %s cell %s: %v", name, cs.Key(), err)
			}
		}
	}
}

// TestCtlMetricsText fetches the Prometheus surface via -text and checks
// it parses back.
func TestCtlMetricsText(t *testing.T) {
	addr := startService(t)
	code, out, errb := ctl(t, "", "-server", addr, "metrics", "-text")
	if code != 0 {
		t.Fatalf("metrics -text: code %d, stderr %q", code, errb)
	}
	doc, err := telemetry.ParsePrometheus([]byte(out))
	if err != nil {
		t.Fatalf("output is not valid Prometheus text: %v\n%s", err, out)
	}
	if doc.Types["service_jobs_submitted"] != "counter" {
		t.Errorf("service_jobs_submitted not declared a counter in %v", doc.Types)
	}
}

// TestCtlTop renders one plain frame against a live daemon and checks
// the operator view carries health, counters and the finished job.
func TestCtlTop(t *testing.T) {
	addr := startService(t)
	code, out, errb := ctl(t, "", "-server", addr, "submit", "-cells", cellKey, "-tenant", "acme", "-wait")
	if code != 0 {
		t.Fatalf("submit: code %d, stderr %q", code, errb)
	}
	id := strings.TrimSpace(out)
	ctl(t, id+"\n", "-server", addr, "watch") // wait for completion

	code, out, errb = ctl(t, "", "-server", addr, "top", "-n", "2", "-interval", "10ms", "-plain")
	if code != 0 {
		t.Fatalf("top: code %d, stderr %q", code, errb)
	}
	for _, want := range []string{"status=ok", "submitted 1", "completed 1", "tenant throughput", "acme"} {
		if !strings.Contains(out, want) {
			t.Errorf("top output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b[") {
		t.Errorf("-plain frame contains ANSI escapes:\n%q", out)
	}
}
