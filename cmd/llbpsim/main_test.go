package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llbp/internal/experiments"
	"llbp/internal/trace"
)

// runCLI invokes run with captured output.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("run(%v) panicked: %v", args, r)
		}
	}()
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

// oneLine asserts stderr holds exactly one line of diagnostics.
func oneLine(t *testing.T, stderr string) {
	t.Helper()
	trimmed := strings.TrimRight(stderr, "\n")
	if trimmed == "" || strings.Contains(trimmed, "\n") {
		t.Errorf("want exactly one error line, got %q", stderr)
	}
	if strings.Contains(stderr, "goroutine") {
		t.Errorf("stderr looks like a panic trace: %q", stderr)
	}
}

func TestCorruptTraceBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.llbptrc")
	if err := os.WriteFile(path, []byte("NOTATRACEFILE###"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI(t, "-trace", path)
	if code == 0 {
		t.Error("bad magic must exit non-zero")
	}
	oneLine(t, stderr)
	if !strings.Contains(stderr, "magic") {
		t.Errorf("error should mention the bad magic: %q", stderr)
	}
}

func TestCorruptTraceTruncatedHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trunc.llbptrc")
	// Valid magic, then the stream ends mid-header (name length says 200
	// bytes but none follow).
	if err := os.WriteFile(path, append([]byte("LLBPTRC1"), 200), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI(t, "-trace", path)
	if code == 0 {
		t.Error("truncated header must exit non-zero")
	}
	oneLine(t, stderr)
}

func TestCorruptTraceTruncatedRecords(t *testing.T) {
	// A valid header followed by too few records for the requested
	// budgets: the simulator must report the short stream, not panic.
	path := filepath.Join(t.TempDir(), "short.llbptrc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f, "short")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b := trace.Branch{PC: uint64(0x1000 + i*4), Target: 0x2000, Type: trace.CondDirect, Taken: true, Instructions: 5}
		if err := w.Write(&b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI(t, "-trace", path, "-warmup", "100", "-measure", "1000")
	if code == 0 {
		t.Error("short stream must exit non-zero")
	}
	oneLine(t, stderr)
	if !strings.Contains(stderr, "ended after") {
		t.Errorf("error should report the short stream: %q", stderr)
	}
}

func TestMissingTraceFile(t *testing.T) {
	code, _, stderr := runCLI(t, "-trace", filepath.Join(t.TempDir(), "nope.llbptrc"))
	if code == 0 {
		t.Error("missing file must exit non-zero")
	}
	oneLine(t, stderr)
}

func TestUnknownPredictor(t *testing.T) {
	code, _, stderr := runCLI(t, "-predictor", "oracle", "-workload", "Tomcat")
	if code == 0 {
		t.Error("unknown predictor must exit non-zero")
	}
	oneLine(t, stderr)
	if !strings.Contains(stderr, "oracle") {
		t.Errorf("error should name the predictor: %q", stderr)
	}
}

func TestUnknownWorkload(t *testing.T) {
	code, _, stderr := runCLI(t, "-workload", "NoSuchApp")
	if code == 0 {
		t.Error("unknown workload must exit non-zero")
	}
	oneLine(t, stderr)
}

func TestHappyPathSmallRun(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-workload", "Tomcat", "-warmup", "1000", "-measure", "5000")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "Tomcat") {
		t.Errorf("stdout missing result row: %q", stdout)
	}
}

// TestEveryRegisteredPredictor: -predictor accepts every registered spec
// key, and names case-insensitively.
func TestEveryRegisteredPredictor(t *testing.T) {
	for _, name := range append(experiments.SpecKeys(), "LLBP") {
		code, stdout, stderr := runCLI(t, "-predictor", name, "-workload", "Tomcat", "-warmup", "1000", "-measure", "2000")
		if code != 0 {
			t.Errorf("-predictor %s: exit %d, stderr: %s", name, code, stderr)
			continue
		}
		if !strings.Contains(stdout, "\nTomcat ") {
			t.Errorf("-predictor %s: stdout missing result row: %q", name, stdout)
		}
	}
}
