package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llbp/internal/lint"
)

// writeTempModule lays out a throwaway module for driver-level tests
// that need to mutate files.
func writeTempModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module fixturemod\n\ngo 1.24\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRunCleanRepo drives the whole pipeline — go list, export-data
// import, type checking, every analyzer, the dead-allow check — over the
// whole module and requires a clean exit with nothing printed. This is
// the same zero-finding rule CI's lint job enforces on every push.
func TestRunCleanRepo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", "../..", "./..."}, &stdout, &stderr)
	if code != 0 || stdout.Len() != 0 || stderr.Len() != 0 {
		t.Fatalf("run exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
}

func TestRunJSONFindings(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", "../../internal/lint/testdata/src/lib", "-json", "."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("run on fixture exited %d, want 1 (findings)\nstderr:\n%s", code, stderr.String())
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("parsing -json output: %v\n%s", err, stdout.String())
	}
	if len(diags) == 0 {
		t.Fatal("no diagnostics decoded from fixture package")
	}
	for _, d := range diags {
		if d.Analyzer != "nopanic" {
			t.Errorf("unexpected analyzer %q in lib fixture: %s", d.Analyzer, d.Message)
		}
		if d.File == "" || d.Line == 0 {
			t.Errorf("diagnostic missing position: %+v", d)
		}
	}
}

// TestRunList prints one line per analyzer of the suite.
func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run -list exited %d", code)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != len(lint.All()) {
		t.Fatalf("-list printed %d lines for %d analyzers:\n%s", len(lines), len(lint.All()), stdout.String())
	}
	for i, a := range lint.All() {
		if !strings.HasPrefix(lines[i], a.Name+" ") {
			t.Errorf("-list line %d = %q, want analyzer %q", i, lines[i], a.Name)
		}
	}
}

func TestRunBadPattern(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", "../..", "./does/not/exist"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run on bad pattern exited %d, want 2", code)
	}
}

// TestRunDeadAllow verifies the driver fails on a justified suppression
// whose diagnostic no longer fires.
func TestRunDeadAllow(t *testing.T) {
	dir := writeTempModule(t, map[string]string{
		"dead.go": `package fixturemod

func F() int {
	//llbplint:allow nopanic -- this used to guard a panic that was since removed
	return 1
}
`,
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir, "."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("run with dead allow exited %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "stale allow directive") {
		t.Errorf("output does not flag the stale directive:\n%s", stdout.String())
	}
}

// TestRunFixMapRange drives the autofix end to end: -diff previews the
// sorted-keys rewrite without touching the file, -fix applies it, and
// the re-run comes back clean.
func TestRunFixMapRange(t *testing.T) {
	src := `package fixturemod

import "fmt"

func Dump(m map[string]int) {
	for k := range m {
		fmt.Println(k, m[k])
	}
}
`
	dir := writeTempModule(t, map[string]string{"dump.go": src})
	file := filepath.Join(dir, "dump.go")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-diff", "."}, &stdout, &stderr); code != 0 {
		t.Fatalf("-diff exited %d\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "slices.Sorted(maps.Keys(m))") {
		t.Fatalf("-diff patch missing the sorted-keys rewrite:\n%s", stdout.String())
	}
	if data, _ := os.ReadFile(file); string(data) != src {
		t.Fatal("-diff modified the file; it must be a dry run")
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-C", dir, "-fix", "."}, &stdout, &stderr); code != 0 {
		t.Fatalf("-fix exited %d\nstderr:\n%s", code, stderr.String())
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	fixed := string(data)
	for _, want := range []string{"slices.Sorted(maps.Keys(m))", `"maps"`, `"slices"`} {
		if !strings.Contains(fixed, want) {
			t.Errorf("fixed file missing %q:\n%s", want, fixed)
		}
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-C", dir, "."}, &stdout, &stderr); code != 0 {
		t.Fatalf("re-run after -fix exited %d; the rewrite should satisfy the analyzer\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
}

// TestRunJSONPath checks that a program-analyzer finding surfaces its
// interprocedural evidence chain through -json.
func TestRunJSONPath(t *testing.T) {
	dir := writeTempModule(t, map[string]string{
		"pathy.go": `package fixturemod

import "time"

// record persists a replay artifact.
//
//llbplint:sink -- recorded values are compared byte-for-byte across runs
func record(at time.Time) { _ = at }

func emit() {
	now := time.Now()
	record(now)
}
`,
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir, "-json", "."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("run exited %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	var diags []jsonDiagnostic
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("parsing -json output: %v\n%s", err, stdout.String())
	}
	found := false
	for _, d := range diags {
		if d.Analyzer != "detflow" {
			continue
		}
		found = true
		if len(d.Path) < 2 {
			t.Fatalf("detflow finding carries %d path steps, want >=2: %+v", len(d.Path), d)
		}
		if !strings.Contains(d.Path[0].Note, "source") {
			t.Errorf("path does not start at a source: %q", d.Path[0].Note)
		}
		if !strings.Contains(d.Path[len(d.Path)-1].Note, "sink") {
			t.Errorf("path does not end at a sink: %q", d.Path[len(d.Path)-1].Note)
		}
	}
	if !found {
		t.Fatal("no detflow finding in -json output")
	}
}
