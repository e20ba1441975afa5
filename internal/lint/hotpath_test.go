package lint_test

import (
	"strings"
	"testing"

	"llbp/internal/lint"
	"llbp/internal/lint/analysistest"
)

// TestHotpath runs the reachability analyzer over the core+predlib
// fixture pair and the sim fixture: findings at the roots (including
// the shared replay step, sim.Stepper.Step), one hop down, and across
// the package boundary; unreachable allocators and same-named methods on
// other types stay silent; a justified allow suppresses the cold layer.
// Every finding must carry the root→site evidence chain starting at a
// hot-path root.
func TestHotpath(t *testing.T) {
	diags := analysistest.RunProgram(t, "testdata", lint.Hotpath, "core", "predlib", "sim")
	sawCrossPackage := false
	for _, d := range diags {
		if d.Category != "hotpath" {
			continue
		}
		if len(d.Path) == 0 {
			t.Errorf("hotpath finding %q has no evidence path", d.Message)
			continue
		}
		if !strings.Contains(d.Path[0].Note, "hot-path root") {
			t.Errorf("hotpath path does not start at a root: %q", d.Path[0].Note)
		}
		if strings.Contains(d.Message, "predlib.Mix") {
			sawCrossPackage = true
			if len(d.Path) < 3 {
				t.Errorf("cross-package finding %q: path %d steps, want >=3 (root, scan, Mix)", d.Message, len(d.Path))
			}
		}
	}
	if !sawCrossPackage {
		t.Error("no hotpath finding crossed the package boundary into predlib.Mix")
	}
}
