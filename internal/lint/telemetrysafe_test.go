package lint_test

import (
	"testing"

	"llbp/internal/lint"
	"llbp/internal/lint/analysistest"
)

// TestTelemetrySafe covers composite-literal construction and
// name-scheme findings in a consumer package, and the negative case: the
// telemetry package itself is exempt (it builds its own instruments).
// The service/hotpath fixture exercises the service-scope allocation
// rule; its lockorder-prefixed wants (the update-under-held-lock rule
// that moved to the program analyzer) are checked by TestLockorder.
func TestTelemetrySafe(t *testing.T) {
	analysistest.Run(t, "testdata", lint.TelemetrySafe, "app", "telemetry", "service/hotpath")
}
