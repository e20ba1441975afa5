package experiments

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"llbp/internal/core"
	"llbp/internal/gshare"
	"llbp/internal/perceptron"
	"llbp/internal/tage"
	"llbp/internal/workload"
)

// CellSpec is the canonical identity of one simulation cell — the unit of
// scheduling, memoization, journaling and (with the llbpd service) remote
// execution. Its Key() is the harness journal key, so a cell computed by
// any process is interchangeable with the same cell computed by any
// other: local runs, served runs and resumed runs all agree on identity.
type CellSpec struct {
	// Workload is a catalog workload name (workload.ByName).
	Workload string `json:"workload"`
	// Predictor is a registered predictor spec key (SpecByKey).
	Predictor string `json:"predictor"`
	// Warmup and Measure are the branch budgets.
	Warmup  uint64 `json:"warmup"`
	Measure uint64 `json:"measure"`
}

// Key returns the canonical cell key, identical to the key runBudget has
// always journaled under ("workload|predictor|warmup|measure").
func (c CellSpec) Key() string {
	return c.Workload + "|" + c.Predictor + "|" +
		strconv.FormatUint(c.Warmup, 10) + "|" + strconv.FormatUint(c.Measure, 10)
}

// ParseCellKey inverts Key.
func ParseCellKey(key string) (CellSpec, error) {
	parts := strings.Split(key, "|")
	if len(parts) != 4 {
		return CellSpec{}, fmt.Errorf("experiments: cell key %q: want workload|predictor|warmup|measure", key)
	}
	warm, err := strconv.ParseUint(parts[2], 10, 64)
	if err != nil {
		return CellSpec{}, fmt.Errorf("experiments: cell key %q: bad warmup: %w", key, err)
	}
	meas, err := strconv.ParseUint(parts[3], 10, 64)
	if err != nil {
		return CellSpec{}, fmt.Errorf("experiments: cell key %q: bad measure: %w", key, err)
	}
	return CellSpec{Workload: parts[0], Predictor: parts[1], Warmup: warm, Measure: meas}, nil
}

// Validate checks that the cell names a real workload and predictor and
// carries a positive measurement budget.
func (c CellSpec) Validate() error {
	if _, err := workload.ByName(c.Workload); err != nil {
		return err
	}
	if _, err := SpecByKey(c.Predictor); err != nil {
		return err
	}
	if c.Measure == 0 {
		return fmt.Errorf("experiments: cell %s: measure budget must be positive", c.Key())
	}
	return nil
}

// specFactories is the one table of named predictors. Every CLI name,
// job and session cell and bench family resolves through SpecByKey, so
// any journaled or served cell can be re-materialized from its key
// alone. The parameterized points the sweeps build (colon keys such as
// "llbp:pb=16") stay private to those experiments.
var specFactories = map[string]func() PredictorSpec{
	"tage":       func() PredictorSpec { return specOf("tage", tage.New, tage.DefaultConfig()) },
	"64k":        Spec64K,
	"128k":       Spec128K,
	"256k":       Spec256K,
	"512k":       Spec512K,
	"1m":         Spec1M,
	"inftage":    SpecInfTAGE,
	"inftsl":     SpecInfTSL,
	"llbp":       SpecLLBPDefault,
	"llbp0lat":   SpecLLBP0Lat,
	"llbpvirt":   func() PredictorSpec { return SpecLLBP("llbpvirt", core.VirtualizedConfig()) },
	"llbpgate":   func() PredictorSpec { return SpecLLBP("llbpgate", core.AutoDisableConfig()) },
	"gshare":     func() PredictorSpec { return specOf("gshare", gshare.New, gshare.Default()) },
	"perceptron": func() PredictorSpec { return specOf("perceptron", perceptron.New, perceptron.Default()) },
}

// SpecByKey resolves a predictor spec key ("64k", "llbp", ...) to its
// PredictorSpec.
func SpecByKey(key string) (PredictorSpec, error) {
	f, ok := specFactories[key]
	if !ok {
		return PredictorSpec{}, fmt.Errorf("experiments: unknown predictor spec %q (have %v)", key, SpecKeys())
	}
	return f(), nil
}

// SpecKeys returns the registered predictor spec keys, sorted.
func SpecKeys() []string {
	out := make([]string, 0, len(specFactories))
	for k := range specFactories {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// RunCell executes one cell identified by spec, memoized and journaled
// like every other cell, under ctx (nil falls back to the harness
// context). It always simulates locally — it is the execution backend the
// llbpd service dispatches to — so a harness configured with a Remote
// runner must not route RunCell back through it.
func (h *Harness) RunCell(ctx context.Context, spec CellSpec) (*RunOutput, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	wl, err := workload.ByName(spec.Workload)
	if err != nil {
		return nil, err
	}
	ps, err := SpecByKey(spec.Predictor)
	if err != nil {
		return nil, err
	}
	meta := map[string]string{"workload": spec.Workload, "predictor": spec.Predictor}
	return h.runCell(ctx, spec.Key(), meta, func(ctx context.Context) (*RunOutput, error) {
		return h.simulate(ctx, wl, ps, spec.Warmup, spec.Measure, nil)
	})
}
