package experiments

import (
	"fmt"

	"llbp/internal/core"
	"llbp/internal/report"
	"llbp/internal/stats"
)

// extDelays is the access-delay axis of the storage-virtualization study.
var extDelays = []float64{0, 2, 6, 12, 16, 24, 48}

// ExtDelay explores the §V-A future-work direction the paper leaves open:
// virtualizing LLBP's bulk storage into the cache hierarchy. The key
// question is how sensitive LLBP's gain is to the pattern-set access
// latency — a dedicated array costs ~6 cycles, an L2-resident one ~16, an
// L3-resident one tens. The sweep runs the evaluated design with
// increasing access delays at the default prefetch distance (D=4) and at
// the doubled distance (D=8) that buys the prefetcher more lead time.
func ExtDelay(h *Harness) ([]*report.Table, error) {
	t := report.New("Extension: storage-virtualization latency sensitivity — mean MPKI reduction [%]",
		"prefetch-distance", "d0cyc", "d2cyc", "d6cyc", "d12cyc", "d16cyc", "d24cyc", "d48cyc")
	for _, d := range []int{4, 8} {
		row := []interface{}{fmt.Sprintf("D=%d", d)}
		for _, delay := range extDelays {
			cfg := core.DefaultConfig()
			cfg.D = d
			cfg.PrefetchDelay = delay
			cfg.Label = fmt.Sprintf("LLBP-D%d-L%g", d, delay)
			spec := SpecLLBP(fmt.Sprintf("llbp:d=%d,delay=%g", d, delay), cfg)
			var reds []float64
			for _, wl := range h.Cfg.workloads() {
				base, err := h.RunSweep(wl, Spec64K())
				if err != nil {
					return nil, err
				}
				out, err := h.RunSweep(wl, spec)
				if err != nil {
					return nil, err
				}
				reds = append(reds, stats.Reduction(base.Res.MPKI, out.Res.MPKI))
			}
			row = append(row, meanRow(reds))
		}
		t.AddRow(row...)
	}
	t.Caption = "§V-A leaves storage virtualization to future work; the gain must degrade gracefully with latency for it to be viable."
	return []*report.Table{t}, nil
}

// ExtAutoDisable evaluates the §V power optimization: LLBP with the
// auto-disable gate must retain most of the MPKI reduction while skipping
// a meaningful share of LLBP activity on workloads where the baseline is
// already accurate.
func ExtAutoDisable(h *Harness) ([]*report.Table, error) {
	t := report.New("Extension: auto-disable power gate",
		"workload", "llbp-red%", "gated-red%", "disabled-preds-%", "cd-lookups-saved-%")
	var reds, gatedReds, off, saved []float64
	for _, wl := range h.Cfg.workloads() {
		base, err := h.RunSweep(wl, Spec64K())
		if err != nil {
			return nil, err
		}
		llbp, err := h.RunSweep(wl, SpecLLBPDefault())
		if err != nil {
			return nil, err
		}
		gated, err := h.RunSweep(wl, specFactories["llbpgate"]())
		if err != nil {
			return nil, err
		}
		a := stats.Reduction(base.Res.MPKI, llbp.Res.MPKI)
		b := stats.Reduction(base.Res.MPKI, gated.Res.MPKI)
		offPct := float64(gated.LLBP.DisabledPredictions) / float64(gated.LLBP.CondPredictions) * 100
		savedPct := 0.0
		if llbp.LLBP.CDLookups > 0 {
			savedPct = (1 - float64(gated.LLBP.CDLookups)/float64(llbp.LLBP.CDLookups)) * 100
		}
		reds, gatedReds = append(reds, a), append(gatedReds, b)
		off, saved = append(off, offPct), append(saved, savedPct)
		t.AddRow(wl.Name(), a, b, offPct, savedPct)
	}
	t.AddRow("Mean", meanRow(reds), meanRow(gatedReds), meanRow(off), meanRow(saved))
	t.Caption = "§V: \"when the accuracy of TAGE is sufficiently high, LLBP can be disabled to save power\"."
	return []*report.Table{t}, nil
}

// ExtBaselines positions the whole baseline spectrum the paper's related
// work discusses (§VIII) on the Table I workloads: gshare and the
// perceptron (pre-TAGE designs) against 64K TSL and 64K TSL + LLBP. TAGE
// must dominate the single-table and linear predictors on server
// workloads, and LLBP extends TAGE.
func ExtBaselines(h *Harness) ([]*report.Table, error) {
	specs := []PredictorSpec{specFactories["gshare"](), specFactories["perceptron"](), Spec64K(), SpecLLBPDefault()}
	t := report.New("Extension: baseline spectrum — MPKI",
		"workload", "gshare", "perceptron", "64K-TSL", "LLBP")
	cols := make(map[string][]float64, len(specs))
	for _, wl := range h.Cfg.workloads() {
		row := []interface{}{wl.Name()}
		for _, spec := range specs {
			out, err := h.RunSweep(wl, spec)
			if err != nil {
				return nil, err
			}
			cols[spec.Key] = append(cols[spec.Key], out.Res.MPKI)
			row = append(row, out.Res.MPKI)
		}
		t.AddRow(row...)
	}
	t.AddRow("Mean", meanRow(cols["gshare"]), meanRow(cols["perceptron"]),
		meanRow(cols["64k"]), meanRow(cols["llbp"]))
	t.Caption = "TAGE-class designs dominate single-table (gshare) and linear (perceptron) predictors on server workloads; LLBP extends the lead (§VIII)."
	return []*report.Table{t}, nil
}

// extScaleBudgets are the measurement budgets (branches) of the scale
// study.
var extScaleBudgets = []uint64{250_000, 500_000, 1_000_000, 2_000_000}

// ExtScale quantifies how the headline reductions depend on the
// simulation budget — the context working set grows with measured
// branches, so Inf TAGE's capacity gap widens toward the paper's
// 300M-instruction numbers (LLBP's peaks at 1M). This study substantiates
// the scale caveats noted for Figures 13 and 14 (see EXPERIMENTS.md).
func ExtScale(h *Harness) ([]*report.Table, error) {
	wl := h.Cfg.workloads()[0]
	for _, w := range h.Cfg.workloads() {
		if w.Name() == "Tomcat" {
			wl = w
		}
	}
	t := report.New(fmt.Sprintf("Extension: budget sensitivity (%s) — MPKI (reduction vs 64K)", wl.Name()),
		"measured-branches", "64K-TSL", "LLBP", "Inf-TAGE")
	// The warmup is pinned to the headline budget rather than scaled with
	// the row: every budget row then shares one warm prefix per predictor
	// — and shares it with the headline cells — so the whole sweep forks a
	// single warm snapshot per spec instead of rewarming four times.
	warm := h.Cfg.Warmup
	for _, budget := range extScaleBudgets {
		base, err := h.runBudget(wl, Spec64K(), warm, budget)
		if err != nil {
			return nil, err
		}
		llbp, err := h.runBudget(wl, SpecLLBPDefault(), warm, budget)
		if err != nil {
			return nil, err
		}
		inf, err := h.runBudget(wl, SpecInfTAGE(), warm, budget)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(budget),
			fmt.Sprintf("%.3f", base.Res.MPKI),
			fmt.Sprintf("%.3f (%.1f%%)", llbp.Res.MPKI, stats.Reduction(base.Res.MPKI, llbp.Res.MPKI)),
			fmt.Sprintf("%.3f (%.1f%%)", inf.Res.MPKI, stats.Reduction(base.Res.MPKI, inf.Res.MPKI)))
	}
	t.Caption = "Larger budgets grow the context working set; capacity-driven gaps widen accordingly."
	return []*report.Table{t}, nil
}
