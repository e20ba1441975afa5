package experiments

import (
	"fmt"
	"testing"

	"llbp/internal/faults"
	"llbp/internal/workload"
)

// softErrHarness runs the study workload at the standard sweep budgets
// (the ones the rate axis is tuned for) with parallel cells.
func softErrHarness(t *testing.T) *Harness {
	t.Helper()
	tomcat, err := workload.ByName("Tomcat")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Workloads = []*workload.Source{tomcat}
	cfg.Parallelism = 4
	return NewHarness(cfg)
}

// TestSoftErrorStudyShape runs the full study and checks the acceptance
// properties: MPKI is monotone non-decreasing in the fault rate for every
// protection mode, parity detect-and-reset degrades more gracefully than
// unprotected at the highest rate, and ECC pins the fault-free MPKI. All
// fault schedules are seeded, so these are deterministic, not flaky.
func TestSoftErrorStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-budget study; skipped in -short")
	}
	if raceEnabled {
		t.Skip("full-budget study; too slow under the race detector (concurrency is covered by TestPrewarmParallel)")
	}
	h := softErrHarness(t)
	tables, err := SoftErrorStudy(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("want MPKI + flip-stats tables, got %d", len(tables))
	}
	mpki := tables[0]
	if len(mpki.Rows) != 6 { // 2 designs × 3 protections
		t.Fatalf("MPKI rows = %d, want 6", len(mpki.Rows))
	}
	atMax := map[string]map[string]float64{} // design → protection → MPKI at top rate
	for _, row := range mpki.Rows {
		design, prot := row[0], row[1]
		var vals []float64
		for _, cell := range row[2:] {
			var v float64
			if _, err := fmt.Sscanf(cell, "%g", &v); err != nil {
				t.Fatalf("%s/%s: unparseable MPKI cell %q", design, prot, cell)
			}
			vals = append(vals, v)
		}
		for i := 1; i < len(vals); i++ {
			if vals[i] < vals[i-1]-1e-9 {
				t.Errorf("%s/%s: MPKI not monotone: %v", design, prot, vals)
			}
		}
		if prot == "ecc" {
			for i := 1; i < len(vals); i++ {
				if vals[i] != vals[0] {
					t.Errorf("%s/ecc: MPKI moved under ECC: %v", design, vals)
				}
			}
		}
		if atMax[design] == nil {
			atMax[design] = map[string]float64{}
		}
		atMax[design][prot] = vals[len(vals)-1]
	}
	for design, byProt := range atMax {
		if byProt["parity"] >= byProt["none"] {
			t.Errorf("%s: parity (%.3f) must degrade more gracefully than unprotected (%.3f)",
				design, byProt["parity"], byProt["none"])
		}
		if byProt["ecc"] >= byProt["parity"] {
			t.Errorf("%s: ECC (%.3f) must beat parity (%.3f)", design, byProt["ecc"], byProt["parity"])
		}
	}
	// The flip-stats table must show nonzero injection for every row.
	for _, row := range tables[1].Rows {
		if row[2] == "0" {
			t.Errorf("%s/%s: no flips injected at max rate", row[0], row[1])
		}
	}
}

// TestRunFaultedDeterministic: identical fault specs reproduce identical
// results across fresh harnesses; a different seed changes the schedule.
func TestRunFaultedDeterministic(t *testing.T) {
	tomcat, err := workload.ByName("Tomcat")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Warmup: 5_000, Measure: 20_000,
		SweepWarmup: 5_000, SweepMeasure: 20_000,
		Workloads: []*workload.Source{tomcat},
	}
	fs := FaultSpec{Rate: 300_000, Protection: faults.ProtectNone, Seed: 42}
	run := func(fs FaultSpec) *RunOutput {
		out, err := NewHarness(cfg).RunFaulted(tomcat, Spec64K(), fs)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(fs), run(fs)
	if a.Res.MPKI != b.Res.MPKI || a.Faults != b.Faults {
		t.Errorf("same fault spec diverged: %.6f/%+v vs %.6f/%+v",
			a.Res.MPKI, a.Faults, b.Res.MPKI, b.Faults)
	}
	if !a.HasFaults || a.Faults.Flips == 0 {
		t.Errorf("expected injected flips, got %+v", a.Faults)
	}
	fs2 := fs
	fs2.Seed = 43
	if c := run(fs2); c.Res.MPKI == a.Res.MPKI && c.Faults == a.Faults {
		t.Error("different seed produced identical run (suspicious)")
	}
}

// TestRunFaultedRequiresSurface: predictors without a fault surface fail
// cleanly instead of panicking.
func TestRunFaultedRequiresSurface(t *testing.T) {
	tomcat, err := workload.ByName("Tomcat")
	if err != nil {
		t.Fatal(err)
	}
	h := NewHarness(Config{
		Warmup: 1_000, Measure: 2_000,
		SweepWarmup: 1_000, SweepMeasure: 2_000,
		Workloads: []*workload.Source{tomcat},
	})
	_, err = h.RunFaulted(tomcat, specFactories["gshare"](), FaultSpec{Rate: 1000})
	if err == nil {
		t.Fatal("gshare has no fault surface; RunFaulted must error")
	}
}
