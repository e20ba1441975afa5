package experiments

import (
	"strings"
	"testing"

	"llbp/internal/report"
	"llbp/internal/workload"
)

func TestRegistryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	// Every figure and table of the evaluation must be present.
	for _, id := range []string{
		"table1", "table2", "table3", "fig1", "fig2", "fig3a", "fig3b",
		"fig5", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "ablation", "softerror", "extdelay", "extgate", "extbaselines", "extscale",
	} {
		if !seen[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
}

func TestByID(t *testing.T) {
	all, err := ByID("all")
	if err != nil || len(all) != len(Registry()) {
		t.Errorf("ByID(all) = %d, %v", len(all), err)
	}
	two, err := ByID("fig9, fig10")
	if err != nil || len(two) != 2 {
		t.Fatalf("ByID pair failed: %v", err)
	}
	if two[0].ID != "fig9" || two[1].ID != "fig10" {
		t.Error("ByID order must follow the request")
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id must error")
	}
}

// tinyHarness runs two workloads at very small budgets: enough to
// exercise every code path quickly.
func tinyHarness(t *testing.T) *Harness {
	t.Helper()
	kafka, err := workload.ByName("Kafka")
	if err != nil {
		t.Fatal(err)
	}
	tomcat, err := workload.ByName("Tomcat")
	if err != nil {
		t.Fatal(err)
	}
	return NewHarness(Config{
		Warmup:       10_000,
		Measure:      40_000,
		SweepWarmup:  5_000,
		SweepMeasure: 20_000,
		Workloads:    []*workload.Source{kafka, tomcat},
	})
}

// parallelTinyHarness is tinyHarness with a 4-wide admission gate.
func parallelTinyHarness(t *testing.T) *Harness {
	t.Helper()
	base := tinyHarness(t)
	cfg := base.Cfg
	cfg.Parallelism = 4
	return NewHarness(cfg)
}

func TestRunMemoization(t *testing.T) {
	h := tinyHarness(t)
	wl := h.Cfg.workloads()[0]
	a, err := h.Run(wl, Spec64K())
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Run(wl, Spec64K())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical runs must be memoized")
	}
	c, err := h.RunSweep(wl, Spec64K())
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different budgets must not share cache entries")
	}
}

// TestPrewarmParallel fans the full (workload × spec) grid out through
// the harness admission gate and checks the cells land in the memo cache;
// run under -race this is the concurrency regression test for the
// singleflight + runner plumbing.
func TestPrewarmParallel(t *testing.T) {
	h := parallelTinyHarness(t)
	specs := []PredictorSpec{Spec64K(), SpecInfTAGE(), SpecLLBPDefault()}
	if errs := h.Prewarm(h.Cfg.workloads(), specs); len(errs) != 0 {
		t.Fatalf("prewarm failed: %v", errs)
	}
	// Every cell must now be a cache hit returning the same pointer.
	for _, wl := range h.Cfg.workloads() {
		for _, spec := range specs {
			a, err := h.Run(wl, spec)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := h.Run(wl, spec)
			if a != b {
				t.Errorf("%s/%s not memoized after prewarm", wl.Name(), spec.Key)
			}
		}
	}
}

// TestConcurrentSameCellSingleflight requests one cell from many
// goroutines; all must get the same output pointer (computed once).
func TestConcurrentSameCellSingleflight(t *testing.T) {
	h := parallelTinyHarness(t)
	wl := h.Cfg.workloads()[0]
	outs := make([]*RunOutput, 8)
	errs := make([]error, 8)
	done := make(chan int, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			outs[i], errs[i] = h.Run(wl, Spec64K())
			done <- i
		}(i)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	for i := 1; i < 8; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if outs[i] != outs[0] {
			t.Error("concurrent identical cells must be deduplicated")
		}
	}
}

func TestStaticExperiments(t *testing.T) {
	h := tinyHarness(t)
	for _, id := range []string{"table2", "table3"} {
		exps, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tables, err := exps[0].Run(h)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
	}
}

func TestTable1RunsOnHarnessWorkloads(t *testing.T) {
	h := tinyHarness(t)
	tables, err := Table1(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 2 {
		t.Errorf("Table1 rows = %d, want the 2 harness workloads", len(tables[0].Rows))
	}
}

// TestFig9EndToEnd is the deepest integration test: four predictor
// configurations on two workloads, checking the table shape and that the
// reduction columns parse.
func TestFig9EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	h := tinyHarness(t)
	tables, err := Fig9(h)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 3 { // 2 workloads + mean
		t.Fatalf("Fig9 rows = %d", len(rows))
	}
	if rows[2][0] != "Mean" {
		t.Error("last row must be the mean")
	}
}

func TestFig15EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	h := tinyHarness(t)
	tables, err := Fig15(h)
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, r := range tables[0].Rows {
		labels = append(labels, r[0])
	}
	joined := strings.Join(labels, "|")
	for _, want := range []string{"No Override", "Both Correct", "Good Override", "Bad Override"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Fig15 missing category %q", want)
		}
	}
}

func TestTable3MatchesEnergyModel(t *testing.T) {
	h := tinyHarness(t)
	tables, err := Table3(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 5 {
		t.Errorf("Table3 rows = %d, want 5", len(tables[0].Rows))
	}
}

// TestAllExperimentsRun executes every registered experiment at micro
// budgets — the regression net guaranteeing each figure/table stays
// regenerable end to end.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry; skipped in -short")
	}
	h := tinyHarness(t)
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(h)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Errorf("%s: table %q has no rows", e.ID, tab.Title)
				}
				if tab.Title == "" {
					t.Errorf("%s: untitled table", e.ID)
				}
			}
		})
	}
}

func TestChartHelper(t *testing.T) {
	tab := Must2(Table3(tinyHarness(t)))
	c := Chart(tab[0])
	if c == nil || len(c.Values) < 2 {
		t.Fatal("Table3 must chart")
	}
	empty := Chart(&report.Table{Header: []string{"a", "b"}})
	if empty != nil {
		t.Error("tables without numeric rows must not chart")
	}
}

// Must2 unwraps a (tables, error) pair in tests.
func Must2(tables []*report.Table, err error) []*report.Table {
	if err != nil {
		panic(err)
	}
	return tables
}
