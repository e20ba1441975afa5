package tage

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"llbp/internal/trace"
)

func driveTAGE(p *Predictor, seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(6) == 0 {
			pc := uint64(0x9000 + rng.Intn(32)*0x20)
			p.TrackOther(pc, pc+0x400, trace.Call)
			continue
		}
		pc := uint64(0x4000 + rng.Intn(64)*4)
		taken := rng.Intn(3) != 0
		pred := p.Predict(pc)
		p.Update(pc, taken)
		if pred == taken {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	return out
}

// TestForkEquivalence: fork-then-diverge must match two independently
// warmed twins byte for byte, in both the finite-table and the
// infinite-map organizations (including the allocator's RNG schedule).
func TestForkEquivalence(t *testing.T) {
	const warm, diverge = 6000, 4000
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"finite", DefaultConfig()},
		{"infinite", DefaultConfig().InfiniteConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *Predictor {
				p, err := New(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			parent, twinP, twinC := mk(), mk(), mk()
			driveTAGE(parent, 11, warm)
			driveTAGE(twinP, 11, warm)
			driveTAGE(twinC, 11, warm)

			child := parent.Fork()

			gotP := driveTAGE(parent, 22, diverge)
			wantP := driveTAGE(twinP, 22, diverge)
			gotC := driveTAGE(child, 33, diverge)
			wantC := driveTAGE(twinC, 33, diverge)

			if !bytes.Equal(gotP, wantP) {
				t.Error("parent outcome stream diverged from unforked twin")
			}
			if !bytes.Equal(gotC, wantC) {
				t.Error("child outcome stream diverged from independently warmed twin")
			}
			if !reflect.DeepEqual(parent, twinP) {
				t.Error("parent state not byte-identical to unforked twin")
			}
			if !reflect.DeepEqual(child, twinC) {
				t.Error("child state not byte-identical to independently warmed twin")
			}
		})
	}
}

// TestForkTableLayout: a fork's tables are cut from one backing array of
// its own, laid out as New lays them out: each table starts where the one
// before it ends, with no spare capacity to grow into its neighbour, and
// the fork allocates that array once rather than table by table.
// TestForkEquivalence covers the other half, that training a fork leaves
// the parent unchanged.
func TestForkTableLayout(t *testing.T) {
	fresh := mustNew(t, DefaultConfig())
	parent := mustNew(t, DefaultConfig())
	driveTAGE(parent, 5, 2000)
	child := parent.Fork()
	size := reflect.TypeOf(entry{}).Size()
	addr := func(tbl []entry) uintptr { return reflect.ValueOf(tbl).Pointer() }
	for _, tc := range []struct {
		name string
		p    *Predictor
	}{{"new", fresh}, {"parent", parent}, {"fork", child}} {
		if len(tc.p.tables) != len(fresh.tables) {
			t.Fatalf("%s: %d tables, want %d", tc.name, len(tc.p.tables), len(fresh.tables))
		}
		for i, tbl := range tc.p.tables {
			if len(tbl) != len(fresh.tables[i]) || cap(tbl) != len(tbl) {
				t.Errorf("%s: table %d has len %d cap %d, want both %d", tc.name, i, len(tbl), cap(tbl), len(fresh.tables[i]))
			}
			if i == 0 {
				continue
			}
			if prev := tc.p.tables[i-1]; addr(tbl) != addr(prev)+uintptr(len(prev))*size {
				t.Errorf("%s: table %d does not start where table %d ends", tc.name, i, i-1)
			}
		}
	}
	if addr(child.tables[0]) == addr(parent.tables[0]) {
		t.Error("the fork shares its parent's tables")
	}
	// Besides what the bimodal fork and the engine clone allocate, a fork
	// allocates the predictor, the table headers and one backing array.
	// keep holds the results, so no allocation is optimized away.
	var keep []any
	forkAllocs := testing.AllocsPerRun(10, func() { keep = append(keep[:0], parent.Fork()) })
	partAllocs := testing.AllocsPerRun(10, func() { keep = append(keep[:0], parent.bim.Fork(), parent.eng.Clone()) })
	if forkAllocs != partAllocs+3 {
		t.Errorf("a fork makes %v allocations, want %v (%v for the bimodal and engine copies, plus 3)",
			forkAllocs, partAllocs+3, partAllocs)
	}
}
