package workload

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"llbp/internal/trace"
)

func readN(t *testing.T, r trace.Reader, n int) []trace.Branch {
	t.Helper()
	out := make([]trace.Branch, n)
	for i := range out {
		if err := r.Read(&out[i]); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	return out
}

func TestCatalogHas14Workloads(t *testing.T) {
	cat := Catalog()
	if len(cat) != 14 {
		t.Fatalf("catalog has %d workloads, want 14 (Table I)", len(cat))
	}
	wantOrder := []string{
		"NodeApp", "PHPWiki", "TPCC", "Twitter", "Wikipedia", "Kafka",
		"Spring", "Tomcat", "Chirper", "HTTP", "Charlie", "Delta",
		"Merced", "Whiskey",
	}
	for i, w := range wantOrder {
		if cat[i].Name() != w {
			t.Errorf("catalog[%d] = %s, want %s", i, cat[i].Name(), w)
		}
	}
	if len(ServerWorkloads()) != 10 {
		t.Error("ServerWorkloads must return the ten gem5-style workloads")
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("Tomcat"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("NoSuchThing"); err == nil {
		t.Error("unknown workload must error")
	}
	if len(Names()) != 14 {
		t.Error("Names must list the catalog")
	}
	for i, name := range Names() {
		if s, err := ByName(name); err != nil || s != Catalog()[i] {
			t.Errorf("ByName(%q) = %p, %v; Catalog()[%d] = %p", name, s, err, i, Catalog()[i])
		}
	}
}

// built reports which of srcs have built their program. Callers run it
// with no Source being built concurrently.
func built(srcs []*Source) []bool {
	out := make([]bool, len(srcs))
	for i, s := range srcs {
		out[i] = s.prog != nil
	}
	return out
}

// TestByNameBuildsOnlyItsOwnProgram: a catalog builds no program, a
// lookup builds none, and replaying a workload builds its program alone,
// identical to the one a fresh source of the same params builds.
func TestByNameBuildsOnlyItsOwnProgram(t *testing.T) {
	c := newCatalog()
	s, err := c.byName("Tomcat")
	if err != nil {
		t.Fatal(err)
	}
	if s != c.srcs[7] {
		t.Fatal("byName returned a source outside its catalog")
	}
	want := make([]bool, len(c.srcs))
	if got := built(c.srcs); !slices.Equal(got, want) {
		t.Fatalf("lookup built programs: %v", got)
	}
	got := readN(t, s.Open(), 20_000)
	want[7] = true
	if b := built(c.srcs); !slices.Equal(b, want) {
		t.Fatalf("replaying Tomcat built %v, want only Tomcat", b)
	}
	alone := readN(t, MustNew(s.Params()).Open(), 20_000)
	if !slices.Equal(got, alone) {
		t.Fatal("a program built alone differs from the catalog's")
	}
}

// TestConcurrentByNameBuildsOnce: concurrent lookups and replays of
// every catalog workload, under -race, see one program per source.
func TestConcurrentByNameBuildsOnce(t *testing.T) {
	c := newCatalog()
	const workers = 4
	progs := make([][]*program, workers)
	var wg sync.WaitGroup
	for w := range progs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, name := range c.names() {
				s, err := c.byName(name)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := ByName(name); err != nil {
					t.Error(err)
					return
				}
				s.StaticBranches()
				progs[w] = append(progs[w], s.program())
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, s := range c.srcs {
		for w := range progs {
			if progs[w][i] != s.prog {
				t.Fatalf("%s: worker %d saw program %p, source holds %p", s.Name(), w, progs[w][i], s.prog)
			}
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	for _, wl := range Catalog()[:4] {
		a := readN(t, wl.Open(), 50_000)
		b := readN(t, wl.Open(), 50_000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: replay diverged at %d: %+v vs %+v", wl.Name(), i, a[i], b[i])
			}
		}
	}
}

func TestWorkloadsDiffer(t *testing.T) {
	a := readN(t, Catalog()[0].Open(), 10_000)
	b := readN(t, Catalog()[1].Open(), 10_000)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > len(a)/2 {
		t.Errorf("two catalog workloads share %d/%d records — seeds not differentiating", same, len(a))
	}
}

// TestStreamInvariants checks the paper's measured invariants on every
// catalog workload: conditional/unconditional ratio near 3.9, a
// multi-thousand-branch working set, non-degenerate instruction gaps.
func TestStreamInvariants(t *testing.T) {
	for _, wl := range Catalog() {
		wl := wl
		t.Run(wl.Name(), func(t *testing.T) {
			s, err := trace.Collect(&trace.LimitReader{R: wl.Open(), Max: 150_000})
			if err != nil {
				t.Fatal(err)
			}
			if r := s.CondPerUncond(); r < 2.0 || r > 7.0 {
				t.Errorf("cond/uncond = %.2f, want ≈3.9 (paper)", r)
			}
			if ws := wl.StaticBranches(); ws < 2_000 || ws > 40_000 {
				t.Errorf("static working set %d out of the server-class range", ws)
			}
			if ipb := float64(s.Instructions) / float64(s.Branches); ipb < 2 || ipb > 12 {
				t.Errorf("instructions/branch = %.2f — implausible", ipb)
			}
			if s.ByType[trace.Call] == 0 || s.ByType[trace.Return] == 0 {
				t.Error("stream must contain calls and returns")
			}
			if s.ByType[trace.Jump] == 0 {
				t.Error("stream must contain the dispatch-loop jumps")
			}
			// Calls and returns must balance within the depth bound.
			calls := s.ByType[trace.Call] + s.ByType[trace.IndirectCall]
			rets := s.ByType[trace.Return]
			diff := int64(calls) - int64(rets)
			if diff < 0 {
				diff = -diff
			}
			if diff > int64(wl.Params().MaxDepth)+1 {
				t.Errorf("calls (%d) and returns (%d) unbalanced", calls, rets)
			}
		})
	}
}

// TestTakenRateSane: overall conditional taken rate should be mid-range
// (real programs: roughly half to two-thirds taken).
func TestTakenRateSane(t *testing.T) {
	for _, wl := range Catalog()[:5] {
		s, err := trace.Collect(&trace.LimitReader{R: wl.Open(), Max: 100_000})
		if err != nil {
			t.Fatal(err)
		}
		rate := float64(s.TakenCond) / float64(s.Conditional())
		if rate < 0.25 || rate > 0.85 {
			t.Errorf("%s: taken rate %.2f out of plausible range", wl.Name(), rate)
		}
	}
}

func TestClassMapCoversExecutedBranches(t *testing.T) {
	wl := Catalog()[7] // Tomcat
	classes := wl.ClassMap()
	if len(classes) == 0 {
		t.Fatal("empty class map")
	}
	r := wl.Open()
	var b trace.Branch
	headers := 0
	for i := 0; i < 50_000; i++ {
		if err := r.Read(&b); err != nil {
			t.Fatal(err)
		}
		if b.Type != trace.CondDirect {
			continue
		}
		if _, ok := classes[b.PC]; !ok {
			headers++ // loop headers are not in the class map
		}
	}
	if headers == 0 {
		t.Error("expected loop-header conditionals outside the class map")
	}
}

func TestClassDistribution(t *testing.T) {
	wl := Catalog()[7] // Tomcat
	counts := map[BehaviorClass]int{}
	for _, c := range wl.ClassMap() {
		counts[c]++
	}
	for _, cls := range []BehaviorClass{Biased, PathMarker, LocalPattern, GlobalCorrelated, ContextCorrelated} {
		if counts[cls] == 0 {
			t.Errorf("no %v branches generated", cls)
		}
	}
	// Complex branches are a minority of the static set (§II-D: the
	// most-mispredicted branches are ~1% of the working set).
	total := 0
	for _, n := range counts {
		total += n
	}
	if frac := float64(counts[ContextCorrelated]) / float64(total); frac > 0.25 {
		t.Errorf("context-correlated fraction %.2f too large", frac)
	}
}

func TestPCsWithinFunctionRanges(t *testing.T) {
	wl := Catalog()[0]
	r := wl.Open()
	var b trace.Branch
	limit := uint64(codeBase + wl.Params().Functions*fnStride)
	for i := 0; i < 30_000; i++ {
		if err := r.Read(&b); err != nil {
			t.Fatal(err)
		}
		if b.PC >= limit && b.PC < codeBase-0x200 {
			t.Fatalf("PC %#x outside the program's address space", b.PC)
		}
	}
}

func TestValidation(t *testing.T) {
	base := Catalog()[0].Params()
	bad := []func(*Params){
		func(p *Params) { p.Name = "" },
		func(p *Params) { p.Functions = 1 },
		func(p *Params) { p.RequestTypes = 0 },
		func(p *Params) { p.RequestTypes = p.Functions + 1 },
		func(p *Params) { p.CondMin, p.CondMax = 5, 4 },
		func(p *Params) { p.CallMin, p.CallMax = 3, 1 },
		func(p *Params) { p.LoopMin, p.LoopMax = 2, 1 },
		func(p *Params) { p.LoopMin = -1 },
		func(p *Params) { p.MaxDepth = 0 },
		func(p *Params) { p.FracLocal = 0.9; p.FracMarker = 0.9 },
		func(p *Params) { p.ContextPhaseMin = 0 },
		func(p *Params) { p.LoopTripMin = 0 },
		func(p *Params) { p.FracContext = 1.5 },
	}
	for i, mod := range bad {
		p := base
		mod(&p)
		if _, err := New(p); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

// TestValidationBodyBound: Validate admits function bodies whose site
// PCs and return PC fit the function stride, CondMax + CallMax +
// 5·LoopMax <= 1023, and rejects one PC more. At the bound every site
// and return PC of the program is distinct; the catalog stays valid.
func TestValidationBodyBound(t *testing.T) {
	for _, src := range Catalog() {
		if err := src.Params().Validate(); err != nil {
			t.Errorf("catalog workload rejected: %v", err)
		}
	}

	p := Catalog()[0].Params()
	p.Functions, p.RequestTypes = 40, 8
	p.CallMin, p.CallMax, p.LoopMin, p.LoopMax = 0, 0, 0, 0
	// sitePCs counts the program's site and return PCs, and the distinct
	// ones among them. buildProgram does not validate, so it also shows
	// what one site more does.
	sitePCs := func(p Params) (pcs, distinct int) {
		seen := map[uint64]bool{}
		for _, fn := range buildProgram(p).fns {
			for _, s := range fn.sites {
				pcs++
				seen[s.pc] = true
			}
			pcs++
			seen[fn.retPC] = true
		}
		return pcs, len(seen)
	}
	p.CondMin, p.CondMax = 1023, 1023
	if err := p.Validate(); err != nil {
		t.Fatalf("1023 conditional sites rejected: %v", err)
	}
	if pcs, distinct := sitePCs(p); distinct != pcs {
		t.Errorf("1023 conditional sites: %d site and return PCs, %d distinct", pcs, distinct)
	}
	p.CondMin, p.CondMax = 1024, 1024
	if pcs, distinct := sitePCs(p); distinct == pcs {
		t.Errorf("1024 conditional sites: all %d site and return PCs distinct; the bound is not tight", pcs)
	}

	for _, tc := range []struct {
		cond, call, loop int
		ok               bool
	}{
		{1024, 0, 0, false},
		{0, 1024, 0, false},
		{1013, 0, 2, true},
		{1014, 0, 2, false},
		{0, 0, 204, true},
		{3, 0, 204, true},
		{4, 0, 204, false},
		{math.MaxInt, math.MaxInt, 0, false},
	} {
		p.CondMax, p.CallMax, p.LoopMax = tc.cond, tc.call, tc.loop
		p.CondMin, p.CallMin, p.LoopMin = 0, 0, 0
		err := p.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("cond %d call %d loop %d: err %v, want ok=%v", tc.cond, tc.call, tc.loop, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "1023") {
			t.Errorf("error %q does not name the 1023-PC bound", err)
		}
	}

	// Tomcat's mix at 40 functions with 1,100 conditional sites each:
	// unchecked, the bodies overran their strides and 22,089 sites
	// shared 20,507 PCs.
	tomcat, err := ByName("Tomcat")
	if err != nil {
		t.Fatal(err)
	}
	p = tomcat.Params()
	p.Functions, p.RequestTypes = 40, 8
	p.CondMin, p.CondMax = 1100, 1100
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "stride") {
		t.Errorf("1,100 conditional sites per function: err %v, want the stride bound", err)
	}
}

func TestBehaviorClassString(t *testing.T) {
	names := map[BehaviorClass]string{
		Biased: "biased", LocalPattern: "local", GlobalCorrelated: "global",
		ContextCorrelated: "context", Noisy: "noisy", PathMarker: "marker",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestCallDepthBounded(t *testing.T) {
	wl := Catalog()[6] // Spring: MaxDepth 16
	r := wl.Open()
	var b trace.Branch
	depth, maxDepth := 0, 0
	for i := 0; i < 200_000; i++ {
		if err := r.Read(&b); err != nil {
			t.Fatal(err)
		}
		switch b.Type {
		case trace.Call, trace.IndirectCall:
			depth++
		case trace.Return:
			depth--
		}
		if depth > maxDepth {
			maxDepth = depth
		}
	}
	if maxDepth > wl.Params().MaxDepth+1 {
		t.Errorf("observed call depth %d exceeds MaxDepth %d", maxDepth, wl.Params().MaxDepth)
	}
}
