package workload

import (
	"fmt"
	"sync"
)

// The catalog mirrors Table I of the paper: ten server workloads traced on
// gem5 (NodeApp, PHPWiki, the DaCapo/Renaissance/BenchBase Java suites)
// plus four Google production traces (Charlie, Delta, Merced, Whiskey).
// Each synthetic instance is parameterized to echo the qualitative
// behaviour the paper reports for its namesake: branch working-set size,
// misprediction rate, the share of complex (context-correlated) branches,
// and — for PHPWiki — an unusually high indirect-call misprediction rate
// that keeps resetting LLBP's prefetcher (§VII-A).
//
// Absolute MPKI values are not calibrated to the real traces (those are
// unavailable); parameter diversity preserves the cross-workload spread
// the figures rely on.

// base returns the parameter defaults shared by the catalog.
func base(name string, seed uint64) Params {
	return Params{
		Name:             name,
		Seed:             seed,
		Functions:        900,
		RequestTypes:     48,
		ZipfSkew:         1.35,
		CondMin:          3,
		CondMax:          12,
		CallMin:          3,
		CallMax:          6,
		LoopMin:          1,
		LoopMax:          1,
		MaxDepth:         12,
		MeanBlockInstrs:  6.5,
		FracLocal:        0.10,
		FracGlobal:       0.12,
		FracContext:      0.05,
		FracNoisy:        0.006,
		FracMarker:       0.15,
		ContextPhaseMin:  2,
		ContextPhaseMax:  5,
		ContextNoise:     0.01,
		GlobalHistBits:   8,
		NoisyRate:        0.5,
		MidBiasFrac:      0.018,
		LoopTripMin:      3,
		LoopTripMax:      6,
		ContextLoops:     true,
		IndirectFrac:     0.12,
		IndirectFanout:   6,
		IndirectMissRate: 0.05,
		L1IMissesPerKI:   20,
	}
}

// catalogParams builds the 14 Table I workloads.
func catalogParams() []Params {
	nodeApp := base("NodeApp", 101)
	nodeApp.Functions = 1500
	nodeApp.FracContext = 0.14 // JS callback soup: heavily context-correlated
	nodeApp.FracNoisy = 0.002
	nodeApp.ContextNoise = 0.004
	nodeApp.RequestTypes = 72
	nodeApp.ZipfSkew = 0.9
	nodeApp.L1IMissesPerKI = 24

	phpWiki := base("PHPWiki", 102)
	phpWiki.Functions = 950
	phpWiki.FracContext = 0.07
	phpWiki.IndirectFrac = 0.22 // interpreter dispatch
	phpWiki.IndirectFanout = 8
	phpWiki.IndirectMissRate = 0.30 // resets LLBP's prefetcher (§VII-A)
	phpWiki.L1IMissesPerKI = 26

	tpcc := base("TPCC", 103)
	tpcc.Functions = 1100
	tpcc.FracGlobal = 0.16
	tpcc.FracContext = 0.05
	tpcc.FracNoisy = 0.015
	tpcc.L1IMissesPerKI = 22

	twitter := base("Twitter", 104)
	twitter.Functions = 800
	twitter.FracContext = 0.06
	twitter.FracNoisy = 0.02
	twitter.ZipfSkew = 1.25

	wikipedia := base("Wikipedia", 105)
	wikipedia.Functions = 1050
	wikipedia.FracContext = 0.05
	wikipedia.FracGlobal = 0.14
	wikipedia.FracNoisy = 0.012

	kafka := base("Kafka", 106)
	kafka.Functions = 450
	kafka.FracContext = 0.02 // mostly easy streaming paths: low MPKI
	kafka.FracGlobal = 0.08
	kafka.FracLocal = 0.14
	kafka.FracNoisy = 0.001
	kafka.ContextNoise = 0.004
	kafka.ZipfSkew = 1.5
	kafka.IndirectMissRate = 0.02
	kafka.L1IMissesPerKI = 12

	spring := base("Spring", 107)
	spring.Functions = 1500 // deep framework call stacks
	spring.CondMin, spring.CondMax = 2, 10
	spring.FracContext = 0.045
	spring.MaxDepth = 16
	spring.L1IMissesPerKI = 30

	tomcat := base("Tomcat", 108)
	tomcat.Functions = 1700 // largest branch working set (§II-D studies Tomcat)
	tomcat.CondMin, tomcat.CondMax = 4, 14
	tomcat.FracContext = 0.065
	tomcat.FracNoisy = 0.018
	tomcat.RequestTypes = 64
	tomcat.L1IMissesPerKI = 28

	chirper := base("Chirper", 109)
	chirper.Functions = 850
	chirper.FracContext = 0.055
	chirper.FracNoisy = 0.01

	httpW := base("HTTP", 110)
	httpW.Functions = 750
	httpW.FracContext = 0.05
	httpW.FracLocal = 0.13
	httpW.FracNoisy = 0.008

	charlie := base("Charlie", 111)
	charlie.Functions = 1400
	charlie.FracContext = 0.07
	charlie.FracNoisy = 0.02
	charlie.RequestTypes = 72
	charlie.ZipfSkew = 0.75
	charlie.L1IMissesPerKI = 32

	delta := base("Delta", 112)
	delta.Functions = 1300
	delta.FracContext = 0.05
	delta.FracGlobal = 0.17
	delta.FracNoisy = 0.022
	delta.ZipfSkew = 0.75

	merced := base("Merced", 113)
	merced.Functions = 1450
	merced.FracContext = 0.10 // second-largest LLBP gain in Fig 9
	merced.FracNoisy = 0.012
	merced.ContextNoise = 0.012
	merced.RequestTypes = 60
	merced.ZipfSkew = 0.8

	whiskey := base("Whiskey", 114)
	whiskey.Functions = 1200
	whiskey.FracContext = 0.06
	whiskey.FracNoisy = 0.016
	whiskey.ZipfSkew = 0.85

	return []Params{
		nodeApp, phpWiki, tpcc, twitter, wikipedia, kafka, spring,
		tomcat, chirper, httpW, charlie, delta, merced, whiskey,
	}
}

// catalog is a set of catalog sources and their index by name. Making
// one validates the params of all 14 workloads and builds no program:
// each Source builds its own on first use.
type catalog struct {
	srcs []*Source
	idx  map[string]*Source
}

func newCatalog() *catalog {
	params := catalogParams()
	c := &catalog{srcs: make([]*Source, len(params)), idx: make(map[string]*Source, len(params))}
	for i, p := range params {
		c.srcs[i] = MustNew(p)
		c.idx[p.Name] = c.srcs[i]
	}
	return c
}

func (c *catalog) byName(name string) (*Source, error) {
	s, ok := c.idx[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q (have %v)", name, c.names())
	}
	return s, nil
}

func (c *catalog) names() []string {
	out := make([]string, len(c.srcs))
	for i, s := range c.srcs {
		out[i] = s.Name()
	}
	return out
}

// shared is the process's catalog, made on first use.
var shared = sync.OnceValue(newCatalog)

// Catalog returns the 14 Table I workloads, in the paper's order. Sources
// are shared and safe for concurrent use; Open gives independent replay
// streams.
func Catalog() []*Source { return shared().srcs }

// ServerWorkloads returns the ten gem5-style server workloads (the subset
// used by the hardware study of Figure 1).
func ServerWorkloads() []*Source {
	return Catalog()[:10]
}

// ByName looks up a catalog workload. It builds no program.
func ByName(name string) (*Source, error) { return shared().byName(name) }

// Names returns the catalog workload names in order.
func Names() []string { return shared().names() }
