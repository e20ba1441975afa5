// Package workload synthesizes server-like branch traces with the
// statistical properties the paper measures on its gem5 and Google traces
// (§II, §IV): large branch working sets, a heavy-tailed patterns-per-branch
// distribution, roughly four conditional branches per unconditional branch,
// and "complex" branches whose outcome is a function of the program
// context (call chain) plus a short per-context phase — the behaviour that
// makes LLBP's context locality pay off.
//
// Each named workload is a seeded, deterministic program: a call graph of
// synthetic functions executed by a request-dispatching server loop. The
// same Source always replays the identical branch stream, so different
// predictor configurations see identical inputs.
package workload

import "fmt"

// BehaviorClass classifies how a synthetic conditional branch decides its
// direction.
type BehaviorClass uint8

const (
	// Biased branches are taken with a fixed probability drawn near 0
	// or 1 — the easy bulk of any workload.
	Biased BehaviorClass = iota
	// LocalPattern branches repeat a short per-branch pattern —
	// predictable with short history.
	LocalPattern
	// GlobalCorrelated branches are a deterministic function of the
	// last few conditional outcomes — classic TAGE territory.
	GlobalCorrelated
	// ContextCorrelated branches ("complex" branches, §II-D) decide as
	// a deterministic function of (call-chain context, loop-iteration
	// phase): many patterns in aggregate, few per context. They are
	// placed inside loop bodies so the phase is visible in recent
	// history. These are the branches LLBP targets.
	ContextCorrelated
	// Noisy branches are irreducibly random at a per-branch rate,
	// bounding every predictor's accuracy.
	Noisy
	// PathMarker branches have a fixed direction per calling context
	// (think: branches on arguments that are constant per call site).
	// They inject call-path information into the global history, which
	// is how long-history predictors disambiguate contexts.
	PathMarker
)

// String returns the class name.
func (b BehaviorClass) String() string {
	switch b {
	case Biased:
		return "biased"
	case LocalPattern:
		return "local"
	case GlobalCorrelated:
		return "global"
	case ContextCorrelated:
		return "context"
	case Noisy:
		return "noisy"
	case PathMarker:
		return "marker"
	default:
		return fmt.Sprintf("BehaviorClass(%d)", uint8(b))
	}
}

// Params fully describes a synthetic workload. All distributions are
// driven from Seed; two Sources with equal Params produce identical
// streams.
type Params struct {
	// Name is the workload's display name.
	Name string
	// Seed drives every random choice.
	Seed uint64

	// Functions is the number of synthetic functions in the program.
	Functions int
	// RequestTypes is the number of top-level request handlers the
	// server loop dispatches to, with Zipf(ZipfSkew) popularity.
	RequestTypes int
	// ZipfSkew is the request-popularity skew (0 = uniform).
	ZipfSkew float64
	// CondMin/CondMax bound the conditional-branch sites per function.
	CondMin, CondMax int
	// CallMin/CallMax bound the call sites per function.
	CallMin, CallMax int
	// LoopMin/LoopMax bound the loop constructs per function.
	LoopMin, LoopMax int
	// MaxDepth caps the call-stack depth.
	MaxDepth int
	// MeanBlockInstrs is the mean instruction count between branches.
	MeanBlockInstrs float64

	// FracLocal, FracGlobal, FracNoisy and FracMarker apportion the
	// straight-line conditional sites among behaviour classes; the
	// remainder is Biased. FracContext scales the complex-branch share
	// of loop bodies (complex branches only occur inside loops).
	FracLocal   float64
	FracGlobal  float64
	FracContext float64
	FracNoisy   float64
	FracMarker  float64

	// ContextPhaseMin/Max bound a context-correlated branch's phase
	// period P: per context, the branch needs P patterns (the paper
	// measures ≤9 per context at W=32 for 95% of branches).
	ContextPhaseMin, ContextPhaseMax int
	// ContextNoise is the probability a context-correlated outcome is
	// flipped (irreducible noise on complex branches).
	ContextNoise float64
	// GlobalHistBits bounds how many recent outcomes a
	// GlobalCorrelated branch reads (2..GlobalHistBits).
	GlobalHistBits int
	// NoisyRate is the flip probability of a Noisy branch.
	NoisyRate float64
	// MidBiasFrac is the fraction of Biased sites drawn with a
	// mid-range (hard) bias instead of a strong one; negative selects
	// the default of 0.03. The mid-biased sites set each workload's
	// irreducible misprediction floor.
	MidBiasFrac float64

	// LoopTripMin/Max bound loop trip counts; ContextLoops makes trip
	// counts a function of the calling context.
	LoopTripMin, LoopTripMax int
	ContextLoops             bool

	// IndirectFrac is the fraction of call sites that are indirect;
	// IndirectFanout is their callee-set size; IndirectMissRate is the
	// probability an indirect transfer misses in the modelled target
	// predictor (flushing the pipeline and LLBP's prefetcher).
	IndirectFrac     float64
	IndirectFanout   int
	IndirectMissRate float64

	// L1IMissesPerKI is the modelled L1-I miss rate (misses per kilo
	// instruction) used by the Figure 11 bandwidth comparison.
	L1IMissesPerKI float64
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: empty name")
	}
	if p.Functions < 2 {
		return fmt.Errorf("workload %s: need at least 2 functions", p.Name)
	}
	if p.RequestTypes < 1 || p.RequestTypes > p.Functions {
		return fmt.Errorf("workload %s: requestTypes %d out of range [1,%d]", p.Name, p.RequestTypes, p.Functions)
	}
	if p.CondMax < p.CondMin || p.CondMin < 0 {
		return fmt.Errorf("workload %s: bad cond range [%d,%d]", p.Name, p.CondMin, p.CondMax)
	}
	if p.CallMax < p.CallMin || p.CallMin < 0 {
		return fmt.Errorf("workload %s: bad call range [%d,%d]", p.Name, p.CallMin, p.CallMax)
	}
	if p.LoopMax < p.LoopMin || p.LoopMin < 0 {
		return fmt.Errorf("workload %s: bad loop range [%d,%d]", p.Name, p.LoopMin, p.LoopMax)
	}
	// Checking each term first keeps the sum from overflowing.
	if p.CondMax > maxBodyPCs || p.CallMax > maxBodyPCs || p.LoopMax > maxBodyPCs ||
		p.CondMax+p.CallMax+loopSitePCs*p.LoopMax > maxBodyPCs {
		return fmt.Errorf("workload %s: condMax %d + callMax %d + %d·loopMax %d site PCs overflow a function's %d-byte stride (at most %d fit)",
			p.Name, p.CondMax, p.CallMax, loopSitePCs, p.LoopMax, fnStride, maxBodyPCs)
	}
	if p.MaxDepth < 1 {
		return fmt.Errorf("workload %s: maxDepth must be >= 1", p.Name)
	}
	total := p.FracLocal + p.FracGlobal + p.FracNoisy + p.FracMarker
	if total > 1.0001 {
		return fmt.Errorf("workload %s: behaviour fractions sum to %.3f > 1", p.Name, total)
	}
	if p.FracContext < 0 || p.FracContext > 1 {
		return fmt.Errorf("workload %s: fracContext %.3f out of [0,1]", p.Name, p.FracContext)
	}
	if p.ContextPhaseMax < p.ContextPhaseMin || p.ContextPhaseMin < 1 {
		return fmt.Errorf("workload %s: bad phase range [%d,%d]", p.Name, p.ContextPhaseMin, p.ContextPhaseMax)
	}
	if p.LoopTripMax < p.LoopTripMin || p.LoopTripMin < 1 {
		return fmt.Errorf("workload %s: bad trip range [%d,%d]", p.Name, p.LoopTripMin, p.LoopTripMax)
	}
	return nil
}
