// Package pipeline is the cycle-accounting core model standing in for the
// paper's ChampSim configuration (Table II: 4GHz, 6-wide OoO, 512 ROB).
// It is a Top-Down-style model: correct-path instructions retire at a
// base CPI, and every pipeline reset (conditional misprediction or
// BTB/target miss) charges a redirect penalty. This reproduces the
// relationship between misprediction rate and wasted cycles that Figures 1
// and 10 report, without claiming cycle-level fidelity (see DESIGN.md §1).
package pipeline

import "fmt"

// Config holds the core model parameters.
type Config struct {
	// Name describes the configuration in reports.
	Name string
	// FetchWidth is the front-end width (Table II: 6); informational.
	FetchWidth int
	// BaseCPI is cycles per instruction on the correct path. 0.5
	// (IPC 2) matches the measured server-workload IPC band on the
	// paper's Sapphire Rapids host and yields its ~9% wasted-cycle
	// average at ~2.9 MPKI.
	BaseCPI float64
	// MispredictPenalty is the redirect penalty of a conditional
	// misprediction in cycles (detect + flush + refill).
	MispredictPenalty float64
	// TargetMissPenalty is the redirect penalty of a BTB/indirect
	// target miss.
	TargetMissPenalty float64
	// ROB is the reorder-buffer size (Table II: 512); informational.
	ROB int
	// LQ and SQ are the load/store queue sizes (Table II: 248/122);
	// informational.
	LQ, SQ int
	// ClockGHz is the modelled frequency (Table II: 4GHz).
	ClockGHz float64
}

// Default returns the Table II configuration.
func Default() Config {
	return Config{
		Name:              "Table II core (4GHz, 6-way OoO, 512 ROB)",
		FetchWidth:        6,
		BaseCPI:           0.5,
		MispredictPenalty: 20,
		TargetMissPenalty: 20,
		ROB:               512,
		LQ:                248,
		SQ:                122,
		ClockGHz:          4,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.BaseCPI <= 0 {
		return fmt.Errorf("pipeline: baseCPI %v must be positive", c.BaseCPI)
	}
	if c.MispredictPenalty < 0 || c.TargetMissPenalty < 0 {
		return fmt.Errorf("pipeline: negative penalty")
	}
	return nil
}

// Accounting accumulates the cycle ledger of one simulation.
type Accounting struct {
	cfg Config

	Instructions   uint64
	BaseCycles     float64 // correct-path cycles
	BranchPenalty  float64 // cycles lost to conditional mispredictions
	TargetPenalty  float64 // cycles lost to target misses
	Mispredictions uint64
	TargetMisses   uint64
}

// NewAccounting returns a ledger for cfg.
func NewAccounting(cfg Config) (*Accounting, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Accounting{cfg: cfg}, nil
}

// DefaultAccounting returns an empty ledger for the Table II
// configuration, which is valid by construction.
func DefaultAccounting() Accounting { return Accounting{cfg: Default()} }

// Config returns the ledger's core configuration.
func (a *Accounting) Config() Config { return a.cfg }

// Retire charges n correct-path instructions and returns the cycles they
// take (for clock advancement).
func (a *Accounting) Retire(n uint64) float64 {
	a.Instructions += n
	c := float64(n) * a.cfg.BaseCPI
	a.BaseCycles += c
	return c
}

// Mispredict charges one conditional-branch redirect and returns its
// cycles.
func (a *Accounting) Mispredict() float64 {
	a.Mispredictions++
	a.BranchPenalty += a.cfg.MispredictPenalty
	return a.cfg.MispredictPenalty
}

// TargetMiss charges one BTB/indirect target redirect and returns its
// cycles.
func (a *Accounting) TargetMiss() float64 {
	a.TargetMisses++
	a.TargetPenalty += a.cfg.TargetMissPenalty
	return a.cfg.TargetMissPenalty
}

// Cycles returns total modelled cycles.
func (a *Accounting) Cycles() float64 {
	return a.BaseCycles + a.BranchPenalty + a.TargetPenalty
}

// WastedFraction returns the fraction of cycles lost to conditional
// mispredictions — the Figure 1 metric.
func (a *Accounting) WastedFraction() float64 {
	t := a.Cycles()
	if t == 0 {
		return 0
	}
	return a.BranchPenalty / t
}

// IPC returns the modelled instructions per cycle.
func (a *Accounting) IPC() float64 {
	c := a.Cycles()
	if c == 0 {
		return 0
	}
	return float64(a.Instructions) / c
}
