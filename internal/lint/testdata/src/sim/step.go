// step.go is the hotpath fixture for the shared replay step: Step on a
// type named Stepper is a per-branch root, so the allocation in it is
// reported; Step on any other type is not a root.
package sim

// Stepper stands in for the replay step every driver shares.
type Stepper struct{ last []uint64 }

func (s *Stepper) Step(pc uint64) bool {
	s.last = make([]uint64, 1) // want hotpath:"allocates \\(make\\)"
	s.last[0] = pc
	return pc&1 != 0
}

// Warmer has a Step too, but only Stepper.Step is a root.
type Warmer struct{ last []uint64 }

func (w *Warmer) Step(pc uint64) bool {
	w.last = make([]uint64, 1)
	w.last[0] = pc
	return pc&1 != 0
}
