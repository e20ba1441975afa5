package sc

// Fork returns an independent deep copy of the corrector: every counter
// bank, the adaptive threshold, the local/IMLI components and the
// Predict/Update scratch. Training either copy never affects the other.
// The fold locations are shared: they are fixed at construction and
// valid in the clone of the history engine the fork's owner passes to
// Correct. Call at a branch boundary (after Update, before the next
// Correct).
func (c *Corrector) Fork() *Corrector {
	out := *c
	out.tables = make([][]int8, len(c.tables))
	for i := range c.tables {
		out.tables[i] = append([]int8(nil), c.tables[i]...)
	}
	out.bias = append([]int8(nil), c.bias...)
	out.lastIdx = append([]uint32(nil), c.lastIdx...)
	if c.local != nil {
		out.local = c.local.fork()
	}
	if c.imli != nil {
		out.imli = c.imli.fork()
	}
	return &out
}

// fork deep-copies the local-history component.
func (l *localState) fork() *localState {
	out := *l
	out.histories = append([]uint32(nil), l.histories...)
	out.table = append([]int8(nil), l.table...)
	return &out
}

// fork deep-copies the IMLI component.
func (s *imliState) fork() *imliState {
	out := *s
	out.table = append([]int8(nil), s.table...)
	return &out
}
