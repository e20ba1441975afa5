package sc

import (
	"fmt"

	"llbp/internal/faults"
)

// FaultFields implements faults.Surface: the GEHL component tables and the
// bias table are the corrector's SRAM payload. (The local and IMLI banks
// are small register-file-class structures and are left out of the fault
// model — flip studies target the bulk counter arrays.) Parity granularity is one counter; a detected flip
// resets the counter to the neutral weakly-not-taken state (0).
func (c *Corrector) FaultFields() []faults.Field {
	bits := c.cfg.CounterBits
	fields := make([]faults.Field, 0, len(c.tables)+1)
	for ti := range c.tables {
		tbl := c.tables[ti]
		fields = append(fields, faults.Field{
			Name: fmt.Sprintf("sc.t%d", ti), Bits: bits, Len: len(tbl),
			Get:   func(i int) uint64 { return faults.Unsigned(int64(tbl[i]), bits) },
			Set:   func(i int, v uint64) { tbl[i] = int8(faults.SignExtend(v, bits)) },
			Reset: func(i int) { tbl[i] = 0 },
		})
	}
	bias := c.bias
	fields = append(fields, faults.Field{
		Name: "sc.bias", Bits: bits, Len: len(bias),
		Get:   func(i int) uint64 { return faults.Unsigned(int64(bias[i]), bits) },
		Set:   func(i int, v uint64) { bias[i] = int8(faults.SignExtend(v, bits)) },
		Reset: func(i int) { bias[i] = 0 },
	})
	return fields
}

var _ faults.Surface = (*Corrector)(nil)
