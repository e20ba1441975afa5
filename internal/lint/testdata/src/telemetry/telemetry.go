// Package telemetry is a fixture stub mirroring llbp/internal/telemetry:
// its import path ends in "telemetry", so the telemetrysafe analyzer
// exempts it (the implementation builds its own instruments). Like the
// real package's, the instrument fields are unexported.
package telemetry

// Counter is a fixture instrument.
type Counter struct{ v uint64 }

// Inc increments the count.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Add accumulates a delta.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value reads the count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a fixture instrument.
type Gauge struct{ bits uint64 }

// Set stores a level.
func (g *Gauge) Set(v uint64) {
	if g == nil {
		return
	}
	g.bits = v
}

// Registry is the fixture instrument factory.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry returns an enabled registry.
func NewRegistry() *Registry {
	return &Registry{counters: map[string]*Counter{}, gauges: map[string]*Gauge{}}
}

// Counter registers (or finds) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge registers (or finds) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}
