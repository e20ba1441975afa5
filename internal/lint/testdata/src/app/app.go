// Package app is the telemetrysafe fixture: a consumer of the telemetry
// stub that violates (and honors) the instrument usage contract.
package app

import "telemetry"

// Use exercises the snake_case rule.
func Use(reg *telemetry.Registry) uint64 {
	c := reg.Counter("requests_total")
	c.Inc()

	bad := reg.Counter("BadName") // want `instrument name "BadName" is not snake_case`
	bad.Inc()

	reg.Gauge("queue-depth") // want `instrument name "queue-depth" is not snake_case`

	return c.Value()
}

// Construct exercises the Registry-only construction rule.
func Construct() *telemetry.Counter {
	return &telemetry.Counter{} // want `composite literal of telemetry\.Counter`
}

const goodName = "cache_hits"
const badName = "cacheHits"

// Constants propagate into the name check.
func Consts(reg *telemetry.Registry) {
	reg.Counter(goodName)
	reg.Counter(badName) // want `instrument name "cacheHits" is not snake_case`
}

// Dynamic names cannot be checked statically and are skipped.
func Dynamic(reg *telemetry.Registry, kind string) {
	reg.Counter("branch_" + kind)
}

// Justified suppresses a finding with an in-code reason.
func Justified() *telemetry.Counter {
	//llbplint:allow telemetrysafe -- fixture demonstrates a justified direct construction
	return &telemetry.Counter{}
}
