// Package chaos is the service-level fault injector: it extends the
// internal/faults seeded-injection idiom from predictor bit-flips to the
// failure events of the llbpd service stack — a worker panicking or
// wedging mid-cell, a heartbeat delayed past its lease TTL, a result
// stream cut under a client, a journal write torn between write and
// fsync.
//
// Injection points are named Hooks compiled into the production code
// paths (internal/service, internal/harness). Each call site asks the
// injector whether the event fires at this occurrence; with a nil
// injector every call is an inlineable false, so the hooks cost nothing
// in normal operation — the same contract internal/telemetry uses for
// its nil-receiver instruments.
//
// Schedules are deterministic. A Rule fires a hook at an exact
// occurrence count (and optionally every k occurrences after), so a
// scenario is replayable: the same rules against the same workload
// produce the same firing sequence, and the chaos e2e suite asserts the
// surviving results are byte-identical to an uninjected run. Scenario
// derives a rule set from a single seed for fuzz-style sweeps that stay
// reproducible from the seed alone.
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Hook names one injection point in the service stack.
type Hook string

// The chaos event catalog (DESIGN.md §11). Each constant documents the
// production call site that consults it.
const (
	// WorkerPanic fires in the worker loop as it picks up a cell: the
	// worker panics, simulating a crashed worker goroutine. The panic is
	// recovered by worker supervision; the job's lease expires and the
	// supervisor re-dispatches it.
	WorkerPanic Hook = "worker.panic"
	// WorkerStall fires at the same site: the worker wedges (blocks)
	// instead of running the cell, holding its lease without progress
	// until the supervisor revokes it.
	WorkerStall Hook = "worker.stall"
	// HeartbeatSkip fires at lease-heartbeat sites: the renewal is
	// suppressed, aging the lease as if the worker had stopped making
	// progress.
	HeartbeatSkip Hook = "heartbeat.skip"
	// StreamDrop fires before a results-stream write: the connection is
	// severed mid-stream, exercising client resume from the last
	// delivered sequence number.
	StreamDrop Hook = "stream.drop"
	// JournalTear fires inside Journal.Record: the encoded line is
	// truncated mid-write and the write reported failed.
	JournalTear Hook = "journal.tear"
)

// Hooks returns the event catalog in stable order.
func Hooks() []Hook {
	return []Hook{WorkerPanic, WorkerStall, HeartbeatSkip, StreamDrop, JournalTear}
}

// Rule schedules one hook: fire on the At-th occurrence (1-based), and,
// when Every is non-zero, again every Every occurrences after that.
type Rule struct {
	Hook  Hook
	At    uint64
	Every uint64
}

// String renders the rule in ParseSpec syntax.
func (r Rule) String() string {
	s := fmt.Sprintf("%s@%d", r.Hook, r.At)
	if r.Every > 0 {
		s += fmt.Sprintf("%%%d", r.Every)
	}
	return s
}

// matches reports whether the rule fires at occurrence n.
func (r Rule) matches(n uint64) bool {
	if r.At == 0 || n < r.At {
		return false
	}
	if n == r.At {
		return true
	}
	return r.Every > 0 && (n-r.At)%r.Every == 0
}

// Firing is one log entry of the injector: hook h fired at its n-th
// occurrence.
type Firing struct {
	Hook  Hook   `json:"hook"`
	Count uint64 `json:"count"`
}

// Injector owns a rule set and the per-hook occurrence counters. All
// methods are safe on a nil receiver (never fires) and for concurrent
// use.
type Injector struct {
	mu     sync.Mutex
	rules  []Rule
	counts map[Hook]uint64
	log    []Firing
}

// New builds an injector over the given rules.
func New(rules ...Rule) *Injector {
	return &Injector{rules: rules, counts: make(map[Hook]uint64)}
}

// Scenario derives n single-shot rules from a seed: each draw picks a
// hook from the catalog and an occurrence in [1, horizon]. The rule set
// is a pure function of (seed, n, horizon), so a scenario is fully
// described — and replayed — by its seed.
func Scenario(seed uint64, n int, horizon uint64) *Injector {
	if horizon == 0 {
		horizon = 1
	}
	hooks := Hooks()
	rng := seed ^ 0xC4A05C4A05C4A05 // domain-separate from other splitmix streams
	next := func() uint64 {
		rng += 0x9E3779B97F4A7C15
		z := rng
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	rules := make([]Rule, n)
	for i := range rules {
		rules[i] = Rule{
			Hook: hooks[next()%uint64(len(hooks))],
			At:   next()%horizon + 1,
		}
	}
	return New(rules...)
}

// ParseSpec parses a comma-separated rule list in the syntax
// "hook@n" (fire at the n-th occurrence) or "hook@n%k" (and every k
// after). Example: "worker.panic@2,stream.drop@3%5".
func ParseSpec(spec string) ([]Rule, error) {
	known := make(map[Hook]bool, len(Hooks()))
	for _, h := range Hooks() {
		known[h] = true
	}
	var rules []Rule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("chaos: rule %q lacks '@occurrence'", part)
		}
		if !known[Hook(name)] {
			return nil, fmt.Errorf("chaos: unknown hook %q (have %v)", name, Hooks())
		}
		atStr, everyStr, hasEvery := strings.Cut(rest, "%")
		at, err := strconv.ParseUint(atStr, 10, 64)
		if err != nil || at == 0 {
			return nil, fmt.Errorf("chaos: rule %q: occurrence must be a positive integer", part)
		}
		r := Rule{Hook: Hook(name), At: at}
		if hasEvery {
			every, err := strconv.ParseUint(everyStr, 10, 64)
			if err != nil || every == 0 {
				return nil, fmt.Errorf("chaos: rule %q: period must be a positive integer", part)
			}
			r.Every = every
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// TearHook adapts the injector to harness.Journal.SetWriteHook: when
// JournalTear fires, the journal line is truncated mid-record and the
// write reported failed. The journal must cut the partial line back off
// before its next record, as it does for any failed write.
func TearHook(in *Injector) func(line []byte) ([]byte, error) {
	return func(line []byte) ([]byte, error) {
		if in.Fire(JournalTear) {
			return line[:len(line)/2], fmt.Errorf("chaos: journal write torn after %d bytes", len(line)/2)
		}
		return line, nil
	}
}

// Fire advances hook h's occurrence counter and reports whether any rule
// fires at this occurrence. Nil-safe: a nil injector never fires.
func (in *Injector) Fire(h Hook) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.counts[h]++
	n := in.counts[h]
	for _, r := range in.rules {
		if r.Hook == h && r.matches(n) {
			in.log = append(in.log, Firing{Hook: h, Count: n})
			return true
		}
	}
	return false
}

// Count returns how many times hook h has been consulted.
func (in *Injector) Count(h Hook) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[h]
}

// Firings returns the fired events in firing order — the replayable
// record of what the scenario actually did.
func (in *Injector) Firings() []Firing {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Firing(nil), in.log...)
}

// Rules returns a copy of the rule set, sorted for display.
func (in *Injector) Rules() []Rule {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := append([]Rule(nil), in.rules...)
	sort.Slice(out, func(i, k int) bool {
		if out[i].Hook != out[k].Hook {
			return out[i].Hook < out[k].Hook
		}
		return out[i].At < out[k].At
	})
	return out
}

// String renders the rule set in ParseSpec syntax.
func (in *Injector) String() string {
	rules := in.Rules()
	parts := make([]string, len(rules))
	for i, r := range rules {
		parts[i] = r.String()
	}
	return strings.Join(parts, ",")
}
