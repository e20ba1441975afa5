// Package lease is the fencecheck fixture: it models the service's
// epoch-fenced lease protocol. jobState is annotated leased; claim is a
// fence constructor (it writes the epoch field); finish and release
// show the two fenced shapes (early-out guard, write inside the epoch
// condition); touch and Progress are the violations — writes with no
// fence, reachable from a worker goroutine and a worker-annotated
// handler respectively. sessionState holds its epoch in record, the
// lease primitive: its claim and close construct fences through the
// primitive, apply writes under the primitive's guard, and leak writes
// without it.
package lease

import "sync"

// jobState carries lease-owned job state.
//
//llbplint:leased -- mutated only while holding a valid lease epoch
type jobState struct {
	mu    sync.Mutex
	epoch uint64
	state string
	cells int
}

// claim bumps the epoch and takes ownership: a fence constructor,
// exempt from the guard rule by definition.
func (j *jobState) claim() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.epoch++
	j.state = "claimed"
	return j.epoch
}

// finish is fenced by the canonical early-out guard: everything after
// the `if` runs only when the caller still owns the lease.
func (j *jobState) finish(epoch uint64) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.epoch != epoch {
		return false
	}
	j.state = "done"
	return true
}

// release writes inside the epoch condition — the other fenced shape.
func (j *jobState) release(epoch uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.epoch == epoch {
		j.state = "released"
	}
}

// touch mutates lease-owned state with no fence at all. On its own that
// is only a summary fact; it becomes a finding because run — a worker
// goroutine — reaches it.
func (j *jobState) touch(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cells = n // want fencecheck:`unfenced write to lease-owned jobState\.cells`
}

// run is the worker body Serve launches.
func run(j *jobState) {
	epoch := j.claim()
	if !j.finish(epoch) {
		return
	}
	j.release(epoch)
	j.touch(1)
}

// Serve spawns the worker goroutine, making run a fencecheck root.
func Serve(j *jobState) {
	go run(j)
}

// Progress stands in for an HTTP handler that executes on behalf of a
// remote worker: the annotation makes it a root even though no `go`
// statement spawns it.
//
//llbplint:worker -- invoked by remote workers via the progress endpoint
func Progress(j *jobState, n int) {
	j.cells = n // want fencecheck:`unfenced write to lease-owned jobState\.cells`
}

// record is the lease primitive: the epoch lives here, and the owner
// embeds it.
//
//llbplint:leased -- the ownership record: writes move the epoch or are fenced on it
type record struct {
	epoch uint64
	held  bool
}

// take and end move the epoch: fence constructors by definition.
func (r *record) take() uint64 {
	r.epoch++
	r.held = true
	return r.epoch
}

func (r *record) end() {
	r.epoch++
	r.held = false
}

// holds is the primitive's guard: it reads the epoch.
func (r *record) holds(epoch uint64) bool { return r.held && r.epoch == epoch }

// sessionState keeps its epoch in the primitive.
//
//llbplint:leased -- mutated only while holding the record's epoch
type sessionState struct {
	mu     sync.Mutex
	lease  record
	frames int
}

// claim takes the lease through the primitive, which makes it a fence
// constructor like jobState.claim.
func (s *sessionState) claim() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	epoch := s.lease.take()
	s.frames = 0
	return epoch
}

// close ends the lease through the primitive: a fence constructor too.
func (s *sessionState) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lease.end()
	s.frames = -1
}

// apply writes under the primitive's guard: a call to a method of the
// leased record that reads its epoch.
func (s *sessionState) apply(epoch uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.lease.holds(epoch) {
		return false
	}
	s.frames++
	return true
}

// leak writes with no guard at all, primitive or not.
func (s *sessionState) leak(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frames = n // want fencecheck:`unfenced write to lease-owned sessionState\.frames`
}

// Push stands in for a push connection: a worker root that claims,
// applies under the guard (from an if condition, whose calls are
// walked), leaks, and closes.
//
//llbplint:worker -- executes on behalf of the remote client holding the claim
func Push(s *sessionState) {
	epoch := s.claim()
	if s.apply(epoch) {
		s.leak(2)
	}
	s.close()
}
