package lease

import (
	"context"
	"testing"
	"time"
)

var t0 = time.Unix(1_700_000_000, 0)

const ttl = time.Minute

func mustClaim(t *testing.T, l *Lease, owner string, now time.Time) (uint64, context.Context) {
	t.Helper()
	epoch, ctx, ok := l.Claim(context.Background(), owner, now, ttl)
	if !ok {
		t.Fatalf("claim by %s at %v failed", owner, now.Sub(t0))
	}
	return epoch, ctx
}

// TestExpiresAtDeadline: a hold is live up to 1 ns before its deadline
// and expired from the deadline on, for Expired and Claim alike.
func TestExpiresAtDeadline(t *testing.T) {
	var l Lease
	if l.Expired(t0.Add(time.Hour)) {
		t.Fatal("a free lease reports expired")
	}
	e1, _ := mustClaim(t, &l, "a", t0)
	deadline := t0.Add(ttl)
	if l.Deadline() != deadline {
		t.Fatalf("deadline = %v, want %v", l.Deadline(), deadline)
	}
	before := deadline.Add(-time.Nanosecond)
	if l.Expired(before) {
		t.Error("expired 1 ns before the deadline")
	}
	if _, _, ok := l.Claim(context.Background(), "b", before, ttl); ok {
		t.Error("live hold taken over 1 ns before its deadline")
	}
	if !l.Expired(deadline) {
		t.Error("not expired at the deadline")
	}
	if !l.Holds(e1) {
		t.Error("an expired hold stopped holding before anyone took over")
	}
	if e2, _ := mustClaim(t, &l, "b", deadline); e2 == e1 {
		t.Errorf("takeover reused epoch %d", e1)
	}
}

// TestSupersededEpochFenced: once a hold is taken over, its epoch can
// neither renew nor pass Holds, and the new holder's deadline is its own.
func TestSupersededEpochFenced(t *testing.T) {
	var l Lease
	e1, _ := mustClaim(t, &l, "a", t0)
	if !l.Renew(e1, t0.Add(30*time.Second), ttl) {
		t.Fatal("holder could not renew")
	}
	if l.Deadline() != t0.Add(30*time.Second+ttl) {
		t.Fatalf("renewed deadline = %v", l.Deadline().Sub(t0))
	}
	e2, _ := mustClaim(t, &l, "b", t0.Add(2*time.Hour))
	if l.Holds(e1) {
		t.Error("superseded epoch passes Holds")
	}
	if l.Renew(e1, t0.Add(3*time.Hour), ttl) {
		t.Error("superseded epoch renewed")
	}
	if l.Deadline() != t0.Add(2*time.Hour+ttl) {
		t.Errorf("superseded renewal moved the new holder's deadline to %v", l.Deadline().Sub(t0))
	}
	if !l.Holds(e2) || l.Owner() != "b" {
		t.Errorf("new holder: Holds=%v owner=%q", l.Holds(e2), l.Owner())
	}
	if l.Release(e1) {
		t.Error("superseded epoch released the new hold")
	}
	if !l.Holds(e2) {
		t.Error("a superseded release ended the new hold")
	}
}

// TestTakeoverCancelsExpiredHolder: claiming over an expired hold
// cancels that hold's context, and only that one.
func TestTakeoverCancelsExpiredHolder(t *testing.T) {
	var l Lease
	_, ctx1 := mustClaim(t, &l, "a", t0)
	_, ctx2 := mustClaim(t, &l, "b", t0.Add(ttl))
	if ctx1.Err() == nil {
		t.Error("expired holder's context survived the takeover")
	}
	if ctx2.Err() != nil {
		t.Error("new holder's context is already cancelled")
	}
}

// TestReleaseAndRevokeFence: ending a hold, by its holder or by the
// authority, fences the epoch it ends, cancels its context and frees the
// lease for an immediate claim.
func TestReleaseAndRevokeFence(t *testing.T) {
	var l Lease
	e1, ctx1 := mustClaim(t, &l, "a", t0)
	if !l.Release(e1) {
		t.Fatal("holder could not release")
	}
	if l.Holds(e1) || l.Renew(e1, t0, ttl) || l.Held() || l.Owner() != "" {
		t.Errorf("released epoch still holds (Held=%v owner=%q)", l.Held(), l.Owner())
	}
	if ctx1.Err() == nil {
		t.Error("release left the hold's context live")
	}
	if l.Release(e1) {
		t.Error("a second release reported success")
	}

	e2, ctx2 := mustClaim(t, &l, "b", t0) // free: no deadline to wait out
	if owner, ok := l.Revoke(); !ok || owner != "b" {
		t.Fatalf("Revoke = (%q, %v), want (b, true)", owner, ok)
	}
	if l.Holds(e2) || l.Renew(e2, t0, ttl) {
		t.Error("revoked epoch still holds")
	}
	if ctx2.Err() == nil {
		t.Error("revoke left the hold's context live")
	}
	if _, ok := l.Revoke(); ok {
		t.Error("revoking a free lease reported a holder")
	}
	if l.Expired(t0.Add(time.Hour)) {
		t.Error("a revoked lease reports expired")
	}
}

// TestEpochPolicy: every holder change moves the epoch, holds start on
// odd epochs, and Claims counts the holds started.
func TestEpochPolicy(t *testing.T) {
	var l Lease
	if l.Holds(0) || l.Claims() != 0 {
		t.Fatalf("zero lease: Holds(0)=%v Claims=%d", l.Holds(0), l.Claims())
	}
	e1, _ := mustClaim(t, &l, "a", t0)
	l.Release(e1)
	e2, _ := mustClaim(t, &l, "b", t0)
	e3, _ := mustClaim(t, &l, "c", t0.Add(ttl)) // takeover: end + start
	if e1 != 1 || e2 != 3 || e3 != 5 {
		t.Errorf("epochs = %d, %d, %d; want 1, 3, 5", e1, e2, e3)
	}
	if l.Claims() != 3 {
		t.Errorf("Claims = %d, want 3", l.Claims())
	}
	l.Revoke()
	if l.Epoch() != 6 || l.Claims() != 3 {
		t.Errorf("after revoke: epoch %d, Claims %d; want 6, 3", l.Epoch(), l.Claims())
	}
}
