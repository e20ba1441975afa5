// Package lease is llbpd's one epoch-fenced ownership record, held by a
// job's worker dispatch or a session's push connection. The owner embeds
// a Lease under its own mutex and passes now from its injected clock.
// When to claim or revoke stays the owner's policy.
//
// Epoch policy: the epoch moves whenever the holder changes. Claim moves
// it to start a hold (ending an expired one first), Release and Revoke
// to end one. So an epoch names at most one hold, and a holder whose
// hold ended (released, revoked or taken over) never passes Holds again.
// Holds start on odd epochs, so Claims, the holds started, is
// (epoch+1)/2.
package lease

import (
	"context"
	"time"
)

// Lease records who holds the owner's state, until when, and at which
// epoch. The zero value is free, at epoch 0.
//
//llbplint:leased -- the ownership record itself: every write moves the epoch or is fenced on it
type Lease struct {
	epoch    uint64
	owner    string
	deadline time.Time
	cancel   context.CancelFunc // ends the hold's context; non-nil exactly while held
}

// Claim starts a hold for owner until now+ttl. It fails while the current
// holder's deadline lies ahead. Otherwise it ends that hold, cancelling
// its context, and returns the new hold's epoch with a context derived
// from parent that is cancelled when the new hold ends.
func (l *Lease) Claim(parent context.Context, owner string, now time.Time, ttl time.Duration) (uint64, context.Context, bool) {
	if l.cancel != nil && now.Before(l.deadline) {
		return 0, nil, false
	}
	l.Revoke()
	ctx, cancel := context.WithCancel(parent)
	l.epoch++
	l.owner, l.deadline, l.cancel = owner, now.Add(ttl), cancel
	return l.epoch, ctx, true
}

// Holds reports whether epoch is the current hold's.
func (l *Lease) Holds(epoch uint64) bool { return epoch == l.epoch && l.cancel != nil }

// Renew moves epoch's deadline to now+ttl, reporting whether epoch holds.
func (l *Lease) Renew(epoch uint64, now time.Time, ttl time.Duration) bool {
	if !l.Holds(epoch) {
		return false
	}
	l.deadline = now.Add(ttl)
	return true
}

// Expired reports whether the lease is held and its deadline is not
// after now: a hold expires at its deadline.
func (l *Lease) Expired(now time.Time) bool { return l.cancel != nil && !now.Before(l.deadline) }

// Release ends epoch's hold, the holder's own hand-back, reporting
// whether epoch held the lease.
func (l *Lease) Release(epoch uint64) bool {
	if !l.Holds(epoch) {
		return false
	}
	l.Revoke()
	return true
}

// Revoke ends the current hold, whatever its epoch, and cancels its
// context. It returns the holder it removed, or false if none.
func (l *Lease) Revoke() (owner string, ok bool) {
	if l.cancel == nil {
		return "", false
	}
	owner = l.owner
	l.cancel()
	l.epoch++
	l.owner, l.deadline, l.cancel = "", time.Time{}, nil
	return owner, true
}

// Held reports whether anyone holds the lease.
func (l *Lease) Held() bool { return l.cancel != nil }

// Owner is the holder ("" when free).
func (l *Lease) Owner() string { return l.owner }

// Epoch is the current epoch: while held, the hold's.
func (l *Lease) Epoch() uint64 { return l.epoch }

// Claims counts the holds started.
func (l *Lease) Claims() uint64 { return (l.epoch + 1) / 2 }

// Deadline is the hold's expiry (zero when free).
func (l *Lease) Deadline() time.Time { return l.deadline }
