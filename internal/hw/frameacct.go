package hw

import (
	"fmt"
	"sync/atomic"

	"repro/internal/percpu"
)

// ErrNoQuota is returned when an allocation would push a resource
// principal's frame account over its quota. It is distinct from
// ErrNoMemory — the machine has frames, the principal has spent its
// budget — so the fault path can reclaim the principal's own pages
// before giving up, and only then surface ENOMEM.
var ErrNoQuota = fmt.Errorf("hw: frame quota exceeded")

// FrameAcct is one resource principal's physical-frame account (a share
// group's, in this kernel). Every frame grant charges the allocating
// principal's account and tags the frame with it; the release at the
// frame's final DecRef uncharges the same account, whichever CPU and
// process performs it. COW aliasing (IncRef) does not charge — the
// charge stays with the principal that allocated the frame.
//
// The conservation invariants, checked by the -race storm tests once the
// principal's members have been joined: Used == Charges - Uncharges, and
// Used == 0 once every frame the principal allocated has been released.
// used is the reservation every grant and release must agree on, so it is
// one word; Charges and Uncharges are statistics, sharded per CPU.
type FrameAcct struct {
	quota atomic.Int64 // frame ceiling; 0 = unlimited
	used  atomic.Int64 // frames currently charged

	Charges   percpu.Counter // total grants charged
	Uncharges percpu.Counter // total releases uncharged
	QuotaHits atomic.Int64   // allocations refused at the quota
}

// Quota returns the account's frame ceiling (0 = unlimited).
func (a *FrameAcct) Quota() int64 { return a.quota.Load() }

// SetQuota replaces the frame ceiling. Lowering it below current use does
// not evict frames; it only refuses further grants until use drains.
func (a *FrameAcct) SetQuota(n int64) {
	if n < 0 {
		n = 0
	}
	a.quota.Store(n)
}

// Used returns the number of frames currently charged to the account.
func (a *FrameAcct) Used() int64 { return a.used.Load() }

// tryCharge reserves one frame against the quota for an allocation on cpu,
// failing without side effects when the account is full.
func (a *FrameAcct) tryCharge(cpu int) bool {
	for {
		u := a.used.Load()
		if q := a.quota.Load(); q > 0 && u >= q {
			a.QuotaHits.Add(1)
			return false
		}
		if a.used.CompareAndSwap(u, u+1) {
			a.Charges.AddOn(cpu, 1)
			return true
		}
	}
}

// uncharge releases one frame's worth of quota, for a release on cpu.
func (a *FrameAcct) uncharge(cpu int) {
	if a.used.Add(-1) < 0 {
		panic("hw: FrameAcct uncharge below zero")
	}
	a.Uncharges.AddOn(cpu, 1)
}
