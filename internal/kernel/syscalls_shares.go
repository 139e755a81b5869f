package kernel

import (
	"fmt"

	"repro/internal/core"
)

// This file is the typed resource-control plane for share groups: the
// share block is the resource principal (the §8 observation that "the
// shared address block ... provides a convenient handle for making
// scheduling decisions about the process group as a whole", extended from
// scheduling to every resource the group consumes). setshares(2) writes a
// group's entitlements; getusage(2) reads back what the group has actually
// been delivered.

// GroupLimits is the settable entitlement record of one share group — the
// argument of setshares(2). Fields follow a leave-unchanged convention so
// a caller can adjust one knob without reading the others first:
//
//   - CPUShares: relative CPU entitlement weight of the group under
//     fair-share scheduling. <= 0 leaves the current weight; setting any
//     positive weight arms fair-share dispatch machine-wide (one-way).
//   - FrameQuota: cap on resident physical frames charged to the group.
//     < 0 leaves the current quota; 0 removes it (unlimited). Lowering a
//     quota below current residency evicts nothing — the group degrades
//     through zero-page reclaim at its next over-quota fault.
//   - MemberCap: ceiling on concurrent group members enforced by
//     sproc(2)/thread_create(2) with EAGAIN. < 0 leaves the current cap;
//     0 removes it.
type GroupLimits struct {
	CPUShares  int32
	FrameQuota int64
	MemberCap  int32
}

// GroupUsage is the delivery record of one share group — the result of
// getusage(2). Entitlements are echoed next to the consumption they
// govern, so one call answers "what is this group promised, and what has
// it gotten".
type GroupUsage struct {
	// CPU: entitlement weight, undecayed cycles actually delivered to
	// members, the decayed usage accumulator the scheduler banded from,
	// and the band itself (0 = most favoured).
	CPUShares    int32
	Delivered    int64
	DecayedUsage float64
	Band         int32

	// Memory: frames currently charged to the group against its quota
	// (0 = unlimited), fills refused by the quota, reclaim passes run
	// before letting an over-quota fault surface, and zero pages those
	// passes recovered.
	FramesUsed     int64
	FrameQuota     int64
	QuotaHits      int64
	QuotaReclaims  int64
	ReclaimedZeros int64

	// Membership: current member count against the sproc cap (0 =
	// unlimited).
	Members   int
	MemberCap int32
}

// Setshares applies lim to the caller's share group (setshares(2)). It
// fails with EINVAL outside a share group: the share block is the
// principal the entitlements attach to, so there is nothing to configure
// before the first sproc. The first positive CPUShares anywhere in the
// system arms fair-share dispatch; a system in which setshares is never
// called schedules exactly as the share-blind baseline.
func (c *Context) Setshares(lim GroupLimits) error {
	return invoke0(c, sysSetshares, func() error {
		sa := groupOf(c.P)
		if sa == nil {
			return fmt.Errorf("kernel: setshares outside a share group")
		}
		if lim.CPUShares > 0 {
			sa.CPUAcct().SetShares(lim.CPUShares)
			c.S.Sched.SetFairShare()
		}
		if lim.FrameQuota >= 0 {
			sa.FrameAcct().SetQuota(lim.FrameQuota)
		}
		if lim.MemberCap >= 0 {
			sa.SetMemberCap(lim.MemberCap)
		}
		return nil
	})
}

// Getusage returns the caller's group entitlement and delivery record
// (getusage(2)). Fails with EINVAL outside a share group.
func (c *Context) Getusage() (GroupUsage, error) {
	return invoke(c, sysGetusage, func() (GroupUsage, error) {
		sa := groupOf(c.P)
		if sa == nil {
			return GroupUsage{}, fmt.Errorf("kernel: getusage outside a share group")
		}
		return c.S.groupUsage(sa), nil
	})
}

// groupUsage snapshots one group's entitlement/delivery record.
func (s *System) groupUsage(sa *core.ShAddr) GroupUsage {
	now := s.Machine.TotalCycles()
	ca, fa := sa.CPUAcct(), sa.FrameAcct()
	return GroupUsage{
		CPUShares:    ca.Shares(),
		Delivered:    ca.Delivered.Load(),
		DecayedUsage: ca.Usage(now),
		Band:         ca.Band(),

		FramesUsed:     fa.Used(),
		FrameQuota:     fa.Quota(),
		QuotaHits:      fa.QuotaHits.Load(),
		QuotaReclaims:  sa.QuotaReclaims.Load(),
		ReclaimedZeros: sa.ReclaimedZeros.Load(),

		Members:   sa.Size(),
		MemberCap: sa.MemberCap(),
	}
}
