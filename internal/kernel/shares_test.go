package kernel

import (
	"errors"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/hw"
	"repro/internal/proc"
)

// Round trip: setshares writes the group's entitlement record, getusage
// reads it back next to the delivery counters, and the leave-unchanged
// convention (negative fields) really leaves fields unchanged.
func TestSetsharesGetusage(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("leader", func(c *Context) {
		c.Sproc("m", func(*Context, int64) {}, proc.PRSALL, 0)
		c.Wait()
		if err := c.Setshares(GroupLimits{CPUShares: 5, FrameQuota: 100, MemberCap: 3}); err != nil {
			t.Fatalf("setshares: %v", err)
		}
		u, err := c.Getusage()
		if err != nil {
			t.Fatalf("getusage: %v", err)
		}
		if u.CPUShares != 5 || u.FrameQuota != 100 || u.MemberCap != 3 {
			t.Errorf("usage echoes (%d,%d,%d), want (5,100,3)", u.CPUShares, u.FrameQuota, u.MemberCap)
		}
		if u.Members != 1 {
			t.Errorf("members = %d, want 1 (the leader)", u.Members)
		}
		// Adjust one knob; the others must hold.
		if err := c.Setshares(GroupLimits{CPUShares: -1, FrameQuota: -1, MemberCap: 2}); err != nil {
			t.Fatalf("setshares update: %v", err)
		}
		u, _ = c.Getusage()
		if u.CPUShares != 5 || u.FrameQuota != 100 || u.MemberCap != 2 {
			t.Errorf("after partial update: (%d,%d,%d), want (5,100,2)", u.CPUShares, u.FrameQuota, u.MemberCap)
		}
		// Setting shares armed fair-share dispatch, and usage accrues.
		if !s.Stats().FairShareOn {
			t.Error("FairShareOn false after setshares")
		}
	})
	waitIdle(t, s)
}

// The member cap is enforced by sproc with EAGAIN — after the gateway's
// sfRetry backoff budget, since attrition could admit the call.
func TestMemberCapEAGAIN(t *testing.T) {
	s := NewSystem(testConfig())
	s.Start("leader", func(c *Context) {
		release := make(chan struct{})
		c.Sproc("m1", func(*Context, int64) { <-release }, proc.PRSALL, 0)
		if err := c.Setshares(GroupLimits{CPUShares: -1, FrameQuota: -1, MemberCap: 2}); err != nil {
			t.Fatalf("setshares: %v", err)
		}
		// Two members live (leader + m1): the cap is full.
		if _, err := c.Sproc("m2", func(*Context, int64) {}, proc.PRSALL, 0); !errors.Is(err, EAGAIN) {
			t.Errorf("sproc over member cap: %v, want EAGAIN", err)
		}
		close(release)
		c.Wait()
		// Attrition freed a slot: the same sproc is admitted now.
		if _, err := c.Sproc("m3", func(*Context, int64) {}, proc.PRSALL, 0); err != nil {
			t.Errorf("sproc after attrition: %v", err)
		}
		c.Wait()
	})
	waitIdle(t, s)
}

// An armed fault plan may inject EINTR into setshares/getusage (their only
// permitted injection). Neither is restartable, so the injection surfaces
// to the caller — the degradation contract tests depend on that.
func TestSetsharesGetusageEINTRInjection(t *testing.T) {
	s := NewSystem(testConfig())
	var sawSet, sawGet bool
	s.Start("leader", func(c *Context) {
		c.Sproc("m", func(*Context, int64) {}, proc.PRSALL, 0)
		c.Wait()
		// Arm at 100% only now, so group setup above ran clean.
		plan := faultinject.New(11, 0)
		plan.SetRate(faultinject.SiteSyscallEnter, 1000)
		s.ArmFaults(plan)
		if err := c.Setshares(GroupLimits{CPUShares: 2, FrameQuota: -1, MemberCap: -1}); errors.Is(err, EINTR) {
			sawSet = true
		}
		if _, err := c.Getusage(); errors.Is(err, EINTR) {
			sawGet = true
		}
		s.ArmFaults(nil)
		// The injected failure happened before the body: nothing was applied.
		u, err := c.Getusage()
		if err != nil {
			t.Fatalf("getusage after disarm: %v", err)
		}
		if u.CPUShares != 1 {
			t.Errorf("shares = %d after injected setshares, want untouched default 1", u.CPUShares)
		}
	})
	waitIdle(t, s)
	if !sawSet || !sawGet {
		t.Errorf("injected EINTR not surfaced: setshares=%v getusage=%v", sawSet, sawGet)
	}
}

// The frame-quota errno contract: a group that exhausts its quota on pages
// that cannot be reclaimed (non-zero data) sees the fault surface as
// ENOMEM — classified through the FaultError chain — and never as a bare
// EFAULT; and the quota accountant never lets residency exceed the cap.
func TestFrameQuotaENOMEMContract(t *testing.T) {
	const quota = 8
	s := NewSystem(testConfig())
	s.Start("leader", func(c *Context) {
		c.Sproc("m", func(*Context, int64) {}, proc.PRSALL, 0)
		c.Wait()
		if err := c.Setshares(GroupLimits{CPUShares: -1, FrameQuota: quota, MemberCap: -1}); err != nil {
			t.Fatalf("setshares: %v", err)
		}
		c.Signal(proc.SIGSEGV, func(int) {})
		base, err := c.Mmap(4 * quota)
		if err != nil {
			t.Fatalf("mmap: %v", err)
		}
		// Phase 1 — reads only. Every fill is an all-zero frame, so each
		// over-quota fault can reclaim an older zero page and proceed:
		// the group degrades (refault + rezero) instead of failing.
		reads := 0
		for p := 0; p < 4*quota; p++ {
			if _, err := c.Load32(base + hw.VAddr(p*hw.PageSize)); err == nil {
				reads++
			}
		}
		u, err := c.Getusage()
		if err != nil {
			t.Fatalf("getusage: %v", err)
		}
		if reads < 3*quota {
			t.Errorf("only %d/%d zero-page reads survived the quota", reads, 4*quota)
		}
		if u.QuotaHits == 0 || u.QuotaReclaims == 0 || u.ReclaimedZeros == 0 {
			t.Errorf("after read stream: QuotaHits=%d QuotaReclaims=%d ReclaimedZeros=%d, want all > 0",
				u.QuotaHits, u.QuotaReclaims, u.ReclaimedZeros)
		}

		// Phase 2 — writes. Dirty pages are unreclaimable, so once the
		// quota is full of them the reclaim pass runs dry and the fault
		// must surface as ENOMEM (never EFAULT).
		sawENOMEM := false
		for p := 0; p < 4*quota; p++ {
			err := c.Store32(base+hw.VAddr(p*hw.PageSize), 0xbeef)
			if err == nil {
				continue
			}
			if !errors.Is(err, hw.ErrNoQuota) {
				t.Fatalf("quota fault cause = %v, want hw.ErrNoQuota in chain", err)
			}
			if eno := ErrnoOf(err); eno != ENOMEM {
				t.Fatalf("quota fault errno = %v, want ENOMEM", eno)
			}
			sawENOMEM = true
		}
		if !sawENOMEM {
			t.Error("dirtied 4x the quota without a quota fault")
		}
		u, _ = c.Getusage()
		if u.FramesUsed > quota {
			t.Errorf("FramesUsed = %d, quota %d exceeded", u.FramesUsed, quota)
		}
	})
	waitIdle(t, s)
}
