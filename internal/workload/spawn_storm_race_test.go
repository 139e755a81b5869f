package workload

import (
	"errors"
	"testing"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/proc"
)

// TestFailedSpawnStormRace is the failed-creation conservation storm:
// spawn members under a tight member cap, a frame quota, and an armed
// fault plan, so every failure path fires — member-cap EAGAIN before any
// side effect, quota refusals, injected hard ENOMEMs that kill a member
// mid-fill, and reaps that run while fills are still failing. Run under
// -race (the tier1 StormRace line). Every charge is one granted frame, so
// the assertions are the account law Charges - Uncharges == Used at
// quiescence, plus the usual drains: the group account back to zero and
// no machine frame leaked.
func TestFailedSpawnStormRace(t *testing.T) {
	rounds := 48
	if testing.Short() {
		rounds = 16
	}
	cfg := small()
	cfg.MaxProcs = 64
	cfg.FaultSeed = 0xC0FFEE
	cfg.FaultRate = 150

	s := newSession(cfg)
	var acct *hw.FrameAcct
	sawEAGAIN := false
	s.Sys.Start("driver", func(c *kernel.Context) {
		// First member just establishes the group so the limits have a
		// principal to attach to; retry around injected failures.
		for kernel.GroupOf(c.P) == nil {
			if _, err := c.Sproc("seed", func(cc *kernel.Context, _ int64) {}, proc.PRSALL, 0); err == nil {
				for {
					if _, _, werr := c.Wait(); werr == nil || errors.Is(werr, kernel.ErrNoChildren) {
						break
					}
				}
			}
		}
		acct = kernel.GroupOf(c.P).FrameAcct()
		// The plan injects into setshares too; retry around EINTR.
		for {
			if err := c.Setshares(kernel.GroupLimits{CPUShares: 0, FrameQuota: 200, MemberCap: 4}); err == nil {
				break
			} else if !errors.Is(err, kernel.EINTR) && !errors.Is(err, kernel.EAGAIN) {
				panic(err)
			}
		}
		for i := 0; i < rounds; i++ {
			live := 0
			// Over-subscribe the member cap so some sprocs take the
			// EAGAIN path (possibly after the gateway's retry backoff).
			for m := 0; m < 6; m++ {
				_, err := c.Sproc("stormer", func(cc *kernel.Context, arg int64) {
					// Touch a run of private pages; injected hard ENOMEMs
					// kill the member mid-fill, leaving the pages already
					// charged for the reap to release.
					va, err := cc.MmapPrivate(12)
					if err != nil {
						return
					}
					for j := 0; j < 12; j++ {
						cc.Store32(va+hw.VAddr(j*pageSize), uint32(arg)+uint32(j))
					}
					cc.Munmap(va)
				}, proc.PRSALL, int64(i*8+m))
				if err == nil {
					live++
				} else if errors.Is(err, kernel.EAGAIN) {
					sawEAGAIN = true
				}
			}
			for live > 0 {
				if _, _, err := c.Wait(); err == nil {
					live--
				} else if errors.Is(err, kernel.ErrNoChildren) {
					break
				}
			}
		}
	})
	s.Sys.WaitIdle()

	if acct == nil {
		t.Fatal("driver never captured the group account")
	}
	if !sawEAGAIN {
		t.Log("note: member-cap EAGAIN path never fired this seed")
	}
	ch, un := acct.Charges.Load(), acct.Uncharges.Load()
	if ch == 0 {
		t.Fatal("storm never charged a frame to the group")
	}
	if ch-un != acct.Used() {
		t.Fatalf("account law broken: charges %d - uncharges %d != used %d", ch, un, acct.Used())
	}
	if u := acct.Used(); u != 0 {
		t.Fatalf("group account leaked %d frames after drain", u)
	}
	mem := s.Sys.Machine.Mem
	if mem.InUse() != 0 {
		t.Fatalf("frames leaked: %d still in use after full teardown", mem.InUse())
	}
}
