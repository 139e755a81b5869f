package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/proc"
)

// TestFairShareStormRace is the fair-share conservation storm (run under
// -race in tier 1): several share groups of CPU burners plus one
// quota-capped page streamer hammer the machine, and afterwards the books
// must balance exactly —
//
//	FlushedCyc == Σ group Delivered + UngroupedCyc   (no cycle lost or
//	double-charged between the per-CPU flush and the group accounts), and
//	Charges − Uncharges == Used == 0 per group        (every frame granted
//	to a group was uncharged on its final release).
func TestFairShareStormRace(t *testing.T) {
	cfg := kernel.Config{NCPU: 4, MemFrames: 4096, TimeSlice: 1500, MaxProcs: 64}
	sys := kernel.NewSystem(cfg)
	clock := sys.Machine.TotalCycles

	const groups = 3
	const members = 3
	// The group blocks outlive their procs: capture them host-side from
	// inside each leader so the conservation check can read the accounts
	// after every member is gone.
	var sas [groups]*core.ShAddr

	sys.Start("storm-driver", func(c *kernel.Context) {
		deadline := clock() + 1_200_000
		for g := 0; g < groups; g++ {
			g := g
			c.Fork("storm-leader", func(lc *kernel.Context) {
				stream := g == groups-1 // last group streams against a frame quota
				// Found the group with a throwaway member so the limits are
				// on the books before any worker touches memory.
				lc.Sproc("storm-founder", func(*kernel.Context, int64) {}, proc.PRSADDR, 0)
				lc.Wait()
				sas[g] = kernel.GroupOf(lc.P)
				lim := kernel.GroupLimits{CPUShares: int32(g + 1), FrameQuota: -1, MemberCap: -1}
				if stream {
					lim.FrameQuota = 16
				}
				if err := lc.Setshares(lim); err != nil {
					t.Errorf("storm setshares: %v", err)
				}
				for w := 0; w < members; w++ {
					lc.Sproc("storm-worker", func(wc *kernel.Context, _ int64) {
						if stream {
							wc.Signal(proc.SIGSEGV, func(int) {})
							base, err := wc.Mmap(48)
							if err != nil {
								t.Errorf("storm mmap: %v", err)
								return
							}
							// At least one full sweep even if the (global-
							// cycle) deadline already passed: the sweep is
							// what drives the group over its quota.
							for pass := 0; pass == 0 || clock() < deadline; pass++ {
								for p := 0; p < 48; p++ {
									wc.Load32(base + hw.VAddr(p*hw.PageSize))
								}
							}
						} else {
							for clock() < deadline {
								wc.Add32(dataBase, 1)
							}
						}
					}, proc.PRSADDR|proc.PRSFDS, int64(w))
				}
				for w := 0; w < members; w++ {
					lc.Wait()
				}
			})
		}
		for g := 0; g < groups; g++ {
			c.Wait()
		}
	})
	sys.WaitIdle()

	var delivered int64
	for g, sa := range sas {
		if sa == nil {
			t.Fatalf("group %d never captured", g)
		}
		delivered += sa.CPUAcct().Delivered.Load()
		fa := sa.FrameAcct()
		if diff := fa.Charges.Load() - fa.Uncharges.Load(); diff != fa.Used() {
			t.Errorf("group %d: Charges-Uncharges = %d but Used = %d", g, diff, fa.Used())
		}
		if used := fa.Used(); used != 0 {
			t.Errorf("group %d: %d frames still charged after teardown", g, used)
		}
	}
	flushed := sys.Sched.FlushedCyc.Load()
	ungrouped := sys.Sched.UngroupedCyc.Load()
	if flushed != delivered+ungrouped {
		t.Errorf("cycle conservation broken: flushed %d != delivered %d + ungrouped %d (off by %d)",
			flushed, delivered, ungrouped, flushed-delivered-ungrouped)
	}
	if delivered == 0 {
		t.Error("no cycles delivered to any group: the storm never ran")
	}
	if sas[groups-1].QuotaReclaims.Load() == 0 {
		t.Error("quota group never reclaimed: the storm missed the over-quota path")
	}
	st := sys.Stats()
	if !st.FairShareOn || st.FairPasses == 0 {
		t.Errorf("fair-share dispatch not exercised: on=%v passes=%d", st.FairShareOn, st.FairPasses)
	}
}

// TestFairShareEntitlement is the S8 acceptance run: three groups with
// shares 4:2:1 on an overcommitted machine. Delivered CPU per group must
// land within 5 points of entitlement, and turning fair-share on must not
// cost aggregate throughput (within 5% of the share-blind baseline). The
// machine has one simulated CPU, as S10's driver does: with several, how
// far each burner gets follows the host scheduler, not the fair-share one,
// and a loaded host skews delivery by up to 10 points; on one, time slices
// alone pace the groups against each other. The price: on one CPU the
// throughput check cannot catch a fair-share dispatcher that leaves CPUs
// idle. The four-CPU run returns with a deterministic clock (ROADMAP 1(c)).
func TestFairShareEntitlement(t *testing.T) {
	if testing.Short() {
		t.Skip("S8 acceptance run is long")
	}
	cfg := DefaultConfig()
	cfg.NCPU = 1
	fc := FairShareConfig{
		Shares:  []int32{4, 2, 1},
		Members: 3,         // 3 groups x 3 burners on 1 CPU: 9x overcommit
		Horizon: 6_000_000, // long enough for the decayed bands to settle
	}

	fc.Fair = true
	fair := FairShare(cfg, fc)
	if err := fair.MaxShareError(); err > 0.05 {
		t.Errorf("fair run: delivered %v off entitlement %v by %.3f, want <= 0.05",
			fair.DeliveredFrac(), fair.EntitledFrac(), err)
	}

	fc.Fair = false
	blind := FairShare(cfg, fc)
	if blind.Ops == 0 {
		t.Fatal("share-blind baseline did no work")
	}
	if ratio := float64(fair.Ops) / float64(blind.Ops); ratio < 0.95 {
		t.Errorf("fair-share costs throughput: %d ops vs blind %d (ratio %.3f, want >= 0.95)",
			fair.Ops, blind.Ops, ratio)
	}
}

// TestFairShareQuotaDegrades checks the S8 quota leg: the capped group
// lives far above its frame quota yet keeps making progress by reclaiming
// its own zero pages — it degrades, it does not die with ENOMEM.
func TestFairShareQuotaDegrades(t *testing.T) {
	cfg := DefaultConfig()
	m := FairShare(cfg, FairShareConfig{
		Shares:      []int32{2, 1},
		Members:     2,
		Horizon:     1_500_000,
		Fair:        true,
		QuotaGroup:  1,
		QuotaFrames: 32,
		QuotaPages:  96, // 3x the quota per streamer
	})
	u := m.Usage[1]
	if u.QuotaHits == 0 || u.QuotaReclaims == 0 || u.ReclaimedZeros == 0 {
		t.Errorf("quota group never throttled: hits=%d reclaims=%d zeros=%d",
			u.QuotaHits, u.QuotaReclaims, u.ReclaimedZeros)
	}
	if u.FramesUsed > u.FrameQuota {
		t.Errorf("quota breached: %d frames used, cap %d", u.FramesUsed, u.FrameQuota)
	}
	if m.GroupOps[1] == 0 {
		t.Error("quota group made no progress: degradation turned into starvation")
	}
}
