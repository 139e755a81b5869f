package kernel

// Frame lifetime across a shootdown (paper §6.2): once an update's flush has
// returned, no member stores into the pages it is about to free. The
// allocator's self-check is the oracle — hw.(*Memory).grant panics when it
// hands out a frame that was written while it was free — and these tests are
// the load that needs it. Mutations, each of which fails the test named:
//
//   - hw.TLB.Access runs op after dropping the lock (the frame number
//     leaves it): hw.TestTLBFlushWaitsOutAccess, and TestAccessStormRace in
//     9 runs of 30 — the in-flight window proper is a few stores a run;
//   - core.UpdateVM does not bump the generation on entry:
//     core.TestUpdateBumpsGenerationOnEntry (the storm 0 of 30: the fill has
//     to be installed between the flush and the bump on exit);
//   - Context.fault reads the generation after ResolveShared, not before
//     (an update that began since the fill goes unseen): TestAccessStormRace,
//     6 runs of 6 — the late install is most of the hole;
//   - Context.fault installs into the TLB of the CPU the fault began on
//     (some other member is running there by now and can use the entry
//     before it is validated): TestFaultInstallsWhereItResumes (the storm 2
//     of 30);
//   - core.ReclaimQuota frees before it flushes:
//     TestReclaimQuotaKeepsRacingStoreStormRace, 6 runs of 6.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/hw"
	"repro/internal/proc"
	"repro/internal/vm"
)

// hostLevels is the GOMAXPROCS settings a storm runs at: how far members get
// against each other is the host scheduler's doing.
func hostLevels() []int {
	levels := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		levels = append(levels, n)
	}
	return levels
}

// TestAccessStormRace: PR_SALL writers store through whatever address the
// leader last published, ignoring SIGSEGV, while the leader maps a page
// there, touches it, publishes it and unmaps it again, tens of thousands of
// times; a process forked outside the group allocates private pages all the
// while, patterns them and reads them back. Every frame the leader's unmap
// frees goes to whoever allocates next — the outsider, or the leader's next
// mapping — so a writer's store that outlives the unmap's shootdown either
// trips the allocator's self-check or changes a page no member can name.
func TestAccessStormRace(t *testing.T) {
	for _, procs := range hostLevels() {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const writers, rounds, sentinel = 3, 20000, 0x5707ed
			s := NewSystem(testConfig())
			base := s.Machine.Mem.InUse()
			s.Start("leader", func(c *Context) {
				var published atomic.Uint32 // the mapping's address, 0 while there is none
				var done atomic.Bool
				c.Fork("outsider", func(cc *Context) {
					const pages = 4
					for stamp := uint32(1); !done.Load(); stamp++ {
						va, err := cc.Mmap(pages)
						if err != nil {
							t.Errorf("outsider mmap: %v", err)
							return
						}
						for pg := 0; pg < pages; pg++ {
							cc.Store32(va+hw.VAddr(pg*hw.PageSize), stamp)
						}
						for pg := 0; pg < pages; pg++ {
							// Word 0 is the outsider's own; the writers' word must still be zero.
							for w, want := range []uint32{stamp, 0} {
								if v, err := cc.Load32(va + hw.VAddr(pg*hw.PageSize+4*w)); err != nil || v != want {
									t.Errorf("outsider page %d word %d reads %#x (%v), want %#x: a group member's store landed in a private page", pg, w, v, err, want)
									return
								}
							}
						}
						cc.Munmap(va)
					}
				})
				for w := 0; w < writers; w++ {
					c.Sproc("writer", func(cc *Context, _ int64) {
						cc.Signal(proc.SIGSEGV, func(int) {})
						for !done.Load() {
							if va := hw.VAddr(published.Load()); va != 0 {
								cc.Store32(va+4, sentinel)
							}
						}
					}, proc.PRSALL, 0)
				}
				for r := 0; r < rounds; r++ {
					va, err := c.Mmap(1)
					if err != nil {
						t.Errorf("mmap: %v", err)
						break
					}
					c.Store32(va, uint32(r))
					published.Store(uint32(va))
					if err := c.Munmap(va); err != nil {
						t.Errorf("munmap: %v", err)
						break
					}
				}
				published.Store(0)
				done.Store(true)
				for i := 0; i < writers+1; i++ {
					c.Wait()
				}
			})
			waitIdle(t, s)
			if used := s.Machine.Mem.InUse(); used != base {
				t.Errorf("frames in use: %d after the storm, %d before", used, base)
			}
		})
	}
}

// TestReclaimQuotaKeepsRacingStoreStormRace: members each flip one word of a
// page between zero and a sentinel, reading every store back, while the
// leader drives the group over its frame quota with zero-page reads, so
// reclaim passes keep finding the writer's page all zero. A pass that frees
// the page before it has flushed the writer's translation loses the store in
// flight (the read-back refaults a fresh zero page) and leaves a dirty frame
// on the free list for the self-check to find.
func TestReclaimQuotaKeepsRacingStoreStormRace(t *testing.T) {
	for _, procs := range hostLevels() {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const writers, quota, sweeps, sentinel = 3, 8, 300, 0xfeed
			s := NewSystem(testConfig())
			s.Start("leader", func(c *Context) {
				c.Signal(proc.SIGSEGV, func(int) {})
				flip, err := c.Mmap(writers)
				if err != nil {
					t.Errorf("mmap: %v", err)
					return
				}
				zeros, err := c.Mmap(4 * quota)
				if err != nil {
					t.Errorf("mmap: %v", err)
					return
				}
				var done atomic.Bool
				for w := 0; w < writers; w++ {
					c.Sproc("writer", func(cc *Context, w int64) {
						cc.Signal(proc.SIGSEGV, func(int) {})
						va := flip + hw.VAddr(w*hw.PageSize)
						for !done.Load() {
							for _, v := range []uint32{sentinel, 0} {
								// A store the quota refused is not a lost one.
								if cc.Store32(va, v) != nil {
									continue
								}
								if got, err := cc.Load32(va); err == nil && got != v {
									t.Errorf("stored %#x, read back %#x: a reclaim pass freed the page under the store", v, got)
									return
								}
							}
						}
					}, proc.PRSALL, int64(w))
				}
				if err := c.Setshares(GroupLimits{CPUShares: -1, FrameQuota: quota, MemberCap: -1}); err != nil {
					t.Errorf("setshares: %v", err)
				}
				for i := 0; i < sweeps; i++ {
					for pg := 0; pg < 4*quota; pg++ {
						c.Load32(zeros + hw.VAddr(pg*hw.PageSize))
					}
				}
				done.Store(true)
				for w := 0; w < writers; w++ {
					c.Wait()
				}
				if u, _ := c.Getusage(); u.ReclaimedZeros == 0 {
					t.Error("the sweeps never drove a reclaim pass")
				}
			})
			waitIdle(t, s)
		})
	}
}

// TestFaultInstallsWhereItResumes: a member's fault sleeps on the read lock
// behind an update, another process takes the CPU it vacated, and when the
// update is over the member can only resume on the updater's CPU. The fill's
// charges and its translation belong to that CPU: the one the fault began on
// is running somebody else, who charges nothing here, so its cycle counter
// must not move.
func TestFaultInstallsWhereItResumes(t *testing.T) {
	cfg := testConfig()
	cfg.NCPU = 2
	s := NewSystem(cfg)
	s.Start("leader", func(c *Context) {
		va, err := c.Mmap(1)
		if err != nil {
			t.Errorf("mmap: %v", err)
			return
		}
		var began, hogOn atomic.Int32
		began.Store(-1)
		hogOn.Store(-1)
		var beganCycles atomic.Int64
		var release atomic.Bool
		wait := func(what string, cond func() bool) {
			for i := 0; !cond(); i++ {
				if i == 50_000_000 {
					t.Errorf("gave up waiting until %s", what)
					return
				}
				runtime.Gosched()
			}
		}
		pid, _ := c.Sproc("faulter", func(cc *Context, _ int64) {
			defer release.Store(true)
			wait("the update has begun", func() bool { return groupOf(cc.P).Acc.UpdateHeld() })
			began.Store(cc.P.CPU.Load())
			if err := cc.Store32(va, 7); err != nil {
				t.Errorf("store: %v", err)
			}
			cpu := cc.cpu()
			if int32(cpu.ID) == began.Load() {
				t.Errorf("the faulter resumed on cpu %d, where it began: the scenario no longer migrates it", cpu.ID)
			}
			if !cpu.TLB.Resident(va.VPN(), cc.P.ASID) {
				t.Errorf("no translation in the TLB of cpu %d, where the faulter resumed", cpu.ID)
			}
			if now := s.Machine.CPUs[began.Load()].Cycles.Load(); now != beganCycles.Load() {
				t.Errorf("cpu %d, where the fault began, was charged %d cycles while another process ran on it", began.Load(), now-beganCycles.Load())
			}
		}, proc.PRSALL, 0)
		faulter, _ := s.Lookup(pid)
		sa := groupOf(c.P)
		sa.UpdateVM(c.P, func(*vm.Space, vm.Shoot) error {
			wait("the faulter sleeps on the read lock", func() bool {
				return sa.Acc.WaitCount() == 1 && faulter.State() == proc.SSleep
			})
			s.Start("hog", func(cc *Context) {
				hogOn.Store(cc.P.CPU.Load())
				wait("the faulter is done", release.Load)
			})
			wait("the hog runs", func() bool { return hogOn.Load() >= 0 })
			if hogOn.Load() != began.Load() {
				t.Errorf("the hog runs on cpu %d, the fault began on cpu %d", hogOn.Load(), began.Load())
			}
			beganCycles.Store(s.Machine.CPUs[began.Load()].Cycles.Load())
			return nil
		})
		c.Wait()
	})
	waitIdle(t, s)
}
