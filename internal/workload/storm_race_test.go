package workload

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/proc"
	"repro/internal/uspin"
)

// TestResidentFaultStormRace drives the lock-free fault fast path from
// every member while the driver churns everything that can race with it:
// map/unmap of shared regions (generation bumps that evict the members'
// pregion caches, batched page shootdowns) and forks whose COW children
// break pages against the members' resident writes. Run under -race this
// is the integration check for the whole §6.2 fast path; the assertions
// are conservation ones — teardown frees every frame, and the lock-free
// path actually carried the storm. It runs at each of hostLevels'
// GOMAXPROCS: how far members get against the churn is the host's doing.
func TestResidentFaultStormRace(t *testing.T) {
	for _, procs := range hostLevels() {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const window = 128
			members := 4
			touches := 3000
			if testing.Short() {
				touches = 600
			}
			s := newSession(small())
			s.Sys.Start("driver", func(c *kernel.Context) {
				va, err := c.Mmap(window)
				if err != nil {
					panic(err)
				}
				for i := 0; i < window; i++ {
					c.Store32(va+hw.VAddr(i*pageSize), uint32(i))
				}
				gate := uspin.Barrier{VA: dataBase, N: uint32(members) + 1}
				gate.Init(c)
				for mIdx := 0; mIdx < members; mIdx++ {
					c.Sproc("refaulter", func(cc *kernel.Context, arg int64) {
						gate.Enter(cc) // storm start
						p := int(arg) * 13
						for i := 0; i < touches; i++ {
							p = (p + 13) % window
							cc.Store32(va+hw.VAddr(p*pageSize), uint32(i))
						}
						gate.Enter(cc) // storm done
					}, proc.PRSALL, int64(mIdx))
				}
				gate.Enter(c) // release the storm

				// Churn while the storm runs. Attach/detach bumps the shared-list
				// generation (cache eviction) and the 4-page unmap takes the batched
				// page-shootdown path; each fork duplicates the shared image, so its
				// child's writes race the members' COW re-breaks.
				for i := 0; i < 6; i++ {
					mva, err := c.Mmap(4)
					if err != nil {
						panic(err)
					}
					c.Store32(mva, uint32(i))
					if err := c.Munmap(mva); err != nil {
						panic(err)
					}
					if _, err := c.Fork("cowkid", func(cc *kernel.Context) {
						for j := 0; j < window; j += 8 {
							cc.Store32(va+hw.VAddr(j*pageSize), ^uint32(j))
						}
					}); err != nil {
						panic(err)
					}
					if _, _, err := c.Wait(); err != nil {
						panic(err)
					}
				}

				gate.Enter(c) // wait for every member
				for mIdx := 0; mIdx < members; mIdx++ {
					if _, _, err := c.Wait(); err != nil {
						panic(err)
					}
				}
			})
			s.Sys.WaitIdle()

			mem := s.Sys.Machine.Mem
			if mem.FastFills.Load() == 0 {
				t.Error("storm never took the lock-free fast path")
			}
			if mem.SlowFills.Load() == 0 {
				t.Error("COW churn never took the striped slow path")
			}
			if s.Sys.Machine.PageShootdowns.Load() == 0 {
				t.Error("small unmaps never took the batched page-shootdown path")
			}
		})
	}
}

// hostLevels is the GOMAXPROCS settings a storm runs at: one, two, and every
// CPU the host has when that is more.
func hostLevels() []int {
	levels := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		levels = append(levels, n)
	}
	return levels
}
