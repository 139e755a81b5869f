package kernel

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/vm"
)

// TestFaultChargesPinned fixes what the fault path and a shootdown charge
// on the sim meter, one event at a time, on four CPUs with a time slice no
// event outlasts: a demand zero fill of a data page; a resident refill
// after the TLB entry was flushed; a fork child's first touch of the data
// region, which walks the deferred duplication; the child's copy-on-write
// break; and the munmap of an eight-page mapping, whose page shootdown
// interrupts the three other CPUs. Each row is what the process's CPU was
// charged beyond what
// the process was (its MemAccess and syscall-entry charges), which leaves
// exactly the charges the fault handler, the syscall exit and the
// shootdown make straight to the CPU.
func TestFaultChargesPinned(t *testing.T) {
	type row struct {
		name   string
		cycles int64
	}
	var got []row
	measure := func(c *Context, name string, event func() error) {
		cpu := c.cpu()
		cyc, own := cpu.Cycles.Load(), c.P.Cycles.Load()
		if err := event(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if now := c.cpu(); now != cpu {
			t.Errorf("%s: the process moved from CPU %d to CPU %d", name, cpu.ID, now.ID)
		}
		got = append(got, row{name, cpu.Cycles.Load() - cyc - (c.P.Cycles.Load() - own)})
	}
	const pages = 8

	s := NewSystem(Config{NCPU: 4, MemFrames: 8192, TimeSlice: 1 << 40})
	s.Start("driver", func(c *Context) {
		const va = vm.DataBase
		measure(c, "zero fill", func() error { return c.Store32(va, 1) })
		measure(c, "resident refill", func() error {
			c.cpu().TLB.FlushPage(va.VPN(), c.P.ASID)
			_, err := c.Load32(va)
			return err
		})
		if _, err := c.Fork("child", func(cc *Context) {
			measure(cc, "first touch of a lazy clone", func() error {
				_, err := cc.Load32(va)
				return err
			})
			measure(cc, "copy-on-write", func() error { return cc.Store32(va, 2) })
		}); err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		c.Wait()
		m, err := c.Mmap(pages)
		if err != nil {
			t.Errorf("mmap: %v", err)
			return
		}
		for i := 0; i < pages; i++ {
			c.Store32(m+hw.VAddr(i*hw.PageSize), 1)
		}
		measure(c, "munmap", func() error { return c.Munmap(m) })
	})
	waitIdle(t, s)

	want := []row{
		{"zero fill", 1524},                   // PageFault + PageZero
		{"resident refill", 20},               // TLBRefill
		{"first touch of a lazy clone", 1044}, // TLBRefill + 64 pages × RegionDup
		{"copy-on-write", 2548},               // PageFault + PageCopy
		{"munmap", 1260},                      // SyscallExit + 3 × IPI
	}
	if len(got) != len(want) {
		t.Fatalf("measured %d events, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("%s: charged %d cycles; pinned %d", w.name, got[i].cycles, w.cycles)
		}
	}
}
