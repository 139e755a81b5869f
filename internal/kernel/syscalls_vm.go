package kernel

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/proc"
	"repro/internal/vm"
)

// VM errors.
var (
	ErrNoRegion = errors.New("kernel: address not mapped") // EINVAL
	ErrNoMem    = errors.New("kernel: out of memory")      // ENOMEM
)

// vmGroup returns the share block whose shared pregion list is part of the
// caller's address space — the caller's block iff it is a member sharing
// PR_SADDR — and nil for a process that resolves every address from its
// private list. It is the one place that asks: a member created without
// PR_SADDR holds a copy-on-write image of the group's space and neither
// sees nor touches what the sharers map, grow or unmap afterwards (§5.1).
func (c *Context) vmGroup() *core.ShAddr {
	if sa := groupOf(c.P); sa != nil && c.P.ShMask()&proc.PRSADDR != 0 {
		return sa
	}
	return nil
}

// dataRegion finds the caller's data region — on the shared list of sa for
// a VM-sharing member, in the private list (sa nil) otherwise.
func (c *Context) dataRegion() (d *vm.PRegion, sa *core.ShAddr) {
	if sa = c.vmGroup(); sa != nil {
		return sa.FindShared(c.P, vm.DataBase), sa
	}
	return vm.Find(c.P.Private, vm.DataBase), nil
}

// Brk returns the current program break (first address past the data
// region).
func (c *Context) Brk() hw.VAddr {
	return invoke1(c, sysBrk, func() hw.VAddr {
		if d, _ := c.dataRegion(); d != nil {
			return d.End()
		}
		return 0
	})
}

// Sbrk grows (positive) or shrinks (negative) the data region by delta
// bytes, rounded up to whole pages, returning the previous break. For a
// VM-sharing member the change happens under the group's update lock: by
// the time Sbrk returns, every member sees the new size (paper §5.1); a
// shrink performs the synchronous machine-wide TLB shootdown before
// freeing pages (paper §6.2).
func (c *Context) Sbrk(delta int64) (hw.VAddr, error) {
	return invoke(c, sysSbrk, func() (hw.VAddr, error) {
		d, sa := c.dataRegion()
		if d == nil {
			return 0, ErrNoRegion
		}
		old := d.End()
		if delta == 0 {
			return old, nil
		}
		pages := int((absI64(delta) + hw.PageSize - 1) / hw.PageSize)
		p := c.P
		mach := c.S.Machine
		if sa != nil {
			if delta > 0 {
				sa.GrowShared(p, d, pages)
			} else {
				cpu := c.cpu()
				// Only the freed tail needs to leave the TLBs: a small
				// shrink is shot down page-by-page so members keep their
				// other cached translations. The tail is computed inside
				// the closure, which ShrinkShared runs under the group's
				// update lock: another member may grow or shrink the
				// region between our size check and the lock, and a range
				// captured early would flush the wrong pages while the
				// ones actually freed kept stale TLB entries.
				if _, err := sa.ShrinkShared(p, d, pages, func() {
					vpn := uint32(d.Base>>hw.PageShift) + uint32(d.Reg.Pages()-pages)
					mach.ShootdownRange(cpu, vpn, pages, sa.ASID)
				}); err != nil {
					return 0, ErrNoRegion
				}
			}
			return old, nil
		}
		if delta > 0 {
			d.Reg.Grow(pages)
		} else {
			if pages > d.Reg.Pages() {
				return 0, ErrNoRegion
			}
			vpn := uint32(d.Base>>hw.PageShift) + uint32(d.Reg.Pages()-pages)
			mach.ShootdownRange(c.cpu(), vpn, pages, p.ASID)
			d.Reg.Shrink(pages)
		}
		return old, nil
	})
}

func absI64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// attach maps reg at a fresh range of the caller's mapping arena and
// returns its base. For a VM-sharing member the mapping lands on the shared
// pregion list, so "all other share group members will immediately see that
// new virtual region" (paper §6.2).
func (c *Context) attach(reg *vm.Region) hw.VAddr {
	p := c.P
	if sa := c.vmGroup(); sa != nil {
		return sa.AttachAnon(p, reg)
	}
	base := p.Shm.Alloc(reg.Pages())
	p.Private = vm.Insert(p.Private, &vm.PRegion{Reg: reg, Base: base})
	return base
}

// Mmap creates an anonymous demand-zero mapping of npages pages and
// returns its base address.
func (c *Context) Mmap(npages int) (hw.VAddr, error) {
	return invoke(c, sysMmap, func() (hw.VAddr, error) {
		if npages <= 0 {
			return 0, fmt.Errorf("kernel: mmap of %d pages", npages)
		}
		return c.attach(vm.NewRegion(c.S.Machine.Mem, vm.RShm, npages)), nil
	})
}

// MmapPrivate creates an anonymous mapping visible only to the caller,
// even when the caller shares its address space with a group — the §8
// extension ("it could be possible to share part of the VM image and have
// copy-on-write access to other parts ... it only requires proper
// management of the private pregion list and the shared pregion list").
// The mapping lands on the caller's private pregion list, which the fault
// handler scans before the shared list.
func (c *Context) MmapPrivate(npages int) (hw.VAddr, error) {
	return invoke(c, sysMmapPrivate, func() (hw.VAddr, error) {
		if npages <= 0 {
			return 0, fmt.Errorf("kernel: mmap of %d pages", npages)
		}
		p := c.P
		var base hw.VAddr
		if sa := c.vmGroup(); sa != nil {
			// Carve the range from the shared arena so it cannot collide
			// with group mappings, but attach the region privately.
			base = sa.AttachPrivateRange(p, npages)
		} else {
			base = p.Shm.Alloc(npages)
		}
		reg := vm.NewRegion(c.S.Machine.Mem, vm.RShm, npages)
		p.Private = vm.Insert(p.Private, &vm.PRegion{Reg: reg, Base: base})
		return base, nil
	})
}

// Munmap removes the mapping based at va, following the detach protocol:
// for a shared mapping the group's update lock is taken, every CPU's TLB
// is flushed, and only then are the physical pages freed.
func (c *Context) Munmap(va hw.VAddr) error {
	return invoke0(c, sysMunmap, func() error {
		p := c.P
		mach := c.S.Machine
		if sa := c.vmGroup(); sa != nil {
			pr := sa.FindShared(p, va)
			if pr == nil || pr.Base != va {
				return ErrNoRegion
			}
			cpu := c.cpu()
			// The range is read inside the closure — under DetachShared's
			// update lock — so a concurrent resize of the region cannot
			// leave the shootdown covering a stale extent.
			return sa.DetachShared(p, pr, func() {
				mach.ShootdownRange(cpu, uint32(pr.Base>>hw.PageShift), pr.Reg.Pages(), sa.ASID)
			})
		}
		pr := vm.Find(p.Private, va)
		if pr == nil || pr.Base != va {
			return ErrNoRegion
		}
		p.Private = vm.Remove(p.Private, pr)
		mach.ShootdownRange(c.cpu(), uint32(pr.Base>>hw.PageShift), pr.Reg.Pages(), p.ASID)
		p.Shm.FreeMapping(pr)
		pr.Reg.Detach()
		return nil
	})
}

// ResidentPages reports the number of resident pages in the caller's
// visible image (diagnostics).
func (c *Context) ResidentPages() int {
	return invoke1(c, sysResident, func() int {
		n := vm.ResidentPages(c.P.Private)
		if sa := c.vmGroup(); sa != nil {
			n += vm.ResidentPages(sa.RegionList(c.P))
		}
		return n
	})
}
