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

// updateVM runs one change to the caller's address space inside §6.2's
// update bracket, with the Shoot that flushes the space from every
// processor. It is the one place that asks "private or group space?": sp is
// where the caller's mappings live and what it resizes — the share block's
// space, under its update lock (core.UpdateVM), for a member sharing
// PR_SADDR; the caller's own otherwise. A member's private list maps from
// the group's arena, so it too is edited only inside the bracket.
func (c *Context) updateVM(change func(sp *vm.Space, shoot vm.Shoot) error) error {
	if sa := c.vmGroup(); sa != nil {
		return sa.UpdateVM(c.P, change)
	}
	if c.shoot == nil {
		c.shoot = c.shootPrivate // bound at the first update, not per call: a method value is a heap object
	}
	return change(&c.P.Private, c.shoot)
}

// shootPrivate is the vm.Shoot of a space only the caller runs in.
func (c *Context) shootPrivate(vpn uint32, npages int) {
	c.S.Machine.ShootdownRange(c.cpu(), vpn, npages, c.P.ASID)
}

// viewVM is updateVM's read side: view sees sp under the group's read lock
// and must not change it.
func (c *Context) viewVM(view func(sp *vm.Space)) {
	if sa := c.vmGroup(); sa != nil {
		sa.ViewVM(c.P, view)
		return
	}
	view(&c.P.Private)
}

// Brk returns the current program break (first address past the data
// region).
func (c *Context) Brk() hw.VAddr {
	return invoke1(c, SysBrk, func() (end hw.VAddr) {
		c.viewVM(func(sp *vm.Space) {
			if d := sp.Find(vm.DataBase); d != nil {
				end = d.End()
			}
		})
		return end
	})
}

// Sbrk grows (positive) or shrinks (negative) the data region by delta
// bytes, rounded up to whole pages, returning the previous break. For a
// VM-sharing member the change happens under the group's update lock: by
// the time Sbrk returns, every member sees the new size (paper §5.1); a
// shrink flushes the freed tail from every TLB before its pages are freed
// (paper §6.2) — only the tail, so a small shrink leaves the members' other
// cached translations alone.
func (c *Context) Sbrk(delta int64) (hw.VAddr, error) {
	return invoke(c, SysSbrk, func() (old hw.VAddr, err error) {
		pages := int((max(delta, -delta) + hw.PageSize - 1) / hw.PageSize)
		err = c.updateVM(func(sp *vm.Space, shoot vm.Shoot) error {
			d := sp.Find(vm.DataBase)
			if d == nil {
				return ErrNoRegion
			}
			// The break and the tail are read here, inside the bracket:
			// another member may have moved them since the call began.
			old = d.End()
			if delta >= 0 {
				if pages > 0 && sp.Grow(d, pages) != nil {
					return ErrNoMem
				}
				return nil
			}
			if _, err := sp.Shrink(d, pages, shoot); err != nil {
				return ErrNoRegion
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		return old, nil
	})
}

// attach maps reg at a fresh range of the caller's address space and
// returns its base. For a VM-sharing member the mapping lands on the shared
// pregion list, so "all other share group members will immediately see that
// new virtual region" (paper §6.2).
func (c *Context) attach(reg *vm.Region) (base hw.VAddr) {
	c.updateVM(func(sp *vm.Space, _ vm.Shoot) error {
		base = sp.Map(reg)
		return nil
	})
	return base
}

// Mmap creates an anonymous demand-zero mapping of npages pages and
// returns its base address.
func (c *Context) Mmap(npages int) (hw.VAddr, error) {
	return invoke(c, SysMmap, func() (hw.VAddr, error) {
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
// handler scans before the shared list, at a range of the group's arena, so
// no group mapping can collide with it.
func (c *Context) MmapPrivate(npages int) (hw.VAddr, error) {
	return invoke(c, SysMmapPrivate, func() (base hw.VAddr, err error) {
		if npages <= 0 {
			return 0, fmt.Errorf("kernel: mmap of %d pages", npages)
		}
		reg := vm.NewRegion(c.S.Machine.Mem, vm.RShm, npages)
		c.updateVM(func(*vm.Space, vm.Shoot) error {
			base = c.P.Private.Map(reg)
			return nil
		})
		return base, nil
	})
}

// Munmap removes the mapping based at va — looked up as a fault would, on
// the private list first — in §6.2's order: inside the update bracket the
// pregion is unlisted, every CPU's TLB is flushed, and only then are the
// physical pages freed.
func (c *Context) Munmap(va hw.VAddr) error {
	return invoke0(c, SysMunmap, func() error {
		return c.updateVM(func(sp *vm.Space, shoot vm.Shoot) error {
			// The private list first, then the group's: sp is the private
			// list itself for a process sharing no address space, and
			// only a miss searches it twice.
			for _, s := range [2]*vm.Space{&c.P.Private, sp} {
				if pr := s.Find(va); pr != nil && pr.Base == va {
					return s.Unmap(pr, shoot)
				}
			}
			return ErrNoRegion
		})
	})
}
