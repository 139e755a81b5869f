package core

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/proc"
	"repro/internal/vm"
)

// ErrTextWrite reports a store into a shared text region.
var ErrTextWrite = vm.ErrTextWrite

// UpdateVM runs one change to the shared address space under §6.2's update
// protocol, all of it here so no caller can hold part of it: take the update
// lock, slept on as p — any member that faults now sleeps on the shared read
// lock until the update is complete; run change on the space, with the Shoot
// that flushes the group's ASID from every processor at the cost of p's CPU
// (vm.Space runs it between unlisting a range and freeing its frames); bump
// the generation, so no member trusts a pregion it cached before; release.
// It is also the lock CarveStack and ReleaseStack need, and the one a
// member's private list maps under (its arena is the group's).
func (sa *ShAddr) UpdateVM(p *proc.Proc, change func(sp *vm.Space, shoot vm.Shoot) error) error {
	sa.Acc.Lock(p)
	defer sa.Acc.Unlock()
	sa.gen.Add(1) // on entry too: a translation resolved before now is not installed after change's flush
	sa.updater = p
	err := change(&sa.space, sa.shootVM)
	sa.touchRegions()
	return err
}

// shoot is the block's vm.Shoot: one counted shootdown of the group's ASID,
// its IPIs charged to the updater's CPU (to nobody when there is no updater:
// Leave). Caller is inside UpdateVM.
func (sa *ShAddr) shoot(vpn uint32, npages int) {
	sa.Shootdowns.Add(1)
	m := sa.opts.Machine
	if m == nil {
		return
	}
	var cpu *hw.CPU
	if sa.updater != nil {
		cpu = m.CPUs[sa.updater.CPU.Load()]
	}
	m.ShootdownRange(cpu, vpn, npages, sa.ASID)
}

// ViewVM runs view on the shared address space under the read lock, taken
// as p: the read side of UpdateVM, for syscalls and diagnostics that look
// without filling. view must not keep sp.
func (sa *ShAddr) ViewVM(p *proc.Proc, view func(sp *vm.Space)) {
	slot := sa.Acc.RLockOn(p, int(p.CPU.Load()))
	view(&sa.space)
	sa.Acc.RUnlockOn(slot)
}

// ResolveShared resolves a page fault against the shared pregion list
// under the shared read lock — the hot path of §6.2. Multiple members
// fault concurrently; an updater excludes them all. found is false when no
// shared pregion covers va; lazyPages is the page-table slots a lazy-dup
// materialization walked on this fault, so the kernel charges the deferred
// duplication cost to the CPU that took the first touch.
//
// The common case touches no lock word shared with another CPU: the read
// lock is taken on the faulting CPU's own reader slot, the pregion comes
// from the process's last-hit cache (valid because the list generation,
// bumped by every update, still matches), and a resident fill is two
// atomic loads in the region's page table.
func (sa *ShAddr) ResolveShared(p *proc.Proc, va hw.VAddr, write bool) (pfn hw.PFN, writable bool, res vm.FillResult, lazyPages int, found bool, err error) {
	cpu := int(p.CPU.Load())
	if sa.opts.ExclusiveVMLock {
		// Ablation: the rejected design — faults serialize on one lock.
		sa.Acc.Lock(p)
		defer sa.Acc.Unlock()
		pr := sa.space.Find(va)
		if pr == nil {
			return hw.NoPFN, false, vm.FillCached, 0, false, nil
		}
		pfn, writable, res, lazyPages, err = pr.Reg.FillAccounted(pr.PageIndex(va), write, cpu, &sa.frameAcct)
		return pfn, writable, res, lazyPages, true, err
	}
	slot := sa.Acc.RLockOn(p, cpu)
	gen := sa.gen.Load()
	pr := p.VMC.Get(gen)
	if pr != nil && pr.Contains(va) {
		sa.CacheHits.AddOn(cpu, 1)
	} else {
		pr = sa.space.Find(va)
		if pr == nil {
			sa.Acc.RUnlockOn(slot)
			return hw.NoPFN, false, vm.FillCached, 0, false, nil
		}
		sa.CacheMisses.AddOn(cpu, 1)
		p.VMC.Put(gen, pr)
	}
	pfn, writable, res, lazyPages, err = pr.Reg.FillAccounted(pr.PageIndex(va), write, cpu, &sa.frameAcct)
	sa.Acc.RUnlockOn(slot)
	return pfn, writable, res, lazyPages, true, err
}

// ReclaimQuota is the over-quota degradation pass: inside the update
// bracket, vm.Space.ReclaimZero finds the shared list's resident,
// sole-referenced, all-zero frames charged to the group, shoots down every
// TLB and frees those no store reached first. Dropping all-zero pages is
// semantically lossless (the next touch refaults an identical zero fill), so
// this runs before a member's over-quota fault may surface ENOMEM — the
// allocator's reclaim-before-failure contract, scoped to one group. Returns
// the frames released.
func (sa *ShAddr) ReclaimQuota(p *proc.Proc) (freed int) {
	sa.UpdateVM(p, func(sp *vm.Space, shoot vm.Shoot) error {
		freed = sp.ReclaimZero(&sa.frameAcct, int(p.CPU.Load()), shoot)
		sa.QuotaReclaims.Add(1)
		sa.ReclaimedZeros.Add(int64(freed))
		return nil
	})
	return freed
}

// UnshareVM detaches p from the shared address space (§8 "stop sharing"):
// it returns a copy-on-write private image of everything p could see, and
// p's sproc stack is withdrawn from the shared space. The whole transition
// is one update with one whole-space flush, which serves the duplication
// (writable bits were cleared under the other members) and the withdrawn
// stack alike, so it cannot be elided whatever the dup reported.
func (sa *ShAddr) UnshareVM(p *proc.Proc) (img vm.Space) {
	sa.UpdateVM(p, func(sp *vm.Space, shoot vm.Shoot) error {
		img, _ = p.Private.Dup(sa.opts.EagerDup, sp)
		shoot(0, vm.WholeSpace)
		// No member can refill a translation while the update lock is held,
		// so the flush above has already emptied the stack's range.
		sa.ReleaseStack(sp, p, vm.NoShoot)
		// p resolves faults privately from now on; a cached shared pregion
		// must not survive into a future group, where a colliding generation
		// could validate it.
		p.VMC.Clear()
		return nil
	})
	return img
}

// CarveStack allocates a non-overlapping stack range in the shared space
// for a new sproc child (paper §5.1: "a new stack is automatically created
// for the child process ... visible to all other processes in the share
// group, and will automatically grow in size as needed"). The stack is a
// demand-zero region of maxPages, mapped in into — sp itself for a PR_SADDR
// child, the child's private image otherwise — and recorded so ReleaseStack
// can withdraw it. The caller is inside UpdateVM, which handed it sp — as
// the process whose thread is running; child has no thread yet.
//
// at == 0 recycles the range of a departed member's stack when one fits and
// carves fresh address space otherwise; a range into cannot take — a
// private image may still hold its copy of the departed member's stack — is
// passed over. A non-zero at is restore's fidelity requirement — a
// checkpointed member's stack reappears at its recorded base, not wherever
// re-carving would land, or the carve fails — and the carve cursor is moved
// past it so later carves cannot collide.
func (sa *ShAddr) CarveStack(sp, into *vm.Space, child *proc.Proc, mem *hw.Memory, at hw.VAddr, maxPages int) (*vm.PRegion, error) {
	pr := &vm.PRegion{Reg: vm.NewRegion(mem, vm.RStack, maxPages), Base: at}
	var passed []hw.VAddr
	for {
		if at == 0 {
			pr.Base = sa.stacks.Alloc(maxPages)
		}
		err := into.MapAt(pr)
		if err == nil {
			break
		}
		if at != 0 {
			return nil, fmt.Errorf("core: stack for pid %d: %w", child.PID, err)
		}
		passed = append(passed, pr.Base)
	}
	for _, base := range passed {
		sa.stacks.Free(base, maxPages)
	}
	if at != 0 {
		sa.stacks.Reserve(at, maxPages)
	}
	sa.memberStack[child] = memberStack{pr: pr, pages: maxPages, shared: into == sp}
	return pr, nil
}

// ReleaseStack withdraws the stack CarveStack recorded for member: a shared
// one is unmapped from sp (unlisted, flushed with shoot, freed); either way
// the address range is recycled for future carves. The caller is inside
// UpdateVM: Leave for a departing member, the kernel for a child it could
// not finish building.
func (sa *ShAddr) ReleaseStack(sp *vm.Space, member *proc.Proc, shoot vm.Shoot) {
	ms, ok := sa.memberStack[member]
	if !ok {
		return
	}
	delete(sa.memberStack, member)
	if ms.shared {
		_ = sp.Unmap(ms.pr, shoot) // fails only if the member munmapped its own stack
	}
	sa.stacks.Free(ms.pr.Base, ms.pages)
}
