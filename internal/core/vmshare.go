package core

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/proc"
	"repro/internal/vm"
)

// ErrTextWrite reports a store into a shared text region.
var ErrTextWrite = vm.ErrTextWrite

// ResolveShared resolves a page fault against the shared pregion list
// under the shared read lock — the hot path of §6.2. Multiple members
// fault concurrently; an updater excludes them all. found is false when no
// shared pregion covers va.
//
// The common case touches no lock word shared with another CPU: the read
// lock is taken on the faulting CPU's own reader slot, the pregion comes
// from the process's last-hit cache (valid because the list generation,
// bumped by every mutation under the update lock, still matches), and a
// resident fill is two atomic loads in the region's page table.
func (sa *ShAddr) ResolveShared(p *proc.Proc, va hw.VAddr, write bool) (pfn hw.PFN, writable bool, res vm.FillResult, found bool, err error) {
	pfn, writable, res, _, found, err = sa.ResolveSharedAccounted(p, va, write)
	return pfn, writable, res, found, err
}

// ResolveSharedAccounted is ResolveShared additionally reporting the
// page-table slots a lazy-dup materialization walked on this fault, so the
// kernel charges the deferred duplication cost to the CPU that took the
// first touch.
func (sa *ShAddr) ResolveSharedAccounted(p *proc.Proc, va hw.VAddr, write bool) (pfn hw.PFN, writable bool, res vm.FillResult, lazyPages int, found bool, err error) {
	cpu := int(p.CPU.Load())
	if sa.opts.ExclusiveVMLock {
		// Ablation: the rejected design — faults serialize on one lock.
		sa.Acc.Lock(p)
		defer sa.Acc.Unlock()
		pr := vm.Find(sa.regions, va)
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
		sa.CacheHits.Add(1)
	} else {
		pr = vm.Find(sa.regions, va)
		if pr == nil {
			sa.Acc.RUnlockOn(slot)
			return hw.NoPFN, false, vm.FillCached, 0, false, nil
		}
		sa.CacheMisses.Add(1)
		p.VMC.Put(gen, pr)
	}
	pfn, writable, res, lazyPages, err = pr.Reg.FillAccounted(pr.PageIndex(va), write, cpu, &sa.frameAcct)
	sa.Acc.RUnlockOn(slot)
	return pfn, writable, res, lazyPages, true, err
}

// ReclaimQuota is the over-quota degradation pass: under the update lock,
// walk the shared pregion list freeing resident, sole-referenced, all-zero
// frames charged to the group, then shoot down every TLB so no member can
// reach a freed frame. Dropping all-zero pages is semantically lossless
// (the next touch refaults an identical zero fill), so this runs before a
// member's over-quota fault is allowed to surface ENOMEM — the same
// reclaim-before-failure contract the frame allocator's cache drain
// provides for machine-wide exhaustion. Returns the frames released.
func (sa *ShAddr) ReclaimQuota(p *proc.Proc, shoot func()) int {
	cpu := int(p.CPU.Load())
	sa.Acc.Lock(p)
	freed := vm.ReclaimZeroList(sa.regions, &sa.frameAcct, cpu)
	sa.QuotaReclaims.Add(1)
	if freed > 0 {
		sa.touchRegions()
		sa.ReclaimedZeros.Add(int64(freed))
		shoot()
		sa.Shootdowns.Add(1)
	}
	sa.Acc.Unlock()
	return freed
}

// UnshareVM detaches p from the shared address space (§8 "stop sharing"):
// p gets a copy-on-write private image of everything it could see, a fresh
// address-space identifier, and its sproc stack is withdrawn from the
// shared list. The whole transition happens under the update lock with a
// shootdown, exactly like a shrink.
func (sa *ShAddr) UnshareVM(p *proc.Proc, shoot func()) []*vm.PRegion {
	sa.Acc.Lock(p)
	// The stack withdrawal below frees address space unconditionally, so
	// the shootdown cannot be elided here whatever the dup reported.
	img, _ := dupImage(sa.opts.EagerDup, p.Private, sa.regions)
	// Withdraw p's own stack from the shared space; p keeps the COW dup.
	if ms := sa.takeMemberStack(p); ms.pr != nil && ms.shared {
		sa.regions = vm.Remove(sa.regions, ms.pr)
		defer ms.pr.Reg.Detach()
	}
	sa.touchRegions()
	// p resolves faults privately from now on; a cached shared pregion
	// must not survive into a future group, where a colliding generation
	// could validate it.
	p.VMC.Clear()
	shoot()
	sa.Shootdowns.Add(1)
	sa.Acc.Unlock()
	return img
}

// FindShared locates the shared pregion containing va under the read lock
// (for syscalls that validate an address without filling it).
func (sa *ShAddr) FindShared(p *proc.Proc, va hw.VAddr) *vm.PRegion {
	slot := sa.Acc.RLockOn(p, int(p.CPU.Load()))
	pr := vm.Find(sa.regions, va)
	sa.Acc.RUnlockOn(slot)
	return pr
}

// Regions returns a snapshot of the shared pregion list (diagnostics).
func (sa *ShAddr) RegionList(p *proc.Proc) []*vm.PRegion {
	slot := sa.Acc.RLockOn(p, int(p.CPU.Load()))
	out := make([]*vm.PRegion, len(sa.regions))
	copy(out, sa.regions)
	sa.Acc.RUnlockOn(slot)
	return out
}

// AttachShared adds a pregion to the shared list under the update lock
// (mmap/shmat by a VM-sharing member: "if one process adds a pregion, all
// other share group members will immediately see that new virtual
// region"). Attaching never frees pages, so no shootdown is needed.
func (sa *ShAddr) AttachShared(p *proc.Proc, pr *vm.PRegion) error {
	sa.Acc.Lock(p)
	defer sa.Acc.Unlock()
	if vm.Overlaps(sa.regions, pr.Base, pr.Reg.Pages()) {
		return fmt.Errorf("core: attach overlaps existing shared region at %#x", uint32(pr.Base))
	}
	sa.regions = vm.Insert(sa.regions, pr)
	sa.touchRegions()
	return nil
}

// DetachShared removes a pregion from the shared list and frees its pages,
// following the §6.2 protocol exactly: take the update lock (any member
// that faults now sleeps on the shared read lock), synchronously flush the
// TLBs of all processors via shoot, and only then release the physical
// pages.
func (sa *ShAddr) DetachShared(p *proc.Proc, pr *vm.PRegion, shoot func()) error {
	sa.Acc.Lock(p)
	defer sa.Acc.Unlock()
	before := len(sa.regions)
	sa.regions = vm.Remove(sa.regions, pr)
	if len(sa.regions) == before {
		return fmt.Errorf("core: detach of pregion not on shared list")
	}
	sa.touchRegions()
	shoot()
	sa.Shootdowns.Add(1)
	sa.shm.FreeMapping(pr)
	pr.Reg.Detach()
	return nil
}

// GrowShared extends a shared region by n pages under the update lock
// (the sbrk path). Growth exposes new demand-zero pages; no pages die, so
// no shootdown is required — but the lock guarantees the §5.1 rule that by
// the time the grower returns, every member sees the new size.
func (sa *ShAddr) GrowShared(p *proc.Proc, pr *vm.PRegion, n int) {
	sa.Acc.Lock(p)
	pr.Reg.Grow(n)
	sa.touchRegions()
	sa.Acc.Unlock()
}

// ShrinkShared removes the last n pages of a shared region: update lock,
// TLB flush, then the frames are freed. Returns the number of resident
// frames released. The region's extent is validated under the update lock
// (another member may have shrunk it since the caller looked), and shoot
// runs under the lock too — a range-based shootdown must compute its range
// inside the closure, where pr.Reg.Pages() is stable, or it will flush the
// wrong tail.
func (sa *ShAddr) ShrinkShared(p *proc.Proc, pr *vm.PRegion, n int, shoot func()) (int, error) {
	sa.Acc.Lock(p)
	defer sa.Acc.Unlock()
	if n > pr.Reg.Pages() {
		return 0, fmt.Errorf("core: shrink of %d pages exceeds region's %d", n, pr.Reg.Pages())
	}
	sa.touchRegions()
	shoot()
	sa.Shootdowns.Add(1)
	return pr.Reg.Shrink(n), nil
}

// CarveStack allocates a non-overlapping stack range in the shared space
// for a new sproc child (paper §5.1: "a new stack is automatically created
// for the child process ... visible to all other processes in the share
// group, and will automatically grow in size as needed"). The stack is a
// demand-zero region of maxPages; it is attached to the shared list when
// shared is true (PR_SADDR child) and recorded so ReleaseStack can detach
// it. The update lock is taken — and, behind faulting members, slept on — as
// caller, the process whose thread is running; child has no thread yet.
//
// at == 0 recycles the range of a departed member's stack when one fits and
// carves fresh address space otherwise; it cannot fail. A non-zero at is
// restore's fidelity requirement — a checkpointed member's stack reappears
// at its recorded base, not wherever re-carving would land: the range is
// overlap-checked against the shared list, and the carve cursor is moved
// past it so later carves cannot collide.
func (sa *ShAddr) CarveStack(caller, child *proc.Proc, mem *hw.Memory, at hw.VAddr, maxPages int, shared bool) (*vm.PRegion, error) {
	sa.Acc.Lock(caller)
	defer sa.Acc.Unlock()
	if at != 0 && vm.Overlaps(sa.regions, at, maxPages) {
		return nil, fmt.Errorf("core: stack range %#x..%#x collides with a shared region", at, at+hw.VAddr(maxPages*hw.PageSize))
	}
	base := at
	sa.listLock.Lock()
	if at != 0 {
		sa.stacks.Reserve(at, maxPages)
	} else {
		base = sa.stacks.Alloc(maxPages)
	}
	pr := &vm.PRegion{Reg: vm.NewRegion(mem, vm.RStack, maxPages), Base: base}
	sa.memberStack[child] = memberStack{pr: pr, pages: maxPages, shared: shared}
	sa.listLock.Unlock()
	if shared {
		sa.regions = vm.Insert(sa.regions, pr)
		sa.touchRegions()
	}
	return pr, nil
}

// ReleaseStack withdraws the stack CarveStack recorded for member. A shared
// one leaves the shared list under the update lock — slept on as caller,
// like the carve — and its frames are freed; either way the address range is
// recycled for future carves. Leave calls it for a departing member, the
// kernel for a child it could not finish building.
func (sa *ShAddr) ReleaseStack(caller, member *proc.Proc) {
	ms := sa.takeMemberStack(member)
	if ms.pr == nil {
		return
	}
	if ms.shared {
		sa.Acc.Lock(caller)
		sa.regions = vm.Remove(sa.regions, ms.pr)
		sa.touchRegions()
		sa.Acc.Unlock()
		ms.pr.Reg.Detach()
	}
	sa.listLock.Lock()
	sa.stacks.Free(ms.pr.Base, ms.pages)
	sa.listLock.Unlock()
}

// AttachAnon carves a fresh range in the group's mapping arena and
// attaches reg there on the shared list (the mmap path for VM-sharing
// members). It returns the base address.
func (sa *ShAddr) AttachAnon(p *proc.Proc, reg *vm.Region) hw.VAddr {
	sa.Acc.Lock(p)
	defer sa.Acc.Unlock()
	base := sa.shm.Alloc(reg.Pages())
	sa.regions = vm.Insert(sa.regions, &vm.PRegion{Reg: reg, Base: base})
	sa.touchRegions()
	return base
}

// AttachPrivateRange carves a range from the group's mapping arena without
// attaching anything to the shared list — the address space bookkeeping
// half of a member-private mapping (the §8 selective-sharing extension).
// Reserving the range in the shared arena keeps future shared mappings
// from colliding with it.
func (sa *ShAddr) AttachPrivateRange(p *proc.Proc, npages int) hw.VAddr {
	sa.Acc.Lock(p)
	defer sa.Acc.Unlock()
	return sa.shm.Alloc(npages)
}

// COWImage builds a copy-on-write private image of the group's address
// space for a child that does not share VM (fork by a member, or sproc
// without PR_SADDR): the parent's private pregions plus the whole shared
// list are duplicated. When any duplicated region has ever held a writable
// PTE, writable translations cached for the space may now be stale, so
// shoot flushes every processor before the update lock is released; a
// never-written image skips the flush entirely.
func (sa *ShAddr) COWImage(parent *proc.Proc, shoot func()) []*vm.PRegion {
	sa.Acc.Lock(parent)
	defer sa.Acc.Unlock()
	img, flush := dupImage(sa.opts.EagerDup, parent.Private, sa.regions)
	if flush {
		shoot()
		sa.Shootdowns.Add(1)
	}
	return img
}

// COWPrivate is COWImage for a parent outside any share group: all it sees
// is its private list, and the caller flushes the parent's space when flush
// is reported.
func COWPrivate(parent *proc.Proc, eager bool) (img []*vm.PRegion, flush bool) {
	return dupImage(eager, parent.Private, nil)
}

// dupImage duplicates a private and a shared pregion list into one child
// image — lazily by default (O(1) per region, DESIGN.md §16), with the
// spawn-time table walk under the EagerDup ablation; this is the one place
// that choice is made. flush reports whether some duplicated region has
// ever held a writable PTE. A caller passing a shared list holds the update
// lock.
func dupImage(eager bool, private, shared []*vm.PRegion) (img []*vm.PRegion, flush bool) {
	dup := vm.DupListFlush
	if eager {
		dup = vm.DupListEager
	}
	img, flush = dup(private)
	if len(shared) > 0 {
		dupShared, f := dup(shared)
		img, flush = vm.MergeLists(img, dupShared), flush || f
	}
	return img, flush
}
