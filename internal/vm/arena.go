package vm

import "repro/internal/hw"

// Arena hands out page ranges of one stretch of an address space — the
// mmap/shm arena of a process or a share group, a group's sproc stacks: a
// bump cursor, a fixed gap of unmapped pages after every range, and the
// ranges handed back, kept by size so that long-running map/unmap (or
// sproc/exit) churn recycles addresses instead of exhausting the 32-bit
// space. It is not synchronized; whoever owns the address space serializes
// its use.
type Arena struct {
	next hw.VAddr
	gap  int                // unmapped pages after each range
	free map[int][]hw.VAddr // released ranges by size in pages
}

// NewArena returns an arena that starts at base and leaves gapPages
// unmapped after every range.
func NewArena(base hw.VAddr, gapPages int) Arena {
	return Arena{next: base, gap: gapPages}
}

// Inherit returns an arena that continues from a's cursor with nothing to
// recycle: what a child image, and a share group made around its creator's
// image, start from.
func (a *Arena) Inherit() Arena { return Arena{next: a.next, gap: a.gap} }

// Alloc returns the base of a range of npages, a released one when one of
// that size is on hand.
func (a *Arena) Alloc(npages int) hw.VAddr {
	if free := a.free[npages]; len(free) > 0 {
		base := free[len(free)-1]
		a.free[npages] = free[:len(free)-1]
		return base
	}
	base := a.next
	a.next += hw.VAddr((npages + a.gap) * hw.PageSize)
	return base
}

// Free hands the range Alloc returned for npages back.
func (a *Arena) Free(base hw.VAddr, npages int) {
	if a.free == nil {
		a.free = map[int][]hw.VAddr{}
	}
	a.free[npages] = append(a.free[npages], base)
}

// Reserve moves the cursor past a range placed by the caller (restore puts
// a stack back at its recorded base), so no later Alloc can land on it.
func (a *Arena) Reserve(at hw.VAddr, npages int) {
	if end := at + hw.VAddr((npages+a.gap)*hw.PageSize); a.next < end {
		a.next = end
	}
}

// FreeMapping hands back the range of a pregion that has left the address
// space, if it came from the mapping arena: munmap(2) takes any region's
// base — the data region, a stack — and only an RShm range between ShmBase
// and SprocStackBase may come back as a later mmap address.
func (a *Arena) FreeMapping(pr *PRegion) {
	if pr.Reg.Type == RShm && pr.Base >= ShmBase && pr.Base < SprocStackBase {
		a.Free(pr.Base, pr.Reg.Pages())
	}
}
