package vm

import "repro/internal/hw"

// Arena hands out page ranges of one stretch of an address space — the
// mmap/shm arena of a Space, a share group's sproc stacks: a
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

// Reserve takes a range placed by the caller (restore puts a region back at
// its recorded base) out of the arena's hands: the cursor moves past it and
// no released range that touches it stays on hand, so no later Alloc can
// land on it.
func (a *Arena) Reserve(at hw.VAddr, npages int) {
	end := at + hw.VAddr((npages+a.gap)*hw.PageSize)
	if a.next < end {
		a.next = end
	}
	for n, bases := range a.free {
		kept := bases[:0]
		for _, b := range bases {
			if b >= end || b+hw.VAddr((n+a.gap)*hw.PageSize) <= at {
				kept = append(kept, b)
			}
		}
		a.free[n] = kept
	}
}
