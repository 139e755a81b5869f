package vm

import (
	"fmt"
	"sort"

	"repro/internal/hw"
)

// Virtual address space layout. A 32-bit space laid out the way the IRIX
// implementation does: fixed text and data bases, the PRDA at a fixed
// virtual location in every process so shared code can reach private data
// (paper §5.1), an mmap/shm arena, sproc stacks allocated non-overlapping
// below the main stack, and the initial stack at the top growing down.
const (
	TextBase       hw.VAddr = 0x0040_0000
	DataBase       hw.VAddr = 0x1000_0000
	PRDABase       hw.VAddr = 0x2000_0000
	ShmBase        hw.VAddr = 0x3000_0000
	SprocStackBase hw.VAddr = 0x5000_0000
	MainStackTop   hw.VAddr = 0x7fff_f000
)

// PRDAPages is the size of the process data area: "a small amount of
// memory (typically less than a page in size)" — one page here.
const PRDAPages = 1

// PRegion attaches a Region to an address space (a Space) at a base virtual
// address. Private pregions hang off the proc; shared pregions hang off the
// share group's shared address block and are protected by its shared read
// lock.
type PRegion struct {
	Reg  *Region
	Base hw.VAddr
}

// End returns the first address past the pregion's current extent.
func (p *PRegion) End() hw.VAddr {
	return p.Base + hw.VAddr(p.Reg.Pages()*hw.PageSize)
}

// Contains reports whether va falls inside the pregion's current extent.
func (p *PRegion) Contains(va hw.VAddr) bool {
	return va >= p.Base && va < p.End()
}

// PageIndex returns the region page index of va, which must be contained.
func (p *PRegion) PageIndex(va hw.VAddr) int {
	return int((va - p.Base) >> hw.PageShift)
}

func (p *PRegion) String() string {
	return fmt.Sprintf("pregion{%s %#x..%#x, %d pages, refs %d}",
		p.Reg.Type, uint32(p.Base), uint32(p.End()), p.Reg.Pages(), p.Reg.Refs())
}

// Pregion lists are an ordered interval index: every list handled by the
// functions below is sorted by Base, and attachments never overlap (Space,
// the only holder of a list outside tests and probes, checks Overlaps
// before every Insert). Find and Overlaps are therefore binary
// searches — O(log n) where the paper's linear pregion scan was O(n) —
// which is what keeps the fault path flat when a share group maps tens of
// thousands of regions. The one wrinkle is zero-page pregions (a region
// shrunk to nothing): they occupy a base address but no address *space*,
// so another region's extent may legitimately span them; searches skip
// them, membership operations keep them.
//
// The paper's locking story is unchanged: "the shared pregion list is
// protected via the shared lock in all places that the pregion list is
// accessed" — the index only changes what a scan costs under that lock.

// searchBase returns the index of the first pregion with Base > va.
func searchBase(list []*PRegion, va hw.VAddr) int {
	return sort.Search(len(list), func(i int) bool { return list[i].Base > va })
}

// Find returns the pregion containing va, or nil. It binary-searches for
// the last pregion based at or below va, then walks left past any
// zero-page entries parked inside a larger region's span.
func Find(list []*PRegion, va hw.VAddr) *PRegion {
	for i := searchBase(list, va) - 1; i >= 0; i-- {
		if list[i].Contains(va) {
			return list[i]
		}
		if list[i].Reg.Pages() > 0 {
			// A non-empty pregion at or below va that doesn't contain it:
			// everything further left ends even lower.
			return nil
		}
	}
	return nil
}

// Overlaps reports whether a new attachment [base, base+pages) would
// collide with any pregion in the list. Zero-length probes never collide,
// and zero-page entries never obstruct.
func Overlaps(list []*PRegion, base hw.VAddr, pages int) bool {
	if pages <= 0 {
		return false
	}
	end := base + hw.VAddr(pages*hw.PageSize)
	// First pregion based at or past end cannot overlap; scan left from
	// there, skipping zero-page entries (they occupy no address space).
	// The first non-empty pregion decides: if it ends at or below base,
	// every earlier one ends lower still.
	for i := searchBase(list, end-1) - 1; i >= 0; i-- {
		if list[i].Reg.Pages() == 0 {
			continue
		}
		return list[i].End() > base
	}
	return false
}

// Insert adds pr to the list, keeping it sorted by Base, and returns the
// grown list. Callers must have checked Overlaps (the list stays a set of
// disjoint intervals); equal bases (zero-page entries) keep insertion
// order.
func Insert(list []*PRegion, pr *PRegion) []*PRegion {
	i := searchBase(list, pr.Base)
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = pr
	return list
}

// Remove deletes pr from list, returning the shortened list. It is the
// caller's job to hold whatever lock protects the list and to detach the
// region afterwards. The vacated tail slot is cleared so the backing array
// keeps no stale pointer pinning the detached pregion.
func Remove(list []*PRegion, pr *PRegion) []*PRegion {
	// Binary search to the first candidate with pr's base, then match by
	// identity (equal bases are possible among zero-page entries).
	i := sort.Search(len(list), func(i int) bool { return list[i].Base >= pr.Base })
	for ; i < len(list) && list[i].Base == pr.Base; i++ {
		if list[i] == pr {
			copy(list[i:], list[i+1:])
			list[len(list)-1] = nil
			return list[:len(list)-1]
		}
	}
	return list
}
