package vm

import (
	"testing"

	"repro/internal/hw"
)

func TestArena(t *testing.T) {
	const page = hw.VAddr(hw.PageSize)
	a := NewArena(ShmBase, 1)
	b1, b2 := a.Alloc(4), a.Alloc(2)
	if b1 != ShmBase || b2 != ShmBase+5*page {
		t.Fatalf("fresh ranges at %#x, %#x; want the base and 4 pages + the gap above it", b1, b2)
	}
	// A released range comes back for its own size only.
	a.Free(b1, 4)
	if got := a.Alloc(2); got != b2+3*page {
		t.Errorf("a 2-page request took %#x; the free 4-page range is not its size", got)
	}
	if got := a.Alloc(4); got != b1 {
		t.Errorf("a 4-page request took %#x, want the released %#x", got, b1)
	}
	// Reserve only ever moves the cursor forward.
	next := a.Alloc(1)
	a.Reserve(ShmBase, 1)
	if got := a.Alloc(1); got != next+2*page {
		t.Errorf("after reserving behind the cursor the next range is %#x, want %#x", got, next+2*page)
	}
	far := next + 100*page
	a.Reserve(far, 8)
	if got := a.Alloc(1); got != far+9*page {
		t.Errorf("after reserving %#x+8 the next range is %#x, want %#x", far, got, far+9*page)
	}
	// Reserve also withdraws a released range it touches: the 2-page range
	// is on hand until a placement lands inside it.
	a.Free(b2, 2)
	a.Reserve(b2+page, 1)
	if got := a.Alloc(2); got == b2 {
		t.Errorf("a 2-page request got %#x back after a placement reserved part of it", got)
	}

	// A space recycles only what its mapping arena placed: munmap(2) takes
	// any region's base — the data region, a stack — and only a range
	// between ShmBase and SprocStackBase may come back as a later mmap
	// address.
	m := hw.NewMemory(16)
	for _, tc := range []struct {
		typ  RegionType
		base hw.VAddr
		back bool
	}{
		{RShm, ShmBase + 64*page, true},
		{RData, DataBase, false},
		{RShm, SprocStackBase, false},
		{RStack, ShmBase + 128*page, true},
	} {
		pr := &PRegion{Reg: NewRegion(m, tc.typ, 3), Base: tc.base}
		sp := NewSpace(pr)
		if err := sp.Unmap(pr, NoShoot); err != nil {
			t.Fatal(err)
		}
		if got := sp.Map(NewRegion(m, RShm, 3)) == tc.base; got != tc.back {
			t.Errorf("%v region at %#x: recycled = %v, want %v", tc.typ, tc.base, got, tc.back)
		}
	}
}
