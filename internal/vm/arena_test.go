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
	// A child continues from the cursor and recycles nothing of its parent's.
	a.Free(b2, 2)
	c := a.Inherit()
	if got, want := c.Alloc(2), a.Alloc(1); got != want {
		t.Errorf("inherited arena allocates at %#x, want the parent's cursor %#x", got, want)
	}

	// FreeMapping takes back only what the mapping arena handed out.
	m := hw.NewMemory(16)
	for _, tc := range []struct {
		typ  RegionType
		base hw.VAddr
		back bool
	}{
		{RShm, ShmBase + 64*page, true},
		{RData, DataBase, false},
		{RShm, SprocStackBase, false},
		{RStack, ShmBase + 128*page, false},
	} {
		f := NewArena(ShmBase, 1)
		f.FreeMapping(&PRegion{Reg: NewRegion(m, tc.typ, 3), Base: tc.base})
		if got := f.Alloc(3) == tc.base; got != tc.back {
			t.Errorf("%v region at %#x: recycled = %v, want %v", tc.typ, tc.base, got, tc.back)
		}
	}
}
