package vm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hw"
)

func mem(frames int) *hw.Memory { return hw.NewMemory(frames) }

func TestRegionDemandFill(t *testing.T) {
	m := mem(8)
	r := NewRegion(m, RData, 4)
	if r.Resident() != 0 {
		t.Fatalf("fresh region resident = %d", r.Resident())
	}
	pfn, w, res, err := r.Fill(2, false)
	if err != nil || pfn == hw.NoPFN || !w || res != FillZeroed {
		t.Fatalf("Fill = (%v,%v,%v,%v)", pfn, w, res, err)
	}
	// Second fill of the same page returns the same frame.
	pfn2, _, res2, _ := r.Fill(2, true)
	if pfn2 != pfn || res2 != FillCached {
		t.Fatalf("refill gave different frame %d != %d (res %v)", pfn2, pfn, res2)
	}
	if r.Resident() != 1 {
		t.Fatalf("resident = %d, want 1", r.Resident())
	}
	if _, _, _, err := r.Fill(4, false); err == nil {
		t.Fatal("fill outside region must fail")
	}
}

func TestRegionCopyOnWrite(t *testing.T) {
	m := mem(8)
	parent := NewRegion(m, RData, 2)
	pfn, _, _, _ := parent.Fill(0, true)
	m.StoreWord(pfn, 0, 77)

	child := parent.Dup()
	if m.Ref(pfn) != 2 {
		t.Fatalf("frame ref after dup = %d, want 2", m.Ref(pfn))
	}
	// Read through the child: same frame, not writable.
	cp, w, _, _ := child.Fill(0, false)
	if cp != pfn || w {
		t.Fatalf("child read fill = (%d,%v), want (%d,false)", cp, w, pfn)
	}
	// Write through the child: private copy, original untouched.
	cp, w, res, err := child.Fill(0, true)
	if err != nil || cp == pfn || !w || res != FillCopied {
		t.Fatalf("child write fill = (%d,%v,%v,%v)", cp, w, res, err)
	}
	if m.LoadWord(cp, 0) != 77 {
		t.Fatal("COW copy lost contents")
	}
	m.StoreWord(cp, 0, 88)
	if m.LoadWord(pfn, 0) != 77 {
		t.Fatal("write through child leaked into parent")
	}
	// Parent now holds the sole reference again: writable.
	pp, w, _, _ := parent.Fill(0, true)
	if pp != pfn || !w {
		t.Fatalf("parent after child copy = (%d,%v)", pp, w)
	}
	if m.Ref(pfn) != 1 {
		t.Fatalf("parent frame ref = %d, want 1", m.Ref(pfn))
	}
}

func TestRegionDetachFreesFrames(t *testing.T) {
	m := mem(8)
	r := NewRegion(m, RData, 3)
	r.Fill(0, true)
	r.Fill(1, true)
	if m.InUse() != 2 {
		t.Fatalf("InUse = %d", m.InUse())
	}
	r.Attach()
	if n := r.Detach(); n != 1 {
		t.Fatalf("Detach = %d, want 1", n)
	}
	if m.InUse() != 2 {
		t.Fatal("frames freed while still attached")
	}
	if n := r.Detach(); n != 0 {
		t.Fatalf("final Detach = %d", n)
	}
	if m.InUse() != 0 {
		t.Fatalf("InUse after final detach = %d, want 0", m.InUse())
	}
}

func TestRegionDupThenDetachSharedFrames(t *testing.T) {
	m := mem(8)
	a := NewRegion(m, RData, 1)
	pfn, _, _, _ := a.Fill(0, true)
	b := a.Dup()
	a.Detach()
	if m.Ref(pfn) != 1 {
		t.Fatalf("ref after parent detach = %d, want 1", m.Ref(pfn))
	}
	// b can now write the frame directly (sole owner).
	bp, w, _, _ := b.Fill(0, true)
	if bp != pfn || !w {
		t.Fatalf("b fill = (%d,%v)", bp, w)
	}
	b.Detach()
	if m.InUse() != 0 {
		t.Fatal("frame leaked")
	}
}

func TestRegionGrowShrink(t *testing.T) {
	m := mem(16)
	r := NewRegion(m, RData, 2)
	r.Fill(0, true)
	r.Fill(1, true)
	r.Grow(3)
	if r.Pages() != 5 {
		t.Fatalf("Pages = %d, want 5", r.Pages())
	}
	r.Fill(4, true)
	if freed := r.Shrink(4); freed != 2 { // pages 1..4, of which 1 and 4 resident
		t.Fatalf("Shrink freed %d, want 2", freed)
	}
	if r.Pages() != 1 || m.InUse() != 1 {
		t.Fatalf("Pages=%d InUse=%d", r.Pages(), m.InUse())
	}
	if _, _, _, err := r.Fill(1, false); err == nil {
		t.Fatal("fill past shrunk end must fail")
	}
}

func TestRegionShrinkOutOfRangePanics(t *testing.T) {
	m := mem(2)
	r := NewRegion(m, RData, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Shrink(2)
}

func TestRegionOOM(t *testing.T) {
	m := mem(1)
	r := NewRegion(m, RData, 2)
	if _, _, _, err := r.Fill(0, true); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := r.Fill(1, true); err != hw.ErrNoMemory {
		t.Fatalf("err = %v, want ErrNoMemory", err)
	}
}

func TestPRegionGeometry(t *testing.T) {
	m := mem(8)
	pr := &PRegion{Reg: NewRegion(m, RData, 4), Base: DataBase}
	if !pr.Contains(DataBase) || !pr.Contains(DataBase+4*hw.PageSize-1) {
		t.Fatal("Contains misses own range")
	}
	if pr.Contains(DataBase-1) || pr.Contains(DataBase+4*hw.PageSize) {
		t.Fatal("Contains accepts outside range")
	}
	if pr.PageIndex(DataBase+2*hw.PageSize+123) != 2 {
		t.Fatal("PageIndex wrong")
	}
}

func TestFindScansInOrder(t *testing.T) {
	m := mem(8)
	list := []*PRegion{
		{Reg: NewRegion(m, RText, 2), Base: TextBase},
		{Reg: NewRegion(m, RData, 2), Base: DataBase},
	}
	if pr := Find(list, DataBase+hw.PageSize); pr != list[1] {
		t.Fatal("Find missed data region")
	}
	if pr := Find(list, ShmBase); pr != nil {
		t.Fatal("Find invented a region")
	}
}

func TestOverlaps(t *testing.T) {
	m := mem(8)
	list := []*PRegion{{Reg: NewRegion(m, RShm, 4), Base: ShmBase}}
	cases := []struct {
		base  hw.VAddr
		pages int
		want  bool
	}{
		{ShmBase, 1, true},
		{ShmBase + 3*hw.PageSize, 1, true},
		{ShmBase + 4*hw.PageSize, 1, false},
		{ShmBase - hw.PageSize, 1, false},
		{ShmBase - hw.PageSize, 2, true},
	}
	for _, c := range cases {
		if got := Overlaps(list, c.base, c.pages); got != c.want {
			t.Errorf("Overlaps(%#x,%d) = %v, want %v", uint32(c.base), c.pages, got, c.want)
		}
	}
}

func TestDupListSharesTextCopiesData(t *testing.T) {
	m := mem(16)
	text := NewRegion(m, RText, 2)
	data := NewRegion(m, RData, 2)
	sp := NewSpace(&PRegion{Reg: text, Base: TextBase}, &PRegion{Reg: data, Base: DataBase})
	dup, _ := sp.Dup(false)
	if dup.list[0].Reg != text {
		t.Fatal("text must be shared, not duplicated")
	}
	if text.Refs() != 2 {
		t.Fatalf("text refs = %d, want 2", text.Refs())
	}
	if dup.list[1].Reg == data {
		t.Fatal("data must be duplicated")
	}
	dup.Clear()
	if text.Refs() != 1 {
		t.Fatal("detach did not release text")
	}
}

func TestRemove(t *testing.T) {
	m := mem(8)
	a := &PRegion{Reg: NewRegion(m, RShm, 1), Base: ShmBase}
	b := &PRegion{Reg: NewRegion(m, RShm, 1), Base: ShmBase + hw.PageSize}
	list := []*PRegion{a, b}
	list = Remove(list, a)
	if len(list) != 1 || list[0] != b {
		t.Fatalf("Remove left %v", list)
	}
	list = Remove(list, a) // absent: no-op
	if len(list) != 1 {
		t.Fatal("Remove of absent element changed list")
	}
}

// Property: after any interleaving of Dup/write/detach, no frame leaks and
// every region sees its own writes.
func TestQuickCOWNoLeaks(t *testing.T) {
	f := func(seed int64, ops []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		m := mem(256)
		root := NewRegion(m, RData, 4)
		live := []*Region{root}
		shadow := []map[int]uint32{{}} // expected word 0 of each page
		for _, op := range ops {
			if len(live) == 0 {
				break
			}
			i := rng.Intn(len(live))
			switch op % 3 {
			case 0: // dup
				if len(live) < 8 {
					live = append(live, live[i].Dup())
					cp := map[int]uint32{}
					for k, v := range shadow[i] {
						cp[k] = v
					}
					shadow = append(shadow, cp)
				}
			case 1: // write a random page
				page := rng.Intn(4)
				val := rng.Uint32()
				pfn, w, _, err := live[i].Fill(page, true)
				if err != nil || !w {
					return false
				}
				m.StoreWord(pfn, 0, val)
				shadow[i][page] = val
			case 2: // verify a page this region has written
				for page, want := range shadow[i] {
					pfn, _, _, err := live[i].Fill(page, false)
					if err != nil {
						return false
					}
					if m.LoadWord(pfn, 0) != want {
						return false
					}
					break
				}
			}
		}
		for _, r := range live {
			r.Detach()
		}
		return m.InUse() == 0
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
