package vm

import (
	"sync"
	"testing"

	"repro/internal/hw"
)

// Tests for the ordered pregion interval index: the sorted-by-base
// invariant, binary-search Find/Overlaps at exact boundaries, zero-page
// regions, and a -race storm proving the index swap preserves the
// conservation invariants the linear scan had.

const pg = hw.PageSize

func newPR(m *hw.Memory, base hw.VAddr, pages int) *PRegion {
	return &PRegion{Reg: NewRegion(m, RData, pages), Base: base}
}

// buildList returns prs as a valid index, whatever order they come in.
func buildList(prs ...*PRegion) (list []*PRegion) {
	for _, pr := range prs {
		list = Insert(list, pr)
	}
	return list
}

func checkSorted(t *testing.T, list []*PRegion) {
	t.Helper()
	for i := 1; i < len(list); i++ {
		if list[i].Base < list[i-1].Base {
			t.Fatalf("index out of order at %d: %#x after %#x",
				i, uint32(list[i].Base), uint32(list[i-1].Base))
		}
	}
}

func TestInsertKeepsOrder(t *testing.T) {
	m := mem(256)
	var list []*PRegion
	// Insert in a deliberately shuffled order.
	for _, base := range []hw.VAddr{0x9000, 0x1000, 0x5000, 0x3000, 0xd000, 0x7000} {
		list = Insert(list, newPR(m, base, 1))
		checkSorted(t, list)
	}
	if len(list) != 6 {
		t.Fatalf("len = %d, want 6", len(list))
	}
	for _, base := range []hw.VAddr{0x1000, 0x3000, 0x5000, 0x7000, 0x9000, 0xd000} {
		pr := Find(list, base)
		if pr == nil || pr.Base != base {
			t.Fatalf("Find(%#x) = %v", uint32(base), pr)
		}
	}
}

func TestFindExactBoundaries(t *testing.T) {
	m := mem(256)
	a := newPR(m, 0x4000, 4) // [0x4000, 0x8000)
	b := newPR(m, 0x8000, 2) // adjacent, not overlapping: [0x8000, 0xa000)
	list := buildList(b, a)
	checkSorted(t, list)

	// Exact base is inside; exact end is outside (and here, inside b).
	if Find(list, 0x4000) != a {
		t.Fatalf("Find at exact base missed")
	}
	if Find(list, 0x7fff) != a {
		t.Fatalf("Find at last byte missed")
	}
	if Find(list, 0x8000) != b {
		t.Fatalf("Find at a's end must hit the adjacent b")
	}
	if Find(list, 0x9fff) != b {
		t.Fatalf("Find at b's last byte missed")
	}
	if Find(list, 0xa000) != nil {
		t.Fatalf("Find past the last end must miss")
	}
	if Find(list, 0x3fff) != nil {
		t.Fatalf("Find below the first base must miss")
	}
}

func TestOverlapsAdjacentAndBoundaries(t *testing.T) {
	m := mem(256)
	list := buildList(newPR(m, 0x4000, 4)) // [0x4000, 0x8000)

	// Adjacent on both sides: no overlap.
	if Overlaps(list, 0x2000, 2) || Overlaps(list, 0x8000, 4) {
		t.Fatalf("adjacent ranges reported overlapping")
	}
	// One page of contact on either edge: overlap.
	if !Overlaps(list, 0x3000, 2) || !Overlaps(list, 0x7000, 2) {
		t.Fatalf("edge-contact ranges reported clear")
	}
	// Fully inside and fully spanning: overlap.
	if !Overlaps(list, 0x5000, 1) || !Overlaps(list, 0x1000, 16) {
		t.Fatalf("contained/spanning ranges reported clear")
	}
	// Zero-length probe never collides.
	if Overlaps(list, 0x5000, 0) {
		t.Fatalf("zero-page probe reported overlapping")
	}
}

func TestZeroPageRegions(t *testing.T) {
	m := mem(256)
	big := newPR(m, 0x4000, 8) // [0x4000, 0xc000)
	z := newPR(m, 0x6000, 2)
	z.Reg.Shrink(2) // now zero pages, based inside big's span
	small := newPR(m, 0xc000, 1)
	list := buildList(big, z, small)
	checkSorted(t, list)

	// Find must step over the empty entry and land on the spanning region.
	if Find(list, 0x6000) != big || Find(list, 0x6fff) != big {
		t.Fatalf("Find did not skip the zero-page entry")
	}
	// The empty entry obstructs nothing.
	if got := Overlaps(list, 0x6000, 1); !got {
		t.Fatalf("probe inside big must still collide with big")
	}
	listNoBig := Remove(list, big)
	if Overlaps(listNoBig, 0x6000, 1) {
		t.Fatalf("zero-page entry obstructed an attachment")
	}
	if Find(listNoBig, 0x6000) != nil {
		t.Fatalf("Find matched a zero-page entry")
	}
	// But it stays findable for membership ops: Remove by identity works.
	rest := Remove(listNoBig, z)
	if len(rest) != 1 || rest[0] != small {
		t.Fatalf("Remove of zero-page entry failed: %v", rest)
	}
}

// Remove must clear the vacated tail slot so the backing array does not pin
// the detached pregion (the PR 6 leak fix).
func TestRemoveClearsTailSlot(t *testing.T) {
	m := mem(256)
	list := buildList(newPR(m, 0x1000, 1), newPR(m, 0x3000, 1), newPR(m, 0x5000, 1))
	victim := list[1]
	shorter := Remove(list, victim)
	if len(shorter) != 2 {
		t.Fatalf("len = %d, want 2", len(shorter))
	}
	if tail := list[:3][2]; tail != nil {
		t.Fatalf("backing array tail still holds %v", tail)
	}
	// Removing something not on the list is a no-op.
	if got := Remove(shorter, victim); len(got) != 2 {
		t.Fatalf("second Remove changed the list")
	}
}

func TestMergeAndPartition(t *testing.T) {
	m := mem(256)
	a := NewSpace(newPR(m, 0x1000, 1), newPR(m, 0x5000, 1), newPR(m, 0x9000, 1))
	b := NewSpace(newPR(m, 0x3000, 1), newPR(m, 0x7000, 1))
	merged, _ := a.Dup(false, &b)
	if merged.Len() != 5 {
		t.Fatalf("merged len = %d", merged.Len())
	}
	checkSorted(t, merged.list)
	if merged.Pages() != 5 {
		t.Fatalf("Pages = %d, want 5", merged.Pages())
	}

	rest := merged.Split(func(pr *PRegion) bool { return pr.Base < 0x6000 })
	checkSorted(t, merged.list)
	checkSorted(t, rest.list)
	if merged.Len() != 3 || rest.Len() != 2 {
		t.Fatalf("split sizes %d/%d", merged.Len(), rest.Len())
	}
	for _, sp := range []*Space{&a, &b, &merged, &rest} {
		sp.Clear()
	}
	if m.InUse() != 0 {
		t.Fatalf("InUse = %d", m.InUse())
	}
}

// TestPregionIndexStorm interleaves Find, Dup, MapAt and Unmap the
// way the fault and fork paths do — readers under a share-group read lock,
// writers under the update lock — and checks conservation: after every
// duplicate is detached and the list drained, no frame remains in use.
// Run with -race; the RWMutex stands in for the group's MRLock.
func TestPregionIndexStorm(t *testing.T) {
	const (
		readers = 4
		rounds  = 400
	)
	m := mem(4096)
	m.AttachCaches(readers)

	var mu sync.RWMutex
	sp := NewSpace(
		newPR(m, 0x10_0000, 4),
		newPR(m, 0x20_0000, 4),
		newPR(m, 0x30_0000, 4),
	)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			va := hw.VAddr(0x10_0000)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				mu.RLock()
				if pr := sp.Find(va); pr != nil {
					if _, _, _, err := pr.Reg.FillOn(pr.PageIndex(va), i%2 == 0, cpu); err != nil {
						t.Errorf("FillOn: %v", err)
						mu.RUnlock()
						return
					}
				}
				dup, _ := sp.Dup(false)
				mu.RUnlock()
				checkSorted(t, dup.list)
				dup.Clear()
				va = hw.VAddr(0x10_0000 + uint32(i%3)*0x10_0000 + uint32(i%4)*pg)
			}
		}(r)
	}

	// Writer: churn attachments under the exclusive lock.
	base := hw.VAddr(0x50_0000)
	for i := 0; i < rounds; i++ {
		pr := newPR(m, base, 2)
		mu.Lock()
		if err := sp.MapAt(pr); err != nil {
			t.Fatalf("carved range overlapped: %v", err)
		}
		checkSorted(t, sp.list)
		mu.Unlock()
		base += 4 * pg

		if i%2 == 1 {
			mu.Lock()
			err := sp.Unmap(sp.list[sp.Len()-1], NoShoot)
			mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()

	mu.Lock()
	sp.Clear()
	mu.Unlock()
	if m.InUse() != 0 {
		t.Fatalf("InUse = %d after the storm drained", m.InUse())
	}
}
