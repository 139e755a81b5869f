package vm

import (
	"testing"

	"repro/internal/hw"
)

// TestTrackDirtyBasics arms tracking, dirties a subset of pages, and
// checks the harvested set is exactly that subset — reads must not count.
func TestTrackDirtyBasics(t *testing.T) {
	m := mem(32)
	r := NewRegion(m, RData, 8)
	for i := 0; i < 8; i++ {
		if _, _, _, err := r.Fill(i, true); err != nil {
			t.Fatalf("prefill %d: %v", i, err)
		}
	}
	r.TrackDirty()
	if !r.Tracking() {
		t.Fatal("TrackDirty did not arm")
	}
	// Stores to pages 1, 4, 6; reads to 2 and 5.
	for _, idx := range []int{1, 4, 6} {
		if _, w, _, err := r.Fill(idx, true); err != nil || !w {
			t.Fatalf("store fill %d = (w=%v, err=%v)", idx, w, err)
		}
	}
	for _, idx := range []int{2, 5} {
		if _, w, _, err := r.Fill(idx, false); err != nil {
			t.Fatalf("read fill %d: %v", idx, err)
		} else if w {
			t.Fatalf("read fill %d re-installed writable under tracking", idx)
		}
	}
	got := r.TakeDirty()
	want := []int{1, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("TakeDirty = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TakeDirty = %v, want %v", got, want)
		}
	}
	// The harvest re-armed: a fresh pass starts clean and collects anew.
	if d := r.TakeDirty(); len(d) != 0 {
		t.Fatalf("second TakeDirty = %v, want empty", d)
	}
	if _, _, _, err := r.Fill(3, true); err != nil {
		t.Fatal(err)
	}
	if d := r.TakeDirty(); len(d) != 1 || d[0] != 3 {
		t.Fatalf("third TakeDirty = %v, want [3]", d)
	}
	r.UntrackDirty()
	if r.Tracking() {
		t.Fatal("UntrackDirty did not disarm")
	}
	if d := r.TakeDirty(); d != nil {
		t.Fatalf("TakeDirty after untrack = %v, want nil", d)
	}
}

// TestTrackDirtyNewFills asserts demand zero fills and COW breaks under
// tracking count as dirty — both change the page set the image must carry.
func TestTrackDirtyNewFills(t *testing.T) {
	m := mem(32)
	r := NewRegion(m, RData, 4)
	if _, _, _, err := r.Fill(0, true); err != nil {
		t.Fatal(err)
	}
	kid := r.Dup() // alias page 0 so a store must COW-break
	defer kid.Detach()
	r.TrackDirty()
	if _, _, res, err := r.Fill(2, true); err != nil || res != FillZeroed {
		t.Fatalf("zero fill = (%v, %v)", res, err)
	}
	if _, _, res, err := r.Fill(0, true); err != nil || res != FillCopied {
		t.Fatalf("cow fill = (%v, %v)", res, err)
	}
	got := r.TakeDirty()
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("TakeDirty = %v, want [0 2]", got)
	}
	r.UntrackDirty()
}

// TestTrackDirtyGrow grows the region mid-pass: the grown pages fall past
// the armed bitmap and must be conservatively reported dirty once filled.
func TestTrackDirtyGrow(t *testing.T) {
	m := mem(32)
	r := NewRegion(m, RData, 2)
	r.TrackDirty()
	r.Grow(2)
	if _, _, _, err := r.Fill(3, true); err != nil {
		t.Fatal(err)
	}
	got := r.TakeDirty()
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("TakeDirty after grow = %v, want [3]", got)
	}
	r.UntrackDirty()
}

// TestReadPage checks the serialization surface: contents out through the
// region API in packed form, appended to what the buffer held, and absence
// reported for unfilled slots.
func TestReadPage(t *testing.T) {
	m := mem(8)
	r := NewRegion(m, RData, 2)
	pfn, _, _, _ := r.Fill(0, true)
	m.StoreWord(pfn, 16, 0xdeadbeef) // word 16 = byte offset 64, line 1
	lines, buf, ok := r.ReadPage(0, []byte{7})
	if !ok {
		t.Fatal("ReadPage missed a resident page")
	}
	if lines != 1<<1 || len(buf) != 1+hw.LineSize || buf[0] != 7 {
		t.Fatalf("ReadPage = mask %#x, %d bytes; want line 1 alone after the byte already there", lines, len(buf))
	}
	if buf[1] != 0xef || buf[2] != 0xbe || buf[3] != 0xad || buf[4] != 0xde {
		t.Fatalf("ReadPage contents wrong: % x", buf[1:5])
	}
	if _, _, ok := r.ReadPage(1, nil); ok {
		t.Fatal("ReadPage claimed an absent page resident")
	}
}
