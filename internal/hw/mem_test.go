package hw

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestAllocZeroedAndDistinct(t *testing.T) {
	m := NewMemory(8)
	seen := map[PFN]bool{}
	for i := 0; i < 8; i++ {
		pfn, err := m.Alloc()
		if err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
		if seen[pfn] {
			t.Fatalf("frame %d handed out twice", pfn)
		}
		seen[pfn] = true
		for w := uint32(0); w < WordsPerPage; w += 97 {
			if v := m.LoadWord(pfn, w); v != 0 {
				t.Fatalf("frame %d word %d not zero: %d", pfn, w, v)
			}
		}
	}
	if _, err := m.Alloc(); err != ErrNoMemory {
		t.Fatalf("expected ErrNoMemory, got %v", err)
	}
}

func TestFreeListRecyclesZeroed(t *testing.T) {
	m := NewMemory(2)
	pfn, err := m.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	m.StoreWord(pfn, 5, 0xdeadbeef)
	m.DecRefs([]PFN{pfn})
	if m.InUse() != 0 {
		t.Fatalf("InUse = %d, want 0", m.InUse())
	}
	pfn2, err := m.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if pfn2 != pfn {
		t.Fatalf("free list not recycled: got %d want %d", pfn2, pfn)
	}
	if v := m.LoadWord(pfn2, 5); v != 0 {
		t.Fatalf("recycled frame not zeroed: %#x", v)
	}
}

func TestRefCountLifecycle(t *testing.T) {
	m := NewMemory(4)
	pfn, _ := m.Alloc()
	m.IncRef(pfn)
	m.IncRef(pfn)
	if r := m.Ref(pfn); r != 3 {
		t.Fatalf("Ref = %d, want 3", r)
	}
	for want := int32(2); want >= 0; want-- {
		m.DecRefs([]PFN{pfn})
		if r := m.Ref(pfn); r != want {
			t.Fatalf("Ref after DecRefs = %d, want %d", r, want)
		}
	}
	if m.InUse() != 0 {
		t.Fatalf("InUse = %d after the last reference went, want 0", m.InUse())
	}
}

func TestCopyFrameIsDeepAndCounted(t *testing.T) {
	m := NewMemory(4)
	src, _ := m.Alloc()
	m.StoreWord(src, 0, 123)
	m.StoreWord(src, WordsPerPage-1, 456)
	dst, err := m.CopyFrameOn(src, -1)
	if err != nil {
		t.Fatal(err)
	}
	if m.LoadWord(dst, 0) != 123 || m.LoadWord(dst, WordsPerPage-1) != 456 {
		t.Fatal("copy did not preserve contents")
	}
	m.StoreWord(src, 0, 999)
	if m.LoadWord(dst, 0) != 123 {
		t.Fatal("copy aliases source")
	}
	if m.Copies.Load() != 1 {
		t.Fatalf("Copies = %d, want 1", m.Copies.Load())
	}
}

func TestBytesRoundTrip(t *testing.T) {
	m := NewMemory(2)
	pfn, _ := m.Alloc()
	src := []byte("share groups: selective resource sharing")
	m.WriteBytes(pfn, 3, src)
	dst := make([]byte, len(src))
	m.ReadBytes(pfn, 3, dst)
	if string(dst) != string(src) {
		t.Fatalf("round trip: got %q want %q", dst, src)
	}
}

func TestBytesWordInterleave(t *testing.T) {
	// Byte writes must not clobber neighbouring bytes within a word.
	m := NewMemory(1)
	pfn, _ := m.Alloc()
	m.StoreWord(pfn, 0, 0xaabbccdd)
	m.WriteBytes(pfn, 1, []byte{0x11})
	got := m.LoadWord(pfn, 0)
	if got != 0xaabb11dd {
		t.Fatalf("word after byte write = %#x, want 0xaabb11dd", got)
	}
}

func TestBytesCrossPagePanics(t *testing.T) {
	m := NewMemory(1)
	pfn, _ := m.Alloc()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on cross-page write")
		}
	}()
	m.WriteBytes(pfn, PageSize-2, []byte{1, 2, 3})
}

func TestCASWordConcurrent(t *testing.T) {
	m := NewMemory(1)
	pfn, _ := m.Alloc()
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				for {
					old := m.LoadWord(pfn, 0)
					if m.CASWord(pfn, 0, old, old+1) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if v := m.LoadWord(pfn, 0); v != goroutines*perG {
		t.Fatalf("CAS counter = %d, want %d", v, goroutines*perG)
	}
}

func TestQuickBytesRoundTrip(t *testing.T) {
	m := NewMemory(2)
	pfn, _ := m.Alloc()
	f := func(off uint16, data []byte) bool {
		o := uint32(off) % (PageSize / 2)
		if len(data) > PageSize/2 {
			data = data[:PageSize/2]
		}
		m.WriteBytes(pfn, o, data)
		got := make([]byte, len(data))
		m.ReadBytes(pfn, o, got)
		return string(got) == string(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVAddrHelpers(t *testing.T) {
	va := VAddr(0x1234_5678)
	if va.VPN() != 0x12345 {
		t.Fatalf("VPN = %#x", va.VPN())
	}
	if va.Offset() != 0x678 {
		t.Fatalf("Offset = %#x", va.Offset())
	}
}
