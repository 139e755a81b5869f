package hw

import "testing"

// The host cost of what the simulated machine does on every fault, refill
// and copy-on-write break. `make tier1` runs each once so they cannot rot;
// `make bench` runs them for real.

var benchSink uint32

// BenchmarkFaultCycle is one page's life in vm_fault_mix: a frame is
// granted, one word of it is written, its translation is inserted and hit,
// and the frame dies.
func BenchmarkFaultCycle(b *testing.B) {
	m := NewMemory(64)
	m.AttachCaches(1)
	var tlb TLB
	for i := 0; i < TLBSize; i++ {
		tlb.Insert(uint32(0x1000+i), 1, PFN(i), true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pfn, err := m.AllocOn(0)
		if err != nil {
			b.Fatal(err)
		}
		m.StoreWord(pfn, 7, uint32(i))
		vpn := uint32(0x1000 + i%TLBSize)
		tlb.Insert(vpn, 1, pfn, true)
		tlb.Access(vpn, 1, true, func(got PFN) { benchSink += uint32(got) })
		m.DecRefOn(pfn, 0)
	}
}

// BenchmarkTLBMissInsert is a refill into a full TLB: a probe that misses,
// then an insert that evicts the round-robin victim.
func BenchmarkTLBMissInsert(b *testing.B) {
	var tlb TLB
	for i := 0; i < TLBSize; i++ {
		tlb.Insert(uint32(i), 1, PFN(i), true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vpn := uint32(TLBSize + i)
		if tlb.Access(vpn, 1, true, func(PFN) {}) {
			b.Fatal("cold key hit")
		}
		tlb.Insert(vpn, 1, PFN(i), true)
	}
}

// BenchmarkCopyFrame is a copy-on-write break and the copy's death, of a
// page holding one word and of a page written end to end.
func BenchmarkCopyFrame(b *testing.B) {
	for _, bc := range []struct {
		name  string
		words uint32
	}{{"oneword", 1}, {"full", WordsPerPage}} {
		b.Run(bc.name, func(b *testing.B) {
			m := NewMemory(4)
			m.AttachCaches(1)
			src, err := m.AllocOn(0)
			if err != nil {
				b.Fatal(err)
			}
			for w := uint32(0); w < bc.words; w++ {
				m.StoreWord(src, w, w+1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cp, err := m.CopyFrameOn(src, 0)
				if err != nil {
					b.Fatal(err)
				}
				m.DecRefOn(cp, 0)
			}
		})
	}
}
