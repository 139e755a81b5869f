package hw

import (
	"testing"
)

func TestTLBInsertLookup(t *testing.T) {
	var tlb TLB
	tlb.Insert(10, 1, 42, true)
	pfn, w, ok := tlb.Lookup(10, 1)
	if !ok || pfn != 42 || !w {
		t.Fatalf("Lookup = (%d,%v,%v)", pfn, w, ok)
	}
	if _, _, ok := tlb.Lookup(10, 2); ok {
		t.Fatal("ASID 2 must not hit ASID 1's entry")
	}
	if _, _, ok := tlb.Lookup(11, 1); ok {
		t.Fatal("VPN 11 must miss")
	}
	if tlb.Hits.Load() != 1 || tlb.Misses.Load() != 2 {
		t.Fatalf("stats hits=%d misses=%d", tlb.Hits.Load(), tlb.Misses.Load())
	}
}

func TestTLBReplaceUpgradesWritable(t *testing.T) {
	var tlb TLB
	tlb.Insert(7, 1, 5, false)
	tlb.Insert(7, 1, 9, true) // COW copy installed a new writable frame
	pfn, w, ok := tlb.Lookup(7, 1)
	if !ok || pfn != 9 || !w {
		t.Fatalf("Lookup after replace = (%d,%v,%v)", pfn, w, ok)
	}
	if tlb.ValidCount() != 1 {
		t.Fatalf("ValidCount = %d, want 1 (replacement, not duplicate)", tlb.ValidCount())
	}
}

func TestTLBEviction(t *testing.T) {
	var tlb TLB
	for i := 0; i < TLBSize+8; i++ {
		tlb.Insert(uint32(i), 1, PFN(i), false)
	}
	if n := tlb.ValidCount(); n != TLBSize {
		t.Fatalf("ValidCount = %d, want %d", n, TLBSize)
	}
	// The most recent insertions must be resident.
	if !tlb.Resident(uint32(TLBSize+7), 1) {
		t.Fatal("most recent entry evicted")
	}
}

func TestTLBFlushSpace(t *testing.T) {
	var tlb TLB
	tlb.Insert(1, 1, 10, false)
	tlb.Insert(2, 1, 11, false)
	tlb.Insert(3, 2, 12, false)
	tlb.FlushSpace(1)
	if tlb.Resident(1, 1) || tlb.Resident(2, 1) {
		t.Fatal("space 1 entries survived flush")
	}
	if !tlb.Resident(3, 2) {
		t.Fatal("space 2 entry wrongly flushed")
	}
	tlb.FlushSpace(2)
	if tlb.ValidCount() != 0 {
		t.Fatal("entries survived flushing every space")
	}
	if tlb.Flushes.Load() != 2 {
		t.Fatalf("Flushes = %d, want 2", tlb.Flushes.Load())
	}
}

func TestTLBFlushPage(t *testing.T) {
	var tlb TLB
	tlb.Insert(1, 1, 10, false)
	tlb.Insert(2, 1, 11, false)
	tlb.FlushPage(1, 1)
	if tlb.Resident(1, 1) {
		t.Fatal("page survived FlushPage")
	}
	if !tlb.Resident(2, 1) {
		t.Fatal("unrelated page flushed")
	}
}

func TestMachineShootdown(t *testing.T) {
	m := NewMachine(4, 16)
	for _, c := range m.CPUs {
		c.TLB.Insert(1, 1, 3, true)
		c.TLB.Insert(2, 2, 4, true)
	}
	init := m.CPUs[0]
	m.ShootdownSpace(init, 1)
	for i, c := range m.CPUs {
		if c.TLB.Resident(1, 1) {
			t.Fatalf("cpu %d still maps space 1", i)
		}
		if !c.TLB.Resident(2, 2) {
			t.Fatalf("cpu %d lost space 2 mapping", i)
		}
	}
	// Initiator pays IPI cost for each of the 3 remote CPUs.
	if got := init.Cycles.Load(); got != 3*m.Cost.IPI {
		t.Fatalf("initiator cycles = %d, want %d", got, 3*m.Cost.IPI)
	}
	if m.CPUs[1].TLB.Shootdowns.Load() != 1 {
		t.Fatal("remote CPU did not record shootdown")
	}
}

func TestMachineASIDsDistinct(t *testing.T) {
	m := NewMachine(1, 1)
	a, b := m.AllocASID(), m.AllocASID()
	if a == b || a == NoASID || b == NoASID {
		t.Fatalf("ASIDs %d %d", a, b)
	}
}
