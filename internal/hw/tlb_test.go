package hw

import (
	"testing"
	"time"
)

// insert installs a translation as a load's fault does when nothing refuses
// it.
func insert(tlb *TLB, vpn uint32, space ASID, pfn PFN, writable bool) {
	tlb.Fill(vpn, space, pfn, writable, false, nil, func(PFN) {})
}

func TestTLBInsertLookup(t *testing.T) {
	var tlb TLB
	insert(&tlb, 10, 1, 42, true)
	pfn := NoPFN
	got := func(p PFN) { pfn = p }
	if !tlb.Access(10, 1, true, got) || pfn != 42 {
		t.Fatalf("store through a writable entry: op saw frame %d", pfn)
	}
	if tlb.Access(10, 2, false, got) {
		t.Fatal("ASID 2 must not hit ASID 1's entry")
	}
	if tlb.Access(11, 1, false, got) {
		t.Fatal("VPN 11 must miss")
	}
	if tlb.Hits.Load() != 1 || tlb.Misses.Load() != 2 {
		t.Fatalf("stats hits=%d misses=%d", tlb.Hits.Load(), tlb.Misses.Load())
	}
}

func TestTLBReplaceUpgradesWritable(t *testing.T) {
	var tlb TLB
	insert(&tlb, 7, 1, 5, false)
	pfn := NoPFN
	got := func(p PFN) { pfn = p }
	if tlb.Access(7, 1, true, got) {
		t.Fatalf("store through a write-protected entry ran on frame %d", pfn)
	}
	if tlb.Hits.Load() != 1 {
		t.Fatalf("a protection trap is a hit: hits=%d misses=%d", tlb.Hits.Load(), tlb.Misses.Load())
	}
	insert(&tlb, 7, 1, 9, true) // COW copy installed a new writable frame
	if !tlb.Access(7, 1, true, got) || pfn != 9 {
		t.Fatalf("store after replace: op saw frame %d", pfn)
	}
	if tlb.ValidCount() != 1 {
		t.Fatalf("ValidCount = %d, want 1 (replacement, not duplicate)", tlb.ValidCount())
	}
}

// A flush issued while an access is in flight returns only after it: the
// frame number op was handed cannot outlive the entry that named it.
func TestTLBFlushWaitsOutAccess(t *testing.T) {
	flushWaitsOut(t, func(tlb *TLB, op func(PFN)) {
		insert(tlb, 3, 1, 8, true)
		go tlb.Access(3, 1, true, op)
	})
}

// The same holds for the access a fault serves: a flush waits out the op of
// a Fill that installed the entry it drops.
func TestTLBFlushWaitsOutFill(t *testing.T) {
	flushWaitsOut(t, func(tlb *TLB, op func(PFN)) {
		go tlb.Fill(3, 1, 8, true, true, func() bool { return true }, op)
	})
}

// flushWaitsOut starts a touch of (3, 1) with start, holds its op, and checks
// that each kind of flush returns only once op has finished and leaves no
// entry behind.
func flushWaitsOut(t *testing.T, start func(tlb *TLB, op func(PFN))) {
	for name, flush := range map[string]func(*TLB){
		"FlushPage":  func(tlb *TLB) { tlb.FlushPage(3, 1) },
		"FlushSpace": func(tlb *TLB) { tlb.FlushSpace(1) },
	} {
		var tlb TLB
		inOp, release, flushed := make(chan struct{}), make(chan struct{}), make(chan struct{})
		touched := false
		start(&tlb, func(PFN) {
			close(inOp)
			<-release
			touched = true
		})
		<-inOp
		go func() {
			flush(&tlb)
			close(flushed)
		}()
		select {
		case <-flushed:
			t.Fatalf("%s returned while op was still running", name)
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		<-flushed
		if !touched {
			t.Fatalf("%s returned before op finished", name)
		}
		if tlb.Access(3, 1, false, func(PFN) {}) {
			t.Fatalf("entry survived %s", name)
		}
	}
}

// A fill whose translation no longer stands runs nothing and leaves nothing:
// not the new entry, and not the one it replaced.
func TestTLBRefusedFillLeavesNoEntry(t *testing.T) {
	var tlb TLB
	insert(&tlb, 5, 1, 7, false)
	ran := false
	if tlb.Fill(5, 1, 9, true, true, func() bool { return false }, func(PFN) { ran = true }) || ran {
		t.Fatal("a refused fill ran op")
	}
	if tlb.Resident(5, 1) || tlb.ValidCount() != 0 {
		t.Fatalf("a refused fill left %d entries", tlb.ValidCount())
	}
	if tlb.Fill(6, 1, 9, false, true, nil, func(PFN) { ran = true }) || ran {
		t.Fatal("a store ran through a write-protected fill")
	}
	if !tlb.Resident(6, 1) {
		t.Fatal("a write-protected fill left no entry for the trap")
	}
}

func TestTLBEviction(t *testing.T) {
	var tlb TLB
	for i := 0; i < TLBSize+8; i++ {
		insert(&tlb, uint32(i), 1, PFN(i), false)
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
	insert(&tlb, 1, 1, 10, false)
	insert(&tlb, 2, 1, 11, false)
	insert(&tlb, 3, 2, 12, false)
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
	insert(&tlb, 1, 1, 10, false)
	insert(&tlb, 2, 1, 11, false)
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
		insert(&c.TLB, 1, 1, 3, true)
		insert(&c.TLB, 2, 2, 4, true)
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
