package klock

import "testing"

// CPU c reads on slot c&(mrSlots-1), and slot 0 stays reserved for the
// no-affinity paths.
func TestMRLockSlotDefault(t *testing.T) {
	var l MRLock
	for _, cpu := range []int{-1, 0} {
		if l.slotOf(cpu) != 0 {
			t.Fatalf("slotOf(%d) = %d, want 0", cpu, l.slotOf(cpu))
		}
	}
	if l.slotOf(5) != 5 || l.slotOf(mrSlots+3) != 3 {
		t.Fatalf("slotOf not a modulo hash")
	}
}

// The mapping must round-trip through RLockOn/RUnlockOn: the slot returned
// is the one the hold was counted on, and releases drain exactly. CPUs past
// mrSlots wrap onto slots already in use.
func TestMRLockSlotRoundTrip(t *testing.T) {
	var l MRLock
	th := newGoThread()
	var slots []int
	for cpu := 0; cpu < 256; cpu += 17 {
		slots = append(slots, l.RLockOn(th, cpu))
	}
	if l.Readers() != len(slots) {
		t.Fatalf("Readers = %d, want %d", l.Readers(), len(slots))
	}
	for _, s := range slots {
		l.RUnlockOn(s)
	}
	if l.Readers() != 0 {
		t.Fatalf("Readers = %d after release, want 0", l.Readers())
	}
}
