package hw

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// TLBSize is the number of entries in each CPU's TLB. The MIPS R2000 has a
// 64-entry, fully associative, software-refilled TLB [MIPS 1986].
const TLBSize = 64

// ASID identifies an address space. The R2000 tags TLB entries with a
// process identifier so the TLB need not be flushed on context switch; we
// give every address space (and therefore every share group that shares its
// VM image) a distinct ASID. The simulated ASID space is wide enough that
// identifiers are never recycled, so a stale TLB entry can never match a
// new address space (real kernels flush on ASID rollover instead).
type ASID uint32

// NoASID is never assigned to an address space.
const NoASID ASID = 0

// TLBEntry is one translation: virtual page -> physical frame for an
// address space, with a writable bit. A clear writable bit on a resident
// page means a store must trap (the copy-on-write path).
type TLBEntry struct {
	VPN      uint32
	Space    ASID
	Frame    PFN
	Writable bool
}

// TLB is a CPU's translation lookaside buffer. It is software managed: the
// kernel inserts entries on miss and the kernel flushes entries when
// translations die. Accesses and flushes may race (another CPU shooting this
// one down), so the structure is locked.
//
// The machine is the R2000's: 64 entries, fully associative, a new
// translation takes the lowest invalid slot, else the round-robin victim.
// Only the search is the host's: a valid entry is found through an
// open-addressed index of its slot keyed by (vpn, space), not by comparing
// all 64, and an invalid slot is not in the index at all.
type TLB struct {
	mu      sync.Mutex
	entries [TLBSize]TLBEntry
	valid   uint64     // bit i: entries[i] holds a translation
	index   [256]uint8 // linear probing from hashKey: slot+1, 0 = empty; at most a quarter full
	next    int        // round-robin replacement victim

	Hits       atomic.Int64
	Misses     atomic.Int64
	Flushes    atomic.Int64 // full or ASID flushes
	Shootdowns atomic.Int64 // flushes initiated by another CPU
}

// hashKey is the index position at which the probe for (vpn, space) starts.
// The index has 256 positions, so uint8 arithmetic wraps around it.
func hashKey(vpn uint32, space ASID) uint8 {
	return uint8((vpn*0x9E3779B1 ^ uint32(space)*0x85EBCA6B) >> 24)
}

// find returns the slot holding (vpn, space), or -1, and the index position
// where the probe ended: the entry's own, or the empty one a new entry for
// the key would take. At most 64 of the 256 positions are in use, so the
// probe always ends.
func (t *TLB) find(vpn uint32, space ASID) (slot int, pos uint8) {
	for pos = hashKey(vpn, space); ; pos++ {
		s := t.index[pos]
		if s == 0 {
			return -1, pos
		}
		if e := &t.entries[s-1]; e.VPN == vpn && e.Space == space {
			return int(s - 1), pos
		}
	}
}

// drop invalidates the entry in slot, found at index position pos, and
// closes the gap it leaves: each later entry of the probe run moves back
// into the gap unless its own probe starts after it, so no probe ever
// crosses an empty position on the way to a live entry.
func (t *TLB) drop(slot int, pos uint8) {
	t.valid &^= 1 << slot
	for q := pos + 1; t.index[q] != 0; q++ {
		e := &t.entries[t.index[q]-1]
		if q-hashKey(e.VPN, e.Space) >= q-pos {
			t.index[pos] = t.index[q]
			pos = q
		}
	}
	t.index[pos] = 0
}

// Access probes the TLB for (vpn, space) and, when the entry is there and
// allows the access, runs op on its frame before the lock is dropped; it
// reports whether op ran. A frame number leaves the TLB no other way, so a
// flush waits out a touch in flight and no later touch finds the entry: the
// shootdown is synchronous (paper §6.2). A store that finds a write-protected
// entry is a hit that traps. op must not use this TLB.
func (t *TLB) Access(vpn uint32, space ASID, write bool, op func(PFN)) bool {
	t.mu.Lock()
	slot, _ := t.find(vpn, space)
	ok := slot >= 0 && (!write || t.entries[slot].Writable)
	if ok {
		op(t.entries[slot].Frame)
	}
	t.mu.Unlock()
	if slot >= 0 {
		t.Hits.Add(1)
	} else {
		t.Misses.Add(1)
	}
	return ok
}

// Insert adds a translation, evicting the round-robin victim if needed. Any
// existing entry for (vpn, space) is replaced, so an upgrade to writable
// after a copy-on-write copy takes effect immediately.
func (t *TLB) Insert(vpn uint32, space ASID, pfn PFN, writable bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	slot, pos := t.find(vpn, space)
	if slot < 0 {
		if t.valid != ^uint64(0) {
			slot = bits.TrailingZeros64(^t.valid)
		} else {
			slot = t.next
			t.next = (t.next + 1) % TLBSize
			v := &t.entries[slot]
			_, vpos := t.find(v.VPN, v.Space)
			t.drop(slot, vpos)
			_, pos = t.find(vpn, space) // closing the gap may have moved the end of this key's probe
		}
		t.valid |= 1 << slot
		t.index[pos] = uint8(slot + 1)
	}
	t.entries[slot] = TLBEntry{VPN: vpn, Space: space, Frame: pfn, Writable: writable}
}

// FlushSpace invalidates every entry belonging to the given address space.
func (t *TLB) FlushSpace(space ASID) {
	t.mu.Lock()
	for v := t.valid; v != 0; v &= v - 1 {
		slot := bits.TrailingZeros64(v)
		if e := &t.entries[slot]; e.Space == space {
			_, pos := t.find(e.VPN, space)
			t.drop(slot, pos)
		}
	}
	t.mu.Unlock()
	t.Flushes.Add(1)
}

// FlushPage invalidates the entry for (vpn, space) if present.
func (t *TLB) FlushPage(vpn uint32, space ASID) {
	t.mu.Lock()
	if slot, pos := t.find(vpn, space); slot >= 0 {
		t.drop(slot, pos)
	}
	t.mu.Unlock()
}

// Resident reports whether a valid entry for (vpn, space) is present.
func (t *TLB) Resident(vpn uint32, space ASID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	slot, _ := t.find(vpn, space)
	return slot >= 0
}

// ValidCount returns the number of valid entries (for tests and sgtop).
func (t *TLB) ValidCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return bits.OnesCount64(t.valid)
}
